import sys

import pytest

import tonguelab

EXPORTED = [name for name in tonguelab.__all__ if name != "__version__"]


@pytest.mark.parametrize("name", EXPORTED)
def test_export_is_the_object_of_its_module(name):
    obj = getattr(tonguelab, name)
    assert obj.__module__.startswith("tonguelab.")
    assert getattr(sys.modules[obj.__module__], name) is obj


def test_dir_lists_every_export():
    assert set(tonguelab.__all__) <= set(dir(tonguelab))


def test_star_import_binds_every_export():
    namespace = {}
    exec("from tonguelab import *", namespace)
    assert set(tonguelab.__all__) <= set(namespace)
    for name in EXPORTED:
        assert namespace[name] is getattr(tonguelab, name)
    assert namespace["__version__"] == tonguelab.__version__


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="NoSuchName"):
        tonguelab.NoSuchName  # noqa: B018
    assert not hasattr(tonguelab, "NoSuchName")
