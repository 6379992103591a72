import math
from xml.dom import minidom

import pytest

from tonguelab.svgfig import emit_svg, render_svg

XS = [2 * math.pi * k / 16 for k in range(16)]


def datasets():
    """One small dataset per plot kind, built fresh on every call."""
    return {
        "loglog": {"eps": [0.05, 0.1, 0.2, 0.4], "width": [1e-4, 8e-4, 6.4e-3, 5.1e-2]},
        "profile": {"x0": list(XS), "delta": [0.01 * math.sin(x) for x in XS]},
        "trajectory": {"t": [0.0, 0.5, 1.0], "x": [[0.0, 0.1, 0.3], [1.0, 0.9, 0.7]]},
    }


def parse(text):
    return minidom.parseString(text.encode("utf-8"))


def texts(doc):
    return [n.firstChild.data for n in doc.getElementsByTagName("text")]


def comments(doc):
    return [n.data for n in doc.documentElement.childNodes if n.nodeType == n.COMMENT_NODE]


KINDS = ("loglog", "profile", "trajectory")
META = {"tool": "tonguelab", "config": '{"q": 3}'}


class TestDeterminism:
    @pytest.mark.parametrize("kind", KINDS)
    def test_render_is_byte_identical(self, kind):
        first = render_svg(datasets()[kind], kind, dict(META))
        second = render_svg(datasets()[kind], kind, dict(META))
        assert first == second

    @pytest.mark.parametrize("kind", KINDS)
    def test_emit_is_byte_identical(self, kind, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        emit_svg(datasets()[kind], kind, str(a), dict(META))
        emit_svg(datasets()[kind], kind, str(b), dict(META))
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() == render_svg(datasets()[kind], kind, dict(META)).encode("utf-8")
        assert a.read_bytes().endswith(b"</svg>\n") and b"\r" not in a.read_bytes()

    def test_metadata_order_does_not_matter(self):
        ds = datasets()["profile"]
        assert (render_svg(ds, "profile", {"a": 1, "b": 2})
                == render_svg(ds, "profile", {"b": 2, "a": 1}))


class TestWellFormed:
    @pytest.mark.parametrize("kind", KINDS)
    def test_parses(self, kind):
        doc = parse(render_svg(datasets()[kind], kind, dict(META)))
        assert doc.documentElement.tagName == "svg"
        assert comments(doc) == ['\nconfig={"q": 3}\ntool=tonguelab\n']

    def test_double_dash_in_metadata(self):
        meta = {"out": "run--1.svg", "arrow": "a-->b", "dashes": "x---", "end": "y-"}
        doc = parse(render_svg(datasets()["profile"], "profile", meta))
        (comment,) = comments(doc)
        assert "--" not in comment
        assert "out=run-&#45;1.svg" in comment.splitlines()

    @pytest.mark.parametrize("kind", KINDS)
    def test_markup_in_labels(self, kind):
        ds = datasets()[kind]
        ds["xlabel"], ds["ylabel"] = "a < b & c", "<&>"
        doc = parse(render_svg(ds, kind))
        assert {"a < b & c", "<&>"} <= set(texts(doc))

    def test_plain_labels_stay_verbatim(self):
        ds = datasets()["profile"]
        ds["xlabel"], ds["ylabel"] = "x0 > 1", "delta"
        text = render_svg(ds, "profile")
        assert ">x0 > 1</text>" in text and ">delta</text>" in text


class TestDegenerateData:
    def test_flat_profile(self):
        ds = {"x0": list(XS), "delta": [0.25] * len(XS)}
        doc = parse(render_svg(ds, "profile"))
        (line,) = doc.getElementsByTagName("polyline")
        ys = {p.split(",")[1] for p in line.getAttribute("points").split()}
        assert len(ys) == 1
        assert len(doc.getElementsByTagName("circle")) == 2

    def test_one_point_loglog(self):
        doc = parse(render_svg({"eps": [0.1], "width": [1e-3]}, "loglog"))
        assert len(doc.getElementsByTagName("circle")) == 1
        # no fitted line and no slope label for a single point
        assert not doc.getElementsByTagName("polyline")
        assert not any(t.startswith("slope") for t in texts(doc))

    def test_loglog_slope_label(self):
        ds = dict(datasets()["loglog"], slope=3.0, intercept=-0.1)
        assert "slope = 3.0000" in texts(parse(render_svg(ds, "loglog")))


class TestErrors:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown plot kind"):
            render_svg(datasets()["profile"], "histogram")

    @pytest.mark.parametrize("kind,key", [("loglog", "eps"), ("loglog", "width"),
                                          ("profile", "x0"), ("profile", "delta"),
                                          ("trajectory", "t"), ("trajectory", "x")])
    def test_empty_dataset(self, kind, key):
        ds = datasets()[kind]
        ds[key] = []
        with pytest.raises(ValueError, match="empty"):
            render_svg(ds, kind)
        del ds[key]
        with pytest.raises(ValueError, match="empty"):
            render_svg(ds, kind)

    @pytest.mark.parametrize("kind,key", [("loglog", "width"), ("profile", "delta")])
    def test_unequal_lengths(self, kind, key):
        ds = datasets()[kind]
        ds[key] = ds[key][:-1]
        with pytest.raises(ValueError, match="equal lengths"):
            render_svg(ds, kind)

    @pytest.mark.parametrize("key,value", [("eps", 0.0), ("width", -1e-3)])
    def test_loglog_needs_positive_data(self, key, value):
        ds = datasets()["loglog"]
        ds[key][1] = value
        with pytest.raises(ValueError, match="positive"):
            render_svg(ds, "loglog")

    def test_site_series_length(self):
        ds = datasets()["trajectory"]
        ds["x"][1] = ds["x"][1][:-1]
        with pytest.raises(ValueError, match="time axis"):
            render_svg(ds, "trajectory")

    def test_emit_writes_nothing_on_error(self, tmp_path):
        out = tmp_path / "bad.svg"
        with pytest.raises(ValueError):
            emit_svg({"eps": [], "width": []}, "loglog", str(out))
        assert not out.exists()
