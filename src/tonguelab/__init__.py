"""tonguelab: periodic orbits and Arnold tongues of drifted standard maps.

The lab measures how far the drift (non-exactness) of a standard-type
cylinder map can be pushed before its p/q periodic orbits disappear, and
verifies the expected structure: the admissible drift range is the range
of an implicit drift profile, its width scales like ``eps**r`` where r is
the first series order whose coefficient depends on the angle, and that
coefficient is invariant under the rotation-number shift.  A damped
discretized sine-Gordon chain reproduces the same thresholds as pinned
equilibria giving way to traveling waves.

The classes named in ``__all__`` load lazily: ``import tonguelab`` loads
no submodule and no numpy, and the first access to such a name (as
``tonguelab.TrigPoly`` or by ``from tonguelab import TrigPoly``) imports
the module that defines it.  So ``import tonguelab.cli`` and building its
parser stay within the standard library.
"""

import importlib

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_EXPORTS = {
    "TrigPoly": "trigpoly",
    "MapParams": "cylmap",
    "PhaseState": "cylmap",
    "RemainderPair": "cylmap",
    "PeriodicOrbit": "orbits",
    "EpsSeries": "series",
    "SeriesSolution": "series",
    "TongueSample": "tongue",
    "ScalingFit": "tongue",
    "ChainParams": "sgchain",
    "ChainState": "sgchain",
    "AttractorReport": "sgchain",
    "CriticalTorque": "sgchain",
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
