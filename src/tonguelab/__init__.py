"""tonguelab: periodic orbits and Arnold tongues of drifted standard maps.

The lab measures how far the drift (non-exactness) of a standard-type
cylinder map can be pushed before its p/q periodic orbits disappear, and
verifies the expected structure: the admissible drift range is the range
of an implicit drift profile, its width scales like ``eps**r`` where r is
the first series order whose coefficient depends on the angle, and that
coefficient is invariant under the rotation-number shift.  A damped
discretized sine-Gordon chain reproduces the same thresholds as pinned
equilibria giving way to traveling waves.
"""

__version__ = "0.1.0"

from .cylmap import MapParams, PhaseState, RemainderPair
from .orbits import PeriodicOrbit
from .series import EpsSeries, SeriesSolution
from .sgchain import AttractorReport, ChainParams, ChainState, CriticalTorque
from .tongue import ScalingFit, TongueSample
from .trigpoly import TrigPoly

__all__ = [
    "__version__",
    "TrigPoly",
    "MapParams",
    "PhaseState",
    "RemainderPair",
    "PeriodicOrbit",
    "EpsSeries",
    "SeriesSolution",
    "TongueSample",
    "ScalingFit",
    "ChainParams",
    "ChainState",
    "AttractorReport",
    "CriticalTorque",
]
