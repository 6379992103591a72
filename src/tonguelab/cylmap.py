"""The drifted standard map on the cylinder, in shifted coordinates.

The map acts on ``(x, y)`` with ``y = v - mu`` the momentum measured from
the rotation number ``mu = 2 pi p / q``:

    x' = x + y + mu + g(x),      y' = y + g(x),
    g(x) = -delta - eps * f(x).

``x`` is kept as an unbounded lift coordinate (never reduced mod 2 pi) so
the winding ``2 pi p`` in the periodicity condition ``x_q = x_0 + 2 pi p``
stays explicit.  The q-step remainders (R, S) measure the deviation of the
q-th iterate from the pure rotation; their common zero is a p/q periodic
orbit.  :func:`remainder_jet` is the one kernel that iterates the map: one
pass over a batch of starts gives the points of their orbits, the
remainders, and their exact Jacobian, whose block in ``(x0, y0)`` is the
monodromy minus the identity.  All functions here are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .trigpoly import TrigPoly


@dataclass(frozen=True)
class MapParams:
    """Full specification of the drifted cylinder map.

    ``mu`` is always derived from ``p`` and ``q``; it is not stored.
    ``gcd(p, q) = 1`` is *not* required here (raw iteration is fine for
    reducible fractions) but is enforced by the tongue and series
    entry points.
    """

    eps: float
    delta: float
    f: TrigPoly
    p: int
    q: int

    def __post_init__(self):
        if self.q < 1:
            raise ValueError("q must be >= 1")
        if self.p < 0:
            raise ValueError("p must be >= 0")
        if self.eps < 0:
            raise ValueError("eps must be >= 0")
        if not (math.isfinite(self.eps) and math.isfinite(self.delta)):
            raise ValueError("eps and delta must be finite")

    @property
    def mu(self) -> float:
        return 2.0 * math.pi * self.p / self.q

    def coprime(self) -> bool:
        return math.gcd(self.p, self.q) == 1


@dataclass(frozen=True)
class PhaseState:
    """A point of the cylinder map in shifted coordinates (lift x, y)."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError("phase-space coordinates must be finite")


@dataclass(frozen=True)
class RemainderPair:
    """Deviation (R, S) of the n-th iterate from the rotation by n*mu."""

    R: float
    S: float


def remainder_jet(x0, y0, delta, m: MapParams, n: int) -> tuple[np.ndarray, ...]:
    """The points, remainders and exact Jacobian of a batch of starts.

    The n-step remainders are accumulated along the orbit,

    ``R = n*y0 + sum_{k<n} (n-k) g(x_k)``,  ``S = sum_{k<n} g(x_k)``,

    equivalently ``R = x_n - x_0 - n*mu`` and ``S = y_n - y_0``.
    ``x0``, ``y0`` and ``delta`` broadcast to one batch shape ``b`` (the
    drift comes from ``delta``, not ``m.delta``).  All starts go through
    the n map steps together, with ``f`` and ``f'`` from one trig pass
    per step, and the derivatives with respect to ``(x0, y0, delta)`` are
    pushed through the same steps by forward-mode tangent propagation.
    Returns ``res`` of shape ``(2, *b)`` holding ``(R, S)``, ``jac`` of
    shape ``(2, 3, *b)`` with ``jac[i, j] = d res[i] / d (x0, y0, delta)[j]``
    and ``path`` of shape ``(n, 2, *b)`` holding the points ``(x_k, y_k)``.
    """
    x, y, delta = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (x0, y0, delta)))
    # tangents of x and y, and the seed direction of delta
    dx, dy, ddelta = (np.zeros((3,) + x.shape) for _ in range(3))
    dx[0], dy[1], ddelta[2] = 1.0, 1.0, 1.0
    r, dr = n * y, n * dy
    ssum, dssum = np.zeros(x.shape), np.zeros(dx.shape)
    path = np.empty((n, 2) + x.shape)
    for k in range(n):
        path[k] = x, y
        f, fp = m.f.jet(x)
        g = -delta - m.eps * f
        dg = -ddelta - m.eps * fp * dx
        r, dr = r + (n - k) * g, dr + (n - k) * dg
        ssum, dssum = ssum + g, dssum + dg
        x, y = x + y + m.mu + g, y + g
        dx, dy = dx + dy + dg, dy + dg
    return np.stack([r, ssum]), np.stack([dr, dssum]), path
