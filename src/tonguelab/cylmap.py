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
monodromy minus the identity.  A pass holds the state of all starts as
one array, x and y each with its tangent in ``(x0, y0, delta)``, and
accumulates the remainders with their Jacobian in a second array laid
out the same way; each step takes ``f`` and ``f'`` as sums of the
starts' ``[cos kx | sin kx]`` rows weighted by the coefficients of
``(f, f')``, then scales them by each start's own ``-eps``: the drift and
the strength are per start, so one pass can advance starts of several
eps together.  The rows are added one after another, elementwise, so a
start's values do not depend on the other starts in its batch (a BLAS
matrix product may sum in an order that changes with the batch size).
The step loop calls ufuncs with positional outputs: at a few dozen
starts the parsing of ``out=`` is a fair share of a step.  All functions
here are pure.
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


def remainder_jet(x0, y0, delta, eps, m: MapParams, n: int) -> tuple[np.ndarray, ...]:
    """The points, remainders and exact Jacobian of a batch of starts.

    The n-step remainders are accumulated along the orbit,

    ``R = n*y0 + sum_{k<n} (n-k) g(x_k)``,  ``S = sum_{k<n} g(x_k)``,

    equivalently ``R = x_n - x_0 - n*mu`` and ``S = y_n - y_0``.
    ``x0``, ``y0``, ``delta`` and ``eps`` broadcast to one batch shape ``b``
    (the drift and the strength come from them, not from ``m.delta`` and
    ``m.eps``, so one pass can hold starts of several eps), which the pass
    flattens to ``N`` starts.  The state is one ``(2, 4, N)`` array: ``x``
    and ``y``, each as its value followed by its derivatives with respect
    to ``(x0, y0, delta)``, pushed through the n map steps together by
    forward-mode tangent propagation.  A second array of the same shape
    accumulates ``(R, S)`` and their derivatives the same way.  Each step
    weights the ``2K-1`` rows ``[cos kx | sin kx]`` of every start (``K - 1``
    the capacity of ``f``) by the coefficients of ``(f, f')`` and sums them
    in row order, so each start's result is the same in any batch, then
    multiplies by each start's ``-eps``; all buffers are allocated once per
    pass.  Returns ``res`` of shape ``(2, *b)`` holding ``(R, S)``, ``jac``
    of shape ``(2, 3, *b)`` with ``jac[i, j] = d res[i] / d (x0, y0,
    delta)[j]`` and ``path`` of shape ``(n, 2, *b)`` holding the points
    ``(x_k, y_k)``.
    """
    shape = np.broadcast(x0, y0, delta, eps).shape
    a, b = m.f.cos_coeffs, m.f.sin_coeffs
    k = np.arange(len(a), dtype=float)
    # coef[i] holds the weights of (f, f') on row i of trig: the cos kx,
    # k >= 0, then the sin kx, k >= 1
    coef = np.array([np.concatenate([a, b]),
                     np.concatenate([[0.0], k[1:] * b, -k[1:] * a[1:]])]).T[:, :, None]
    # st[0] is x and st[1] is y, each as (value, d/dx0, d/dy0, d/ddelta)
    st = np.zeros((2, 4) + shape)
    st[0, 0], st[1, 0], st[0, 1], st[1, 2] = x0, y0, 1.0, 1.0
    st = st.reshape(2, 4, -1)
    size = st.shape[2]
    # acc[0] is R and acc[1] is S, laid out as st
    acc = np.zeros_like(st)
    acc[0] = n * st[1]
    # the weights (n-k, 1) of g(x_k) in (R, S), the jet of the drift, and
    # each start's -eps
    weights = np.ones((n, 2, 1, 1))
    weights[:, 0, 0, 0] = np.arange(n, 0, -1)
    drift = np.zeros((4,) + shape)
    drift[0], drift[3] = delta, 1.0
    drift = drift.reshape(4, -1)
    neg_eps = np.negative(eps, out=np.empty(shape)).reshape(-1)
    kx, trig = np.empty((len(k), size)), np.empty((2 * len(k) - 1, 1, size))
    terms = np.empty((len(trig), 2, size))
    gj, term = np.empty((4, size)), np.empty_like(st)
    path = np.empty((n, 2, size))
    # views that the loop writes through
    k_col, cos_rows, sin_rows, sin_k = k[:, None], trig[:len(k), 0], trig[len(k):, 0], kx[1:]
    x, y, x_val, dx, values = st[0], st[1], st[0, 0], st[0, 1:], st[:, 0]
    fj, fp, g_tan = gj[:2], gj[1], gj[1:]
    mu = m.mu
    # a positional output skips the ufuncs' keyword parsing
    for j, weight in enumerate(weights):
        path[j] = values
        np.multiply(k_col, x_val, kx)
        np.cos(kx, cos_rows)
        np.sin(sin_k, sin_rows)
        # g = -delta - eps f with its tangent -eps f' dx - d(delta); fp = gj[1]
        # holds -eps f' until the product with dx (numpy buffers the overlap)
        # the sum runs over the outer axis of terms: row by row, elementwise
        np.multiply(coef, trig, terms)
        np.add.reduce(terms, 0, None, fj)
        np.multiply(fj, neg_eps, fj)
        np.multiply(fp, dx, g_tan)
        np.subtract(gj, drift, gj)
        np.multiply(weight, gj, term)
        np.add(acc, term, acc)
        # x' = x + y + mu + g and y' = y + g
        np.add(x, y, x)
        np.add(x_val, mu, x_val)
        np.add(st, gj, st)
    return (acc[:, 0].reshape((2,) + shape), acc[:, 1:].reshape((2, 3) + shape),
            path.reshape((n, 2) + shape))
