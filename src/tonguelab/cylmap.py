"""The drifted standard map on the cylinder, in shifted coordinates.

The map acts on ``(x, y)`` with ``y = v - mu`` the momentum measured from
the rotation number ``mu = 2 pi p / q``:

    x' = x + y + mu + g(x),      y' = y + g(x),
    g(x) = -delta - eps * f(x).

``x`` is kept as an unbounded lift coordinate (never reduced mod 2 pi) so
the winding ``2 pi p`` in the periodicity condition ``x_q = x_0 + 2 pi p``
stays explicit.  The q-step remainders (R, S) measure the deviation of the
q-th iterate from the pure rotation; their common zero is a p/q periodic
orbit.  :func:`jet_pass` is the one kernel that iterates the map: one
pass over a batch of starts gives the points of their orbits, the
remainders, and their exact Jacobian, whose block in ``(x0, y0)`` is the
monodromy minus the identity.  It runs on a workspace
(:func:`jet_workspace`) that holds the kernel's constants and its buffers
for one batch shape: they are allocated once per workspace, not once per
pass, so a Newton solve builds them once and runs every full step on
them; :func:`remainder_jet` is one pass on a workspace of its own.  A
pass holds the state of all starts as one array, x and y each with its
tangent in ``(x0, y0, delta)``, and
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
here but :func:`jet_pass`, which writes its workspace, are pure.
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


# The tangents of the start (x0, y0) in (x0, y0, delta).
_TANGENTS = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]).reshape(2, 3, 1)


class JetWorkspace:
    """The constants and buffers of :func:`jet_pass`; built by
    :func:`jet_workspace`, for one forcing, step count and batch shape."""

    __slots__ = ("n", "mu", "coef", "k_col", "weights", "st", "acc", "drift", "neg_eps",
                 "kx", "trig", "terms", "gj", "term", "path", "cos_rows", "sin_rows",
                 "sin_k", "x", "y", "x_val", "dx", "values", "fj", "fp", "g_tan", "acc_r",
                 "acc_s", "x0", "y0", "delta", "eps", "res", "jac", "points")


def jet_workspace(m: MapParams, n: int, shape: tuple[int, ...],
                  like: JetWorkspace | None = None) -> JetWorkspace:
    """The workspace of :func:`jet_pass` for ``n`` steps of the map ``m`` on
    batches of shape ``shape``.

    Its constants are the coefficients of ``(f, f')`` on the rows ``[cos kx |
    sin kx]``, the weights ``(n-k, 1)`` of ``g(x_k)`` in ``(R, S)`` and the
    harmonic column ``k``; ``like``, a workspace of the same map and ``n``,
    lends its constants, so that a batch of another shape allocates only its
    buffers.  The buffers hold the state, the accumulator, the trig rows and
    their weighted terms, the kick's jet and the points, flat over the ``N``
    starts of the batch, with the views that a pass writes its starts
    through and returns its results as, in the batch shape.
    """
    ws = JetWorkspace()
    if like is None:
        a, b = m.f.cos_coeffs, m.f.sin_coeffs
        k = np.arange(len(a), dtype=float)
        # coef[i] holds the weights of (f, f') on row i of trig: the cos kx,
        # k >= 0, then the sin kx, k >= 1
        coef = np.array([np.concatenate([a, b]),
                         np.concatenate([[0.0], k[1:] * b, -k[1:] * a[1:]])]).T[:, :, None]
        weights = np.ones((n, 2, 1, 1))
        weights[:, 0, 0, 0] = np.arange(n, 0, -1)
        ws.n, ws.mu, ws.coef, ws.k_col, ws.weights = n, m.mu, coef, k[:, None], weights
    else:
        ws.n, ws.mu, ws.coef, ws.k_col, ws.weights = (
            like.n, like.mu, like.coef, like.k_col, like.weights)
    harmonics, size = len(ws.k_col), math.prod(shape)
    # st[0] is x and st[1] is y, each as (value, d/dx0, d/dy0, d/ddelta);
    # acc[0] is R and acc[1] is S, laid out as st
    ws.st, ws.acc = st, acc = np.empty((2, 4, size)), np.empty((2, 4, size))
    # the jet of the drift, whose tangent rows stay (0, 0, 1), and each
    # start's -eps
    ws.drift = np.zeros((4, size))
    ws.drift[3] = 1.0
    ws.neg_eps = np.empty(size)
    ws.kx, ws.trig = kx, trig = np.empty((harmonics, size)), np.empty((len(ws.coef), 1, size))
    ws.terms, ws.gj = np.empty((len(trig), 2, size)), np.empty((4, size))
    ws.term = np.empty_like(st)
    ws.path = np.empty((ws.n, 2, size))
    # views that the loop writes through
    ws.cos_rows, ws.sin_rows, ws.sin_k = trig[:harmonics, 0], trig[harmonics:, 0], kx[1:]
    ws.x, ws.y, ws.x_val, ws.dx, ws.values = st[0], st[1], st[0, 0], st[0, 1:], st[:, 0]
    ws.fj, ws.fp, ws.g_tan = ws.gj[:2], ws.gj[1], ws.gj[1:]
    ws.acc_r, ws.acc_s = acc[0], acc[1]
    # views in the batch shape that a pass writes its starts through and
    # returns its results as
    start, acc = st.reshape((2, 4) + shape), acc.reshape((2, 4) + shape)
    ws.x0, ws.y0 = start[0, 0, ...], start[1, 0, ...]
    ws.delta, ws.eps = ws.drift.reshape((4,) + shape)[0, ...], ws.neg_eps.reshape(shape)
    ws.res, ws.jac, ws.points = acc[:, 0], acc[:, 1:], ws.path.reshape((ws.n, 2) + shape)
    return ws


def jet_pass(ws: JetWorkspace, x0, y0, delta, eps) -> tuple[np.ndarray, ...]:
    """One pass of the map over a batch of starts, on the workspace ``ws``.

    The n-step remainders are accumulated along the orbit,

    ``R = n*y0 + sum_{k<n} (n-k) g(x_k)``,  ``S = sum_{k<n} g(x_k)``,

    equivalently ``R = x_n - x_0 - n*mu`` and ``S = y_n - y_0``.
    ``x0``, ``y0``, ``delta`` and ``eps`` broadcast to the workspace's batch
    shape ``b`` (the drift and the strength come from them, not from the
    map's ``delta`` and ``eps``, so one pass can hold starts of several eps).
    The state is one ``(2, 4, N)`` array over the ``N`` starts: ``x`` and
    ``y``, each as its value followed by its derivatives with respect to
    ``(x0, y0, delta)``, pushed through the n map steps together by
    forward-mode tangent propagation.  A second array of the same shape
    accumulates ``(R, S)`` and their derivatives the same way.  Each step
    weights the ``2K-1`` rows ``[cos kx | sin kx]`` of every start (``K - 1``
    the capacity of ``f``) by the coefficients of ``(f, f')`` and sums them
    in row order, so each start's result is the same in any batch, then
    multiplies by each start's ``-eps``.  Returns ``res`` of shape
    ``(2, *b)`` holding ``(R, S)``, ``jac`` of shape ``(2, 3, *b)`` with
    ``jac[i, j] = d res[i] / d (x0, y0, delta)[j]`` and ``path`` of shape
    ``(n, 2, *b)`` holding the points ``(x_k, y_k)``.  They are views of the
    workspace, which the next pass on it overwrites.
    """
    # the start: x0 and y0 with their unit tangents, R = n*y0 and S = 0
    ws.st[:, 1:] = _TANGENTS
    ws.x0[...], ws.y0[...], ws.delta[...] = x0, y0, delta
    np.negative(eps, ws.eps)
    np.multiply(ws.n, ws.y, ws.acc_r)
    ws.acc_s.fill(0.0)
    coef, trig, terms, neg_eps, drift, acc, term, st, path = (
        ws.coef, ws.trig, ws.terms, ws.neg_eps, ws.drift, ws.acc, ws.term, ws.st, ws.path)
    k_col, cos_rows, sin_rows, sin_k, kx = ws.k_col, ws.cos_rows, ws.sin_rows, ws.sin_k, ws.kx
    x, y, x_val, dx, values = ws.x, ws.y, ws.x_val, ws.dx, ws.values
    gj, fj, fp, g_tan = ws.gj, ws.fj, ws.fp, ws.g_tan
    mu = ws.mu
    # a positional output skips the ufuncs' keyword parsing
    for j, weight in enumerate(ws.weights):
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
    return ws.res, ws.jac, ws.points


def remainder_jet(x0, y0, delta, eps, m: MapParams, n: int) -> tuple[np.ndarray, ...]:
    """The points, remainders and exact Jacobian of a batch of starts: one
    :func:`jet_pass` on a workspace of their broadcast shape (see there for
    the layout), built for this pass alone.  The buffers are allocated once
    per workspace, not once per pass, so a caller that runs many passes on
    one batch shape builds its workspace once and calls :func:`jet_pass`."""
    ws = jet_workspace(m, n, np.broadcast(x0, y0, delta, eps).shape)
    return jet_pass(ws, x0, y0, delta, eps)
