"""Newton solvers for p/q periodic orbits.

Every solver here works on the same q-step equations ``(R, S) = 0``
(since ``q mu = 2 pi p`` they are also the periodicity conditions
``x_q - x_0 - 2 pi p = 0``, ``y_q - y_0 = 0``), with the residual and its
exact Jacobian from the one batched kernel
:func:`~tonguelab.cylmap.remainder_jet`.  Two pairs of unknowns are used:

* :func:`continue_in_x` keeps the initial angle ``x_0`` fixed on a grid
  and solves for ``(delta, y_0)``; the result samples the implicit
  functions ``delta = D(x_0, eps)`` and ``y_0 = Y(x_0, eps)`` whose range
  in delta is the Arnold tongue.  It returns the profile as one array of
  rows ``(x_0, D, Y, D', Y')``, the layout of :func:`_solve_implicit`,
  which :mod:`tonguelab.tongue` also calls to solve points between the
  grid's.  Both carry eps per point, like ``x_0`` and the seed, so one
  batch solves the profiles of a whole eps sweep together.
* :func:`solve_orbit_fixed_delta` keeps the drift fixed and solves for
  the initial point ``(x_0, y_0)``; :func:`tonguelab.tongue.orbits_at`
  seeds it from the profile's roots.

One damped Newton iteration serves both, on any number of points at
once, each with its own ``(x0, y0, delta, eps)``: the Jacobian
degenerates at the saddle-node on the tongue boundary, where a plain
Newton step overshoots.  A fixed-delta orbit is
read off that iteration's final kernel pass: its states are the
pass's points, its residual the last ``(R, S)``, and its stability kind
the class of the monodromy trace, the monodromy being the identity plus
the jet's ``(x0, y0)`` block.  A profile point is read off it too: the
implicit solve returns, with ``D`` and ``Y``, their exact slopes
``(D', Y') = -J_(delta, y0)^{-1} J_x0`` from the final jet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cylmap import MapParams, PhaseState, RemainderPair, remainder_jet

# Residual threshold below which an orbit counts as converged.
TAU_NEWTON = 1e-12
# Half-width of the parabolic band around monodromy trace 2.
TAU_CLS = 1e-8
# Determinant threshold for reporting a singular Newton system.
TAU_SINGULAR = 1e-14

_MAX_DAMPING_HALVINGS = 20
# Newton steps a fixed-delta or implicit solve may take.
_MAX_NEWTON_ITERS = 50


class SingularJacobianError(RuntimeError):
    """Newton system became singular - typically right at a saddle-node."""


class ContinuationError(RuntimeError):
    """A grid sweep failed; carries the first failing angle."""

    def __init__(self, x0: float, eps: float, message: str = ""):
        super().__init__(message or f"continuation failed at x0={x0:.6f}, eps={eps:g}")
        self.x0 = x0
        self.eps = eps


@dataclass(frozen=True)
class PeriodicOrbit:
    """A converged p/q orbit: its q states, residual, and stability kind."""

    states: tuple[PhaseState, ...]
    residual: RemainderPair
    kind: str  # "center" | "saddle" | "parabolic"


def _kind(trace: float) -> str:
    """Stability from the monodromy trace t: center (|t| < 2), saddle
    (|t| > 2), parabolic inside the ``TAU_CLS`` band around |t| = 2."""
    if abs(trace) < 2.0 - TAU_CLS:
        return "center"
    if abs(trace) > 2.0 + TAU_CLS:
        return "saddle"
    return "parabolic"


# Per-point outcome of :func:`_newton`.
_ACTIVE, _CONVERGED, _FAILED, _SINGULAR = range(4)

# Unknown columns of the remainder Jacobian, in (x0, y0, delta) order.
_FIXED_DELTA = (0, 1)
_IMPLICIT = (2, 1)

# Finest eps ramp tried for a profile point.
_MAX_RAMP_SPLITS = 64


def _newton(u: np.ndarray, m: MapParams, unknowns: tuple[int, int],
            max_iter: int) -> tuple[np.ndarray, ...]:
    """Damped Newton on ``(R, S) = 0`` for a batch of points.

    ``u`` has shape ``(4, n)`` and holds ``(x0, y0, delta, eps)`` per
    point; the two rows named by ``unknowns`` are solved for, in place, and
    the others stay fixed; ``m`` gives the forcing and ``p/q``.  Each point
    follows the same rule on its own: it has converged once
    ``|res| < TAU_NEWTON``, stops when the Newton determinant is below
    ``TAU_SINGULAR``, and takes a step only when the residual drops,
    halving it at most ``_MAX_DAMPING_HALVINGS`` times; a non-finite
    residual fails it.  Returns each point's status, the
    number of Newton steps it took, and the kernel's ``res, jac, path``
    (:func:`~tonguelab.cylmap.remainder_jet`) at its final point.
    """
    i, j = unknowns
    res, jac, path = remainder_jet(*u, m, m.q)
    norm = np.hypot(res[0], res[1])
    status = np.full(u.shape[1], _ACTIVE)
    iterations = np.full(u.shape[1], max_iter)
    for it in range(max_iter):
        active = status == _ACTIVE
        done = active & (norm < TAU_NEWTON)
        failed = active & ~np.isfinite(norm)
        det = jac[0, i] * jac[1, j] - jac[0, j] * jac[1, i]
        singular = active & ~done & ~failed & (np.abs(det) < TAU_SINGULAR)
        status[done] = _CONVERGED
        status[failed] = _FAILED
        status[singular] = _SINGULAR
        iterations[done | failed | singular] = it
        todo = np.flatnonzero(status == _ACTIVE)
        if not todo.size:
            break
        # closed-form solve of the 2x2 Newton system for the step
        a, b, c, d = jac[0, i, todo], jac[0, j, todo], jac[1, i, todo], jac[1, j, todo]
        r, s = res[:, todo]
        step = np.array([b * s - d * r, c * r - a * s]) / det[todo]
        lam = np.ones(todo.size)
        for _ in range(_MAX_DAMPING_HALVINGS):
            trial = u[:, todo]
            trial[[i, j]] += lam * step
            t_res, t_jac, t_path = remainder_jet(*trial, m, m.q)
            t_norm = np.hypot(t_res[0], t_res[1])
            ok = (t_norm < norm[todo]) | (t_norm < TAU_NEWTON)
            take = todo[ok]
            u[:, take] = trial[:, ok]
            res[:, take], jac[..., take], norm[take] = t_res[:, ok], t_jac[..., ok], t_norm[ok]
            path[..., take] = t_path[..., ok]
            todo, step, lam = todo[~ok], step[:, ~ok], 0.5 * lam[~ok]
            if not todo.size:
                break
        status[todo], iterations[todo] = _FAILED, it
    active = status == _ACTIVE
    status[active] = np.where(norm[active] < TAU_NEWTON, _CONVERGED, _FAILED)
    return status, iterations, res, jac, path


def _orbit(res: np.ndarray, jac: np.ndarray, path: np.ndarray) -> PeriodicOrbit:
    """The orbit of a converged point from the Newton's final pass: its
    states are the points ``path``, its residual the remainders ``res``, its
    kind the class of the monodromy trace read off their Jacobian ``jac``."""
    states = tuple(PhaseState(x, y) for x, y in path.tolist())
    return PeriodicOrbit(states, RemainderPair(float(res[0]), float(res[1])),
                         _kind(2.0 + float(jac[0, 0] + jac[1, 1])))


def solve_orbit_fixed_delta(guess: PhaseState, m: MapParams) -> PeriodicOrbit | None:
    """Damped Newton on the periodicity conditions at fixed drift.

    Returns the converged orbit, or ``None`` when the iteration does not
    converge within ``_MAX_NEWTON_ITERS`` steps or diverges.  Raises
    :class:`SingularJacobianError` when the Newton system degenerates,
    which signals proximity to the saddle-node at the tongue edge.  The
    orbit's states, residual and kind come from the Newton's final pass
    (:func:`_orbit`).
    """
    u = np.array([[guess.x], [guess.y], [m.delta], [m.eps]])
    status, _, res, jac, path = _newton(u, m, _FIXED_DELTA, _MAX_NEWTON_ITERS)
    if status[0] == _SINGULAR:
        raise SingularJacobianError(
            f"periodicity Jacobian determinant below {TAU_SINGULAR:g}")
    if status[0] != _CONVERGED:
        return None
    return _orbit(res[:, 0], jac[..., 0], path[..., 0])


def _solve_implicit(x0, eps, m: MapParams, delta, y0) -> tuple[np.ndarray, ...]:
    """Batched Newton in ``(delta, y0)`` at fixed ``x0``; returns the
    profile rows ``(x0, D, Y, D', Y')`` of each point, whether it
    converged, and its iterations.  ``x0`` is a 1-D array of the points;
    ``eps`` and the seeds ``delta`` and ``y0`` are numbers or arrays like
    it, so the points of one batch may belong to profiles at different
    eps.  Every profile in the package is an array of these rows.  The
    slopes solve ``J_(delta, y0) (D', Y') = -J_x0`` on the final jet
    (implicit function theorem)."""
    x0 = np.asarray(x0, dtype=float)
    u = np.empty((4, x0.size))
    u[0], u[1], u[2], u[3] = x0, y0, delta, eps
    status, iterations, _, jac, _ = _newton(u, m, _IMPLICIT, _MAX_NEWTON_ITERS)
    (rx, ry, rd), (sx, sy, sd) = jac
    with np.errstate(divide="ignore", invalid="ignore"):
        det = rd * sy - ry * sd
        slopes = np.array([ry * sx - rx * sy, rx * sd - rd * sx]) / det
    return np.vstack([u[0], u[2], u[1], slopes]), status == _CONVERGED, iterations


def continue_in_x(eps, m: MapParams, grid_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Sample the drift profile ``D(x0, eps)`` on a uniform x0 grid over
    [0, 2 pi), for one eps or for each of a 1-D array of them at once.

    The grid has ``grid_size`` points, raised to ``8 q`` when smaller: the
    floor that every profile, tongue width and orbit search shares.
    Returns the rows ``(x0, D, Y, D', Y')`` of :func:`_solve_implicit`, of
    shape ``(5, n)`` for one eps and ``(5, E, n)`` for ``E`` of them, in
    grid order, and each point's Newton iterations in its last solve,
    shaped as the rows without their first axis.  One loop solves every
    point of every eps as an eps ramp from the unperturbed seed ``(0, 0)``,
    all in one batch, each ramp step seeded from the previous one.  Its
    first level is one step, the cold solve at the point's eps itself; the
    points that still fail get a ramp of twice as many steps, up to
    ``_MAX_RAMP_SPLITS``.  Each point's Newton runs on its own, so the
    batch does not change its values.  A point that fails at the finest
    ramp keeps its x0 and has NaN in the other rows; for one eps, the
    :class:`ContinuationError` names the first such point in grid order
    instead.
    """
    eps = np.asarray(eps, dtype=float)
    xs = np.linspace(0.0, 2.0 * math.pi, max(grid_size, 8 * m.q), endpoint=False)
    shape = eps.shape + xs.shape
    x, e = np.broadcast_to(xs, shape).ravel(), np.broadcast_to(eps[..., None], shape).ravel()
    pts, iterations = np.full((5, x.size), np.nan), np.empty(x.size, dtype=int)
    pts[0] = x
    ramp, splits = np.arange(x.size), 1
    while ramp.size and splits <= _MAX_RAMP_SPLITS:
        d = np.zeros((5, ramp.size))
        alive = np.ones(ramp.size, dtype=bool)
        for step in range(1, splits + 1):
            at = ramp[alive]
            d[:, alive], conv, its = _solve_implicit(
                x[at], e[at] * step / splits, m, d[1, alive], d[2, alive])
            iterations[at] = its
            alive[alive] = conv
            if not alive.any():
                break
        pts[:, ramp[alive]] = d[:, alive]
        ramp, splits = ramp[~alive], 2 * splits
    if ramp.size and not eps.ndim:
        raise ContinuationError(float(x[ramp[0]]), float(eps))
    return pts.reshape((5,) + shape), iterations.reshape(shape)
