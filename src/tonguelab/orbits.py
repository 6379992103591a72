"""Newton solvers for p/q periodic orbits.

Every solver here works on the same q-step equations ``(R, S) = 0``
(since ``q mu = 2 pi p`` they are also the periodicity conditions
``x_q - x_0 - 2 pi p = 0``, ``y_q - y_0 = 0``), with the residual and its
exact Jacobian from the one batched kernel
:func:`~tonguelab.cylmap.jet_pass`.  Two pairs of unknowns are used:

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

from .cylmap import MapParams, PhaseState, RemainderPair, jet_pass, jet_workspace

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
    (:func:`~tonguelab.cylmap.jet_pass`) at its final point.

    The full steps run on a working batch and its kernel workspace
    (:func:`~tonguelab.cylmap.jet_workspace`), built once: the points
    that have stopped step by 0, and a trial is accepted by masked copies
    (``np.copyto`` where the residual dropped) into the batch's arrays.
    The points whose full step is rejected are gathered, and their halved
    steps run as a batch of their own, on workspaces that share the
    constants.  Once at most half of the working batch is still active,
    its stopped points are written out and the batch shrinks to the
    active ones, with a workspace of that size.
    """
    i, j = unknowns
    ws = jet_workspace(m, m.q, (u.shape[1],))
    res, jac, path = (arr.copy() for arr in jet_pass(ws, *u))
    norm = np.hypot(res[0], res[1])
    status = np.full(u.shape[1], _ACTIVE)
    iterations = np.full(u.shape[1], max_iter)
    # the working batch is the points at `work` of these arrays (point axis
    # last); until the first compaction it is the arrays themselves
    full = batch = (u, res, jac, path, norm, status, iterations)
    work = None
    for it in range(max_iter):
        w_u, w_res, w_jac, w_path, w_norm, w_status, w_iter = batch
        active = w_status == _ACTIVE
        done = active & (w_norm < TAU_NEWTON)
        failed = active & ~np.isfinite(w_norm)
        det = w_jac[0, i] * w_jac[1, j] - w_jac[0, j] * w_jac[1, i]
        singular = active & ~done & ~failed & (np.abs(det) < TAU_SINGULAR)
        w_status[done] = _CONVERGED
        w_status[failed] = _FAILED
        w_status[singular] = _SINGULAR
        w_iter[done | failed | singular] = it
        active = w_status == _ACTIVE
        left = np.count_nonzero(active)
        if not left:
            break
        if 2 * left <= active.size:
            keep = np.flatnonzero(active)
            if work is not None:
                gone = ~active
                for to, arr in zip(full, batch):
                    to[..., work[gone]] = arr[..., gone]
            work = keep if work is None else work[keep]
            batch = tuple(arr[..., keep] for arr in batch)
            w_u, w_res, w_jac, w_path, w_norm, w_status, w_iter = batch
            det, active = det[keep], active[keep]
            ws = jet_workspace(m, m.q, (left,), ws)
        # closed-form solve of the 2x2 Newton system for the step
        a, b, c, d = w_jac[0, i], w_jac[0, j], w_jac[1, i], w_jac[1, j]
        r, s = w_res
        step = np.zeros((2, active.size))
        np.divide(np.array([b * s - d * r, c * r - a * s]), det, step, where=active)
        trial = w_u.copy()
        trial[i] += step[0]
        trial[j] += step[1]
        t_res, t_jac, t_path = jet_pass(ws, *trial)
        t_norm = np.hypot(t_res[0], t_res[1])
        ok = active & ((t_norm < w_norm) | (t_norm < TAU_NEWTON))
        for to, arr in ((w_u, trial), (w_res, t_res), (w_jac, t_jac), (w_path, t_path),
                        (w_norm, t_norm)):
            np.copyto(to, arr, where=ok)
        todo = np.flatnonzero(active & ~ok)
        step, lam = step[:, todo], np.full(todo.size, 0.5)
        for _ in range(_MAX_DAMPING_HALVINGS - 1):
            if not todo.size:
                break
            trial = w_u[:, todo]
            trial[[i, j]] += lam * step
            t_res, t_jac, t_path = jet_pass(jet_workspace(m, m.q, (todo.size,), ws), *trial)
            t_norm = np.hypot(t_res[0], t_res[1])
            ok = (t_norm < w_norm[todo]) | (t_norm < TAU_NEWTON)
            take = todo[ok]
            w_u[:, take] = trial[:, ok]
            w_res[:, take], w_jac[..., take] = t_res[:, ok], t_jac[..., ok]
            w_norm[take], w_path[..., take] = t_norm[ok], t_path[..., ok]
            todo, step, lam = todo[~ok], step[:, ~ok], 0.5 * lam[~ok]
        w_status[todo], w_iter[todo] = _FAILED, it
    w_u, w_res, w_jac, w_path, w_norm, w_status, w_iter = batch
    active = w_status == _ACTIVE
    w_status[active] = np.where(w_norm[active] < TAU_NEWTON, _CONVERGED, _FAILED)
    if work is not None:
        for to, arr in zip(full, batch):
            to[..., work] = arr
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
