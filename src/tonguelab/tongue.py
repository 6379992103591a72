"""Tongue geometry: drift profiles, widths, orbit search, and scaling fits.

The tongue at fixed eps is exactly the range of the drift profile
``delta = D(x0, eps)`` over one period: the profile is continuous, so an
orbit exists at a drift value iff it lies between the profile extrema.
Measuring the width as ``max - min`` of the profile turns existence
scanning into extremum finding, which stays well conditioned even when
the width is exponentially small.

Each profile point carries the exact slopes ``D'`` and ``Y'``: the edges
are zeros of ``D'``, and :func:`orbits_at` finds each point ``x_i`` of a
p/q orbit at drift ``delta`` as a root of ``D(x_i, eps) = delta``, with
``y_i = Y(x_i, eps)``, between two critical points, where ``D`` is monotone.
Both searches take one batched implicit Newton per pass, seeded by the
Taylor step ``(D + D' dx, Y + Y' dx)`` from a point already solved.  A
sweep over eps (:func:`sweep`) runs every pass once for all its eps: the
grid, the split cells and the secant passes of every eps share one batch,
points carry the index of their eps, and the edges are reduced per eps: a
point that failed stays a NaN row until then, and there fails its eps alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cylmap import MapParams, PhaseState
from .orbits import (TAU_NEWTON, ContinuationError, PeriodicOrbit, SingularJacobianError,
                     _solve_implicit, continue_in_x, solve_orbit_fixed_delta)

# Samples thinner than this are excluded from scaling fits: their widths
# sit too close to the Newton residual floor to be trusted.
MIN_FIT_WIDTH = 1e3 * TAU_NEWTON


class InsufficientDataError(RuntimeError):
    """Too few usable samples for a scaling fit."""


@dataclass(frozen=True)
class TongueSample:
    """Measured tongue cross-section at one eps."""

    eps: float
    width: float
    delta_max: float
    delta_min: float
    x_argmax: float
    x_argmin: float


@dataclass(frozen=True)
class ScalingFit:
    """Least-squares power law ``width ~ exp(log_prefactor) * eps^exponent``."""

    exponent: float
    log_prefactor: float
    residual: float
    eps_range: tuple[float, float]


@dataclass(frozen=True)
class SweepFailure:
    eps: float
    reason: str


@dataclass(frozen=True)
class SweepResult:
    samples: tuple[TongueSample, ...]
    failures: tuple[SweepFailure, ...]


def width_at(m: MapParams, eps, grid: int) -> TongueSample | SweepResult:
    """Measure the tongue cross-section at ``eps``, or at each eps of a tuple.

    Solves the :func:`continue_in_x` profile, with its exact slopes, on
    ``grid`` points, raised to its ``8 q`` floor.  A cell whose end slopes
    share a sign but whose cubic Hermite through ``(D, D')`` has two slope
    roots inside, at drifts more than ``TAU_NEWTON`` apart, is split at its
    midpoint, until none is.  Each sign change of ``D'`` then holds one
    critical point, found from the root of the cell's Hermite slope by
    secant passes on ``D'`` (:func:`_bracketed`).  The edges are the
    largest and smallest ``D`` over the grid and the critical points, each
    reported at the smallest x whose ``D`` is within ``TAU_NEWTON`` of it:
    every point of one p/q orbit has the same drift, so an edge is reached
    at several x that differ only by round-off.

    For one eps it returns the :class:`TongueSample`; for a tuple of eps
    every step above, from the grid to the last secant pass, solves the
    points of all eps in one batch, and it returns the :class:`SweepResult`.
    A point that fails stays a NaN row, its cells neither split nor
    bracketed, until the edges are reduced: its eps then fails with the
    :class:`ContinuationError` of its first such point in x (raised for
    one eps), and the others keep their samples.  Each point's Newton runs
    on its own, so every sample is the one that eps gives alone.
    """
    if isinstance(eps, tuple):
        outcomes = _profiles(m, eps, grid)[0]
        return SweepResult(
            tuple(o for o in outcomes if isinstance(o, TongueSample)),
            tuple(SweepFailure(e, str(o)) for e, o in zip(eps, outcomes)
                  if isinstance(o, ContinuationError)))
    return _profile(m, eps, grid)[0]


def _profile(m: MapParams, eps: float, grid: int
             ) -> tuple[TongueSample, np.ndarray, np.ndarray, int]:
    """:func:`_profiles` at one eps, whose :class:`ContinuationError` it
    raises."""
    (outcome,), pts, crit, grid = _profiles(m, (eps,), grid)
    if isinstance(outcome, ContinuationError):
        raise outcome
    return outcome, pts, crit, grid


def _profiles(m: MapParams, eps: tuple[float, ...], grid: int
              ) -> tuple[list[TongueSample | ContinuationError], np.ndarray, np.ndarray, int]:
    """The work of :func:`width_at` for every eps of ``eps`` at once: each
    eps's sample or error, every profile point solved and the critical
    points, and the grid size :func:`~tonguelab.orbits.continue_in_x` used.
    Points are the columns of rows ``(x, D, Y, D', Y', k)``, ``k`` the index
    of their eps, ordered by ``k``, then by ascending x over ``[0, 2 pi]``;
    a cell is two neighbouring points of one ``k``, and a failed point is
    NaN but in its x and ``k``."""
    if not m.coprime():
        raise ValueError(f"tongue analysis requires gcd(p, q) = 1, got p={m.p}, q={m.q}")
    eps_k = np.array(eps, dtype=float)
    grid_pts = continue_in_x(eps_k, m, grid)[0]
    grid = grid_pts.shape[2]
    # the grid starts at x = 0; a copy of its first point at 2 pi closes the period
    closing = grid_pts[:, :, :1] + np.reshape([2.0 * math.pi, 0.0, 0.0, 0.0, 0.0], (5, 1, 1))
    pts = np.vstack([np.concatenate([grid_pts, closing], axis=2).reshape(5, -1),
                     np.repeat(np.arange(eps_k.size, dtype=float), grid + 1)])
    while True:
        lo, hi = pts[:, :-1], pts[:, 1:]
        t1, t2, gap = _hermite_slope_roots(lo, hi)
        mid = 0.5 * (lo[0] + hi[0])
        # a hidden max/min pair closer than the Newton floor moves no edge
        split = ((lo[5] == hi[5]) & (lo[3] * hi[3] > 0) & (0 < t1) & (t2 < 1)
                 & (gap > TAU_NEWTON) & (lo[0] < mid) & (mid < hi[0]))
        if not split.any():
            break
        mid = _solve_at(mid[split], eps_k, m, lo[:, split], hi[:, split])
        pts = np.insert(pts, np.flatnonzero(split) + 1, mid, axis=1)
    # NaN >= 0 is False: without its guard a failed end reads as a sign change
    cell = np.flatnonzero((lo[5] == hi[5]) & ~np.isnan(lo[3]) & ~np.isnan(hi[3])
                          & ((lo[3] >= 0) != (hi[3] >= 0)))
    t = np.where(t1 >= 0, t1, t2)[cell]
    lo, hi = lo[:, cell], hi[:, cell]
    crit = _bracketed(eps_k, m, lo, hi, lo[0] + t * (hi[0] - lo[0]))
    pts = np.insert(pts, cell + 1, crit, axis=1)
    outcomes: list[TongueSample | ContinuationError] = []
    bounds = np.searchsorted(pts[5], np.arange(eps_k.size + 1), side="left")
    for k, e in enumerate(eps):
        x, d = pts[:2, bounds[k]:bounds[k + 1]]
        failed = np.isnan(d)
        if failed.any():
            outcomes.append(ContinuationError(float(x[failed.argmax()]), float(e)))
            continue
        d_hi, d_lo = d.max(), d.min()
        x_hi, x_lo = x[(d >= d_hi - TAU_NEWTON).argmax()], x[(d <= d_lo + TAU_NEWTON).argmax()]
        outcomes.append(TongueSample(e, *map(float, (d_hi - d_lo, d_hi, d_lo, x_hi, x_lo))))
    return outcomes, pts, crit, grid


def _hermite_slope_roots(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, ...]:
    """The roots ``t1 <= t2`` of the slope ``a t**2 + b t + c`` of the cubic
    Hermite through ``(D, D')`` at the ends of a cell of width ``h``, as
    fractions of it (NaN if complex), and the drift between them,
    ``|a| h (t2 - t1)**3 / 6``."""
    secant = (hi[1] - lo[1]) / (hi[0] - lo[0])
    a, b, c = 3.0 * (lo[3] + hi[3]) - 6.0 * secant, 6.0 * secant - 4.0 * lo[3] - 2.0 * hi[3], lo[3]
    with np.errstate(divide="ignore", invalid="ignore"):
        half = -0.5 * (b + np.copysign(np.sqrt(b * b - 4.0 * a * c), b))
        t1, t2 = np.sort([half / a, c / half], axis=0)
        return t1, t2, np.abs(a) * (hi[0] - lo[0]) * (t2 - t1) ** 3 / 6.0


def _solve_at(x: np.ndarray, eps: np.ndarray, m: MapParams, near: np.ndarray,
              far: np.ndarray) -> np.ndarray:
    """The points ``(x, D, Y, D', Y', k)`` at ``x`` by one batched implicit
    solve, each at the eps ``eps[k]`` of its seeds ``(..., k)``, seeded by
    the Taylor step ``(D + D' dx, Y + Y' dx)`` from the points ``near``; a
    point that fails, as past a fold where the profile jumps between
    branches of orbits, is solved again from ``far``.  A point that fails
    from both keeps its x and ``k`` and has NaN in the other rows."""
    out, todo = np.vstack([x, np.full((4, x.size), np.nan), near[5]]), np.arange(x.size)
    k = near[5].astype(int)
    for seed in (near, far):
        dx = x[todo] - seed[0, todo]
        sol, ok, _ = _solve_implicit(x[todo], eps[k[todo]], m,
                                     seed[1, todo] + seed[3, todo] * dx,
                                     seed[2, todo] + seed[4, todo] * dx)
        out[:5, todo[ok]] = sol[:, ok]
        todo = todo[~ok]
        if not todo.size:
            break
    return out


def _bracketed(eps: np.ndarray, m: MapParams, lo: np.ndarray, hi: np.ndarray, x: np.ndarray,
               level: float | None = None) -> np.ndarray:
    """The zeros inside the brackets ``[lo, hi]`` from the first points
    ``x``, one batched solve per pass (:func:`_solve_at`), seeded from the
    nearer bracket end:
    of ``D'`` by secant passes when ``level`` is None, until the next step
    has ``|D''| * step**2`` below ``TAU_NEWTON`` (``D''`` from the
    secant); else of ``D - level`` by Newton on the exact slope, the last
    pass a step below the solve's own x-resolution ``TAU_NEWTON / |D'|``.
    Until then a step out of the bracket goes to its midpoint; a bracket
    that cannot shrink, or whose point fails (a NaN zero), ends."""
    lo, hi, cur, last = lo.copy(), hi.copy(), np.empty_like(lo), np.zeros(x.size, bool)
    prev = np.where(x - lo[0] <= hi[0] - x, lo, hi)
    row, zero = (3, 0.0) if level is None else (1, level)
    todo = np.arange(x.size)
    while todo.size:
        far = np.where(prev[0, todo] == lo[0, todo], hi[:, todo], lo[:, todo])
        cur[:, todo] = _solve_at(x, eps, m, prev[:, todo], far)
        todo = todo[~last[todo] & ~np.isnan(cur[1, todo])]
        c, p = cur[:, todo], prev[:, todo]
        left = (c[row] >= zero) == (lo[row, todo] >= zero)
        lo[:, todo[left]], hi[:, todo[~left]] = c[:, left], c[:, ~left]
        with np.errstate(divide="ignore", invalid="ignore"):
            if level is None:
                curvature = (c[3] - p[3]) / (c[0] - p[0])
                step = -c[3] / curvature
                last[todo] = np.abs(curvature) * step * step < TAU_NEWTON
                # D there differs from D here by only |D''| step**2 / 2: stay
                step[last[todo]] = 0.0
            else:
                step = -(c[1] - level) / c[3]
                last[todo] = np.abs(step) < TAU_NEWTON / np.abs(c[3])
        a, b, x = lo[0, todo], hi[0, todo], c[0] + step
        inside, mid = (a < x) & (x < b), 0.5 * (a + b)
        take = inside | (~last[todo] & (a < mid) & (mid < b))
        prev[:, todo] = c
        todo, x = todo[take], np.where(inside, x, mid)[take]
    return cur


def orbits_at(m: MapParams, grid: int) -> tuple[list[PeriodicOrbit], TongueSample, int]:
    """Every p/q orbit at drift ``m.delta`` and strength ``m.eps``, the
    profile's cross-section (the evidence when there is none), and the grid.

    The profile is solved as in :func:`width_at`.  Inside its range, each
    root of ``D(x, eps) = delta`` lies between two consecutive points of
    the grid and the critical points, and Newton on the exact slope solves
    it there (see :func:`_bracketed`).  Walking the roots in order, each
    one that no orbit has reached yet seeds :func:`solve_orbit_fixed_delta`
    with ``(x_i, Y(x_i, eps))``, and the roots nearest that orbit's q
    states are its own.  At ``eps = 0`` and ``delta = 0`` each grid point
    gives one parabolic orbit, which meets the grid ``gcd(grid, q)`` times.
    """
    sample, pts, _, grid = _profile(m, m.eps, grid)
    if not sample.delta_min <= m.delta <= sample.delta_max:
        return [], sample, grid
    if m.eps == 0.0:
        xs = 2.0 * math.pi * np.arange(grid // math.gcd(grid, m.q)) / grid
        return [solve_orbit_fixed_delta(PhaseState(float(x), 0.0), m) for x in xs], sample, grid
    lo, hi = pts[:, :-1], pts[:, 1:]
    cross = (lo[1] >= m.delta) != (hi[1] >= m.delta)
    lo, hi = lo[:, cross], hi[:, cross]
    x = lo[0] + (m.delta - lo[1]) / (hi[1] - lo[1]) * (hi[0] - lo[0])
    roots = _bracketed(np.array([m.eps]), m, lo, hi, x, m.delta)
    failed = np.isnan(roots[1])
    if failed.any():
        raise ContinuationError(float(roots[0, failed.argmax()]), float(m.eps))
    xs, assigned, found = roots[0] % (2.0 * math.pi), np.zeros(roots.shape[1], bool), []
    for i in range(xs.size):
        if assigned[i]:
            continue
        try:
            orbit = solve_orbit_fixed_delta(PhaseState(float(xs[i]), float(roots[2, i])), m)
        except SingularJacobianError:
            continue
        if orbit is None:
            continue
        gaps = np.array([[s.x] for s in orbit.states]) - xs  # orbit points x roots
        nearest = np.argmin(np.abs((gaps + math.pi) % (2.0 * math.pi) - math.pi), axis=1)
        if not assigned[nearest].any():
            found.append(orbit)
        assigned[nearest] = True
    return found, sample, grid


def sweep(m: MapParams, eps_list, grid: int = 64) -> SweepResult:
    """One :func:`width_at` sample per eps, ascending, all eps solved in the
    same batches; an eps whose profile fails (:class:`ContinuationError`)
    is recorded as a failure and the others go on.  A list that is not
    ascending, or holds an eps that is not finite and >= 0, is a
    :class:`ValueError` before anything is solved."""
    eps_sorted = tuple(float(eps) for eps in eps_list)
    bad = [eps for eps in eps_sorted if not (math.isfinite(eps) and eps >= 0.0)]
    if bad:
        raise ValueError(f"eps must be finite and >= 0, got {', '.join(f'{e:g}' for e in bad)}")
    if list(eps_sorted) != sorted(eps_sorted):
        raise ValueError("eps_list must be sorted ascending")
    return width_at(m, eps_sorted, grid)


def fit_exponent(samples) -> ScalingFit:
    """Least squares on log(width) vs log(eps).

    Needs at least 5 samples whose width exceeds ``MIN_FIT_WIDTH``; the
    maximum log-log deviation is reported alongside the exponent, never
    hidden.
    """
    usable = [s for s in samples if s.width > MIN_FIT_WIDTH and s.eps > 0]
    if len(usable) < 5:
        raise InsufficientDataError(
            f"need >= 5 samples with width > {MIN_FIT_WIDTH:g}, have {len(usable)}")
    loge = np.log([s.eps for s in usable])
    logw = np.log([s.width for s in usable])
    slope, intercept = np.polyfit(loge, logw, 1)
    resid = float(np.max(np.abs(logw - (slope * loge + intercept))))
    return ScalingFit(float(slope), float(intercept), resid,
                      (float(min(s.eps for s in usable)), float(max(s.eps for s in usable))))
