"""Tongue geometry: drift profiles, widths, orbit search, and scaling fits.

The tongue at fixed eps is exactly the range of the drift profile
``delta = D(x0, eps)`` over one period: the profile is continuous, so an
orbit exists at a drift value iff it lies between the profile extrema.
Measuring the width as ``max - min`` of the profile turns existence
scanning into extremum finding, which stays well conditioned even when
the width is exponentially small.

:func:`orbits_at` puts the same fact to use: each point ``x_i`` of a p/q
orbit at drift ``delta`` is a root of ``D(x_i, eps) = delta``, with
``y_i = Y(x_i, eps)``, so the orbits are built from the profile's roots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cylmap import MapParams
from .orbits import (TAU_NEWTON, ContinuationError, PeriodicOrbit, _solve_implicit,
                     continue_in_x, solve_orbits_fixed_delta)
from .trigpoly import _SCAN_DENSITY, TrigPoly, _bisect, _critical_points, _scan, reconstruct

# Samples thinner than this are excluded from scaling fits: their widths
# sit too close to the Newton residual floor to be trusted.
MIN_FIT_WIDTH = 1e3 * TAU_NEWTON

# Largest interpolant-vs-Newton gap at a profile extremum, relative to the
# width: the width is then low by about GAP_RTOL**2 of itself (see width_at).
GAP_RTOL = 1e-5
MAX_GRID = 1024  # width_at doubles its grid at most up to this size

_ROOT_XTOL = 1e-12  # orbits_at bisects each root on the profile down to this width


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


def width_at(m: MapParams, eps: float, grid: int) -> TongueSample:
    """Measure the tongue cross-section at ``eps``.

    Interpolates the :func:`continue_in_x` profile's ``delta`` and ``y0``,
    on a grid raised to at least ``8 * q`` points, by trigonometric
    polynomials of degree ``(grid - 1) // 2`` and solves
    for ``(delta, y0)``, seeded from both, at every critical point of the
    ``delta`` interpolant in one batch; the largest and smallest of these
    Newton values, bounded by the grid extrema, are the edges.  The
    Newton value at the interpolant's argmax is low by about
    ``gap**2 / width``, ``gap`` being the interpolant's miss there, and
    an aliasing profile misses by far more than a resolved one: the grid
    doubles until the gaps at both edges are within ``GAP_RTOL * width``,
    and past ``MAX_GRID`` :class:`ContinuationError` is raised.
    """
    return _resolved_profile(m, eps, grid)[0]


def _resolved_profile(m: MapParams, eps: float, grid: int
                      ) -> tuple[TongueSample, TrigPoly, TrigPoly, np.ndarray, np.ndarray, int]:
    """The loop of :func:`width_at`: its sample, the ``delta`` and ``y0``
    interpolants of the profile, the critical points of the ``delta``
    interpolant with the profile's Newton ``delta`` there, and the grid
    that resolved it, which starts at ``max(grid, 8 * q)``."""
    if not m.coprime():
        raise ValueError(f"tongue analysis requires gcd(p, q) = 1, got p={m.p}, q={m.q}")
    grid = max(grid, 8 * m.q)
    if eps == 0.0:
        none = np.zeros(0)
        return (TongueSample(0.0, 0.0, 0.0, 0.0, 0.0, 0.0), TrigPoly.zero(), TrigPoly.zero(),
                none, none, grid)
    while True:
        sols = continue_in_x(eps, m, grid)
        deltas = np.array([s.delta for s in sols])
        d_fit = reconstruct(deltas, (grid - 1) // 2)
        y_fit = reconstruct([s.y0 for s in sols], (grid - 1) // 2)
        crit = _critical_points(d_fit, _SCAN_DENSITY * (d_fit.capacity + 1))
        if not crit.size:  # a flat interpolant: 0 stands for its critical points
            crit = np.zeros(1)
        d_crit = _on_profile(crit, eps, m, d_fit, y_fit)[0]
        ext = [d_crit.argmax(), d_crit.argmin()]
        x_ext, d_ext = crit[ext], d_crit[ext]
        d_hi, d_lo = float(max(d_ext[0], deltas.max())), float(min(d_ext[1], deltas.min()))
        gaps = np.abs(d_fit(x_ext) - d_ext)
        if gaps.max() <= GAP_RTOL * (d_hi - d_lo):
            sample = TongueSample(eps, d_hi - d_lo, d_hi, d_lo, *map(float, x_ext))
            return sample, d_fit, y_fit, crit, d_crit, grid
        if 2 * grid > MAX_GRID:
            raise ContinuationError(float(x_ext[gaps.argmax()]), eps,
                                    f"profile interpolant misses Newton by {gaps.max():.3g} "
                                    f"at grid {grid}, width {d_hi - d_lo:.3g}")
        grid *= 2


def _on_profile(x: np.ndarray, eps: float, m: MapParams, d_fit: TrigPoly,
                y_fit: TrigPoly) -> tuple[np.ndarray, np.ndarray]:
    """``D(x, eps)`` and ``Y(x, eps)`` by one batched implicit solve seeded
    from the interpolants."""
    delta, y0, ok, _ = _solve_implicit(x, eps, m, d_fit(x), y_fit(x))
    if not ok.all():
        raise ContinuationError(float(x[~ok][0]), eps, "profile solve failed to converge")
    return delta, y0


def orbits_at(m: MapParams, grid: int) -> tuple[list[PeriodicOrbit], TongueSample, int]:
    """Every p/q orbit at drift ``m.delta`` and strength ``m.eps``, the
    profile's cross-section (the evidence when there is none), and the grid.

    The profile is resolved as in :func:`width_at`.  Inside its range,
    each root ``x_i`` of ``D(x_i, eps) = delta`` seeds
    :func:`solve_orbits_fixed_delta` with ``(x_i, Y(x_i, eps))``, and
    orbits through the same roots are one.  At ``eps = 0`` and
    ``delta = 0`` each grid point gives one parabolic orbit.
    """
    sample, d_fit, y_fit, crit, d_crit, grid = _resolved_profile(m, m.eps, grid)
    if not sample.delta_min <= m.delta <= sample.delta_max:
        return [], sample, grid
    if m.eps == 0.0:
        roots, ys = np.linspace(0.0, 2.0 * math.pi, grid, endpoint=False), np.zeros(grid)
    else:
        # the critical points join the scan with their Newton values, since
        # a pair of roots near an extremum can sit inside one scan cell
        n = _SCAN_DENSITY * (d_fit.capacity + 1)
        x = np.concatenate([2.0 * math.pi * np.arange(n) / n, crit])
        v = np.concatenate([_scan(d_fit, n), d_crit])
        order = np.argsort(x, kind="stable")
        roots = _bisect(lambda z: _on_profile(z, m.eps, m, d_fit, y_fit)[0] - m.delta,
                        x[order], v[order] - m.delta, _ROOT_XTOL)
        ys = _on_profile(roots, m.eps, m, d_fit, y_fit)[1]
    found = solve_orbits_fixed_delta(np.column_stack([roots, ys]), m) if roots.size else []
    unique: dict[frozenset, PeriodicOrbit] = {}
    for orbit in filter(None, found):
        gaps = np.array([[s.x] for s in orbit.states]) - roots  # orbit points x roots
        nearest = np.argmin(np.abs((gaps + math.pi) % (2.0 * math.pi) - math.pi), axis=1)
        unique.setdefault(frozenset(nearest.tolist()), orbit)
    return list(unique.values()), sample, grid


def sweep(m: MapParams, eps_list, grid: int = 64) -> SweepResult:
    """One :func:`width_at` sample per eps, ascending; failures are
    recorded and the sweep continues."""
    eps_sorted = list(eps_list)
    if eps_sorted != sorted(eps_sorted):
        raise ValueError("eps_list must be sorted ascending")
    samples: list[TongueSample] = []
    failures: list[SweepFailure] = []
    for eps in eps_sorted:
        try:
            samples.append(width_at(m, float(eps), grid))
        except (ContinuationError, ValueError) as exc:
            failures.append(SweepFailure(float(eps), str(exc)))
    return SweepResult(tuple(samples), tuple(failures))


def fit_exponent(samples, min_width: float = MIN_FIT_WIDTH) -> ScalingFit:
    """Least squares on log(width) vs log(eps).

    Needs at least 5 samples whose width exceeds ``min_width``; the
    maximum log-log deviation is reported alongside the exponent, never
    hidden.
    """
    usable = [s for s in samples if s.width > min_width and s.eps > 0]
    if len(usable) < 5:
        raise InsufficientDataError(
            f"need >= 5 samples with width > {min_width:g}, have {len(usable)}")
    loge = np.log([s.eps for s in usable])
    logw = np.log([s.width for s in usable])
    slope, intercept = np.polyfit(loge, logw, 1)
    resid = float(np.max(np.abs(logw - (slope * loge + intercept))))
    return ScalingFit(float(slope), float(intercept), resid,
                      (float(min(s.eps for s in usable)), float(max(s.eps for s in usable))))
