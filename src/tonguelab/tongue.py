"""Tongue geometry: drift profiles, width measurement, and scaling fits.

The tongue at fixed eps is exactly the range of the drift profile
``delta = D(x0, eps)`` over one period: the profile is continuous, so an
orbit exists at a drift value iff it lies between the profile extrema.
Measuring the width as ``max - min`` of the profile turns existence
scanning into extremum finding, which stays well conditioned even when
the width is exponentially small.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cylmap import MapParams
from .orbits import TAU_NEWTON, ContinuationError, continue_in_x, solve_delta_y
from .trigpoly import range_extrema, reconstruct

# Samples thinner than this are excluded from scaling fits: their widths
# sit too close to the Newton residual floor to be trusted.
MIN_FIT_WIDTH = 1e3 * TAU_NEWTON

# Largest interpolant-vs-Newton gap at a profile extremum, relative to the
# width: the width is then low by about GAP_RTOL**2 of itself (see width_at).
GAP_RTOL = 1e-5
MAX_GRID = 1024  # width_at doubles its grid at most up to this size


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

    Interpolates the :func:`continue_in_x` profile's ``delta`` and ``y0``
    by trigonometric polynomials of degree ``(grid - 1) // 2`` and runs
    one :func:`solve_delta_y`, seeded from both, at each extremum of the
    ``delta`` interpolant; the grid extrema bound the results.  The
    Newton value at the interpolant's argmax is low by about
    ``gap**2 / width``, ``gap`` being the interpolant's miss there, and
    an aliasing profile misses by far more than a resolved one: the grid
    doubles until both gaps are within ``GAP_RTOL * width``, and past
    ``MAX_GRID`` :class:`ContinuationError` is raised.
    """
    if not m.coprime():
        raise ValueError(f"tongue analysis requires gcd(p, q) = 1, got p={m.p}, q={m.q}")
    if eps == 0.0:
        return TongueSample(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    while True:
        sols = continue_in_x(eps, m, grid)
        deltas = np.array([s.delta for s in sols])
        d_fit = reconstruct(deltas, (grid - 1) // 2)
        y_fit = reconstruct([s.y0 for s in sols], (grid - 1) // 2)
        hi, lo = (solve_delta_y(x, eps, m, seed=(d_fit(x), y_fit(x)))
                  for x in range_extrema(d_fit)[2:])
        for s in (hi, lo):
            if not s.converged:
                raise ContinuationError(s.x0, eps, "extremum solve failed to converge")
        d_hi, d_lo = max(hi.delta, deltas.max()), min(lo.delta, deltas.min())
        gap, x_gap = max((abs(d_fit(s.x0) - s.delta), s.x0) for s in (hi, lo))
        if gap <= GAP_RTOL * (d_hi - d_lo):
            return TongueSample(eps, d_hi - d_lo, d_hi, d_lo, hi.x0, lo.x0)
        if 2 * grid > MAX_GRID:
            raise ContinuationError(x_gap, eps, f"profile interpolant misses Newton by "
                                    f"{gap:.3g} at grid {grid}, width {d_hi - d_lo:.3g}")
        grid *= 2


def sweep(m: MapParams, eps_list, grid: int = 64) -> SweepResult:
    """One tongue sample per eps, ascending; failures are recorded and
    the sweep continues."""
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


def saddle_node_locus(m: MapParams, eps: float, grid: int = 64) -> tuple[float, float]:
    """Drift values where the center-saddle pair merges: the profile
    extrema, i.e. the tongue edges ``(delta_plus, delta_minus)``."""
    sample = width_at(m, eps, grid)
    return sample.delta_max, sample.delta_min
