"""Tongue geometry: drift profiles, width measurement, and scaling fits.

The tongue at fixed eps is exactly the range of the drift profile
``delta = D(x0, eps)`` over one period: the profile is continuous, so an
orbit exists at a drift value iff it lies between the profile extrema.
Measuring the width as ``max - min`` of the profile turns existence
scanning into extremum finding, which stays well conditioned even when
the width is exponentially small.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar

from .cylmap import MapParams
from .orbits import TAU_NEWTON, ContinuationError, ImplicitSolution, continue_in_x, solve_delta_y

# Samples thinner than this are excluded from scaling fits: their widths
# sit too close to the Newton residual floor to be trusted.
MIN_FIT_WIDTH = 1e3 * TAU_NEWTON

# Default eps window for scaling fits; trim the low end further whenever
# widths fall below MIN_FIT_WIDTH.
DEFAULT_FIT_WINDOW = (0.05, 0.4)


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


def _refine_extremum(m: MapParams, eps: float, point: ImplicitSolution,
                     halfwidth: float, sign: float) -> tuple[float, float]:
    """Polish one profile extremum by bounded parabolic minimization of
    ``-sign * delta(x0)`` within ``halfwidth`` of the grid point ``point``;
    every evaluation is a Newton solve seeded from that grid point."""
    def eval_delta(x0: float) -> float:
        sol = solve_delta_y(x0, eps, m, seed=(point.delta, point.y0))
        if not sol.converged:
            raise ContinuationError(x0, eps, "extremum refinement failed to converge")
        return sol.delta

    res = minimize_scalar(lambda x: -sign * eval_delta(x),
                          bounds=(point.x0 - halfwidth, point.x0 + halfwidth),
                          method="bounded",
                          options={"xatol": 1e-9})
    x_star = float(res.x)
    return x_star % (2.0 * math.pi), float(eval_delta(x_star))


def width_at(m: MapParams, eps: float, grid: int) -> TongueSample:
    """Measure the tongue cross-section at ``eps``.

    Takes the drift profile on ``grid`` points from :func:`continue_in_x`,
    then polishes its maximum and minimum within one grid step of the best
    grid point (see :func:`_refine_extremum`).
    """
    if not m.coprime():
        raise ValueError(f"tongue analysis requires gcd(p, q) = 1, got p={m.p}, q={m.q}")
    if eps == 0.0:
        return TongueSample(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)

    sols = continue_in_x(eps, m, grid)
    deltas = np.array([s.delta for s in sols])
    h = 2.0 * math.pi / grid
    hi, lo = sols[int(np.argmax(deltas))], sols[int(np.argmin(deltas))]
    x_hi, d_hi = _refine_extremum(m, eps, hi, h, +1.0)
    x_lo, d_lo = _refine_extremum(m, eps, lo, h, -1.0)
    d_hi = max(d_hi, hi.delta)
    d_lo = min(d_lo, lo.delta)
    return TongueSample(eps, d_hi - d_lo, d_hi, d_lo, x_hi, x_lo)


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
