"""Order-by-order expansion of the implicit drift and momentum functions.

The drift and momentum that make the orbit through ``(x0, Y)`` p/q
periodic admit power series in the perturbation strength,

    D(x0, eps) = D_1(x0) eps + D_2(x0) eps^2 + ...
    Y(x0, eps) = Y_1(x0) eps + Y_2(x0) eps^2 + ...

whose coefficients are trigonometric polynomials in ``x0`` with
``deg D_n, deg Y_n <= n * deg f``.  This module computes them in
collocation form: every quantity is held by its values at M > 2 N deg f
equispaced ``x0``, so shifts by ``i mu`` are evaluations and products are
pointwise.  The orbit deviations ``xi_i`` (i < q) are eps-jets of shape
``(N+1, q, M)``, and ``f(x0 + i mu + xi_i)`` is composed through the
exponential recurrence ``W_n = (ik/n) sum_m m xi_m W_{n-m}`` for
``W = exp(ik xi)``, one harmonic k of f at a time.

The sweep over the orders is "relaxed" (van der Hoeven, *Relax, but
don't be too lazy*, JSC 2002): the kick at order n, ``g_{i,n} = -D_n -
F_{i,n-1}``, needs only orders below n, so one pass over the q states
gives the D,Y-free parts of the remainders (S, R) as running sums.  The
unknown pair enters affinely, ``S = -q D_n + ...`` and ``R = q Y_n -
q(q+1)/2 D_n + ...``, so ``D_n`` and ``Y_n`` follow pointwise and the
deviations get the affine response ``xi_i += i Y_n - i(i+1)/2 D_n``.
Each ``D_n``, ``Y_n`` is turned into a :class:`~tonguelab.trigpoly.TrigPoly`
once, by FFT.

The leading x-dependent index ``r`` (first n with a non-constant ``D_n``)
controls the tongue width, which scales like ``eps^r``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cylmap import MapParams
from .trigpoly import (TrigPoly, product, range_extrema, reconstruct, shift_average,
                       weighted_shift_average)

# A coefficient D_n counts as constant when every harmonic above 0 is
# below this tolerance relative to the coefficient's own size; the
# relative form separates structural zeros from round-off.
R_DETECT_TOL = 1e-10


class LeadingIndexNotFound(RuntimeError):
    """No x-dependent coefficient was detected up to the computed order."""


class EpsSeries:
    """Truncated power series in eps with TrigPoly coefficients; the form
    in which :func:`expand` returns ``D`` and ``Y``."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = tuple(coeffs)
        if not self.coeffs:
            raise ValueError("a series needs at least the constant term")

    @classmethod
    def zero(cls, order: int) -> "EpsSeries":
        z = TrigPoly.zero()
        return cls([z] * (order + 1))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, n: int) -> TrigPoly:
        return self.coeffs[n]

    def truncated(self, order: int) -> "EpsSeries":
        if order >= self.order:
            z = TrigPoly.zero()
            return EpsSeries(self.coeffs + (z,) * (order - self.order))
        return EpsSeries(self.coeffs[:order + 1])

    def with_coeff(self, n: int, poly: TrigPoly) -> "EpsSeries":
        c = list(self.coeffs)
        c[n] = poly
        return EpsSeries(c)

    def mul(self, other: "EpsSeries", max_degree: int | None = None) -> "EpsSeries":
        n = min(self.order, other.order)
        out = [TrigPoly.zero() for _ in range(n + 1)]
        for i, ci in enumerate(self.coeffs[:n + 1]):
            if ci.coeff_norm() == 0.0:
                continue
            for j in range(n + 1 - i):
                cj = other.coeffs[j]
                if cj.coeff_norm() == 0.0:
                    continue
                out[i + j] = out[i + j] + product(ci, cj, max_degree=max_degree)
        return EpsSeries(out)

    def __mul__(self, other):
        if isinstance(other, EpsSeries):
            return self.mul(other)
        return NotImplemented

    def eval(self, x, eps: float):
        """Sum of ``coeff_n(x) * eps^n`` over the stored orders."""
        acc = 0.0
        epow = 1.0
        for c in self.coeffs:
            acc = acc + c.eval(x) * epow
            epow *= eps
        return acc

    def to_list(self) -> list[dict]:
        return [c.to_dict() for c in self.coeffs]


def eval_series(s: EpsSeries, x, eps: float):
    """Module-level alias for :meth:`EpsSeries.eval`."""
    return s.eval(x, eps)


@dataclass(frozen=True)
class SeriesSolution:
    """The solved expansions plus the detected leading structure.

    ``r`` is the first order whose drift coefficient depends on x
    (``None`` when every computed coefficient is constant), and
    ``a_coeffs[n]`` is the constant part of the drift coefficient at
    order ``n < r``: together they give
    ``D(x, eps) = A(eps) + D_r(x) eps^r + O(eps^{r+1})``.
    """

    params: MapParams
    order: int
    delta: EpsSeries
    y: EpsSeries
    r: int | None
    a_coeffs: np.ndarray

    def to_dict(self) -> dict:
        return {
            "q": self.params.q,
            "p": self.params.p,
            "N": self.order,
            "r": self.r,
            "Delta": self.delta.to_list(),
            "Y": self.y.to_list(),
        }


def _is_constant(poly: TrigPoly) -> bool:
    mag = np.maximum(np.abs(poly.cos_coeffs), np.abs(np.concatenate([[0.0], poly.sin_coeffs])))
    if len(mag) <= 1:
        return True
    return bool(np.max(mag[1:]) <= R_DETECT_TOL * (1.0 + poly.coeff_norm()))


def expand(m: MapParams, order: int) -> SeriesSolution:
    """Solve the vanishing-remainder equations through ``eps^order``.

    Requires ``gcd(p, q) = 1``.  ``D_n`` and ``Y_n`` are returned with
    capacity ``n * d`` for the stored degree d of f, the degree their
    polynomial structure allows.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if not m.coprime():
        raise ValueError(f"series expansion requires gcd(p, q) = 1, got p={m.p}, q={m.q}")
    q = m.q
    # the stored degree, so that no harmonic of f aliases on the grid
    d = m.f.capacity
    n_pts = 2 * order * d + 2
    x0 = np.linspace(0.0, 2.0 * math.pi, n_pts, endpoint=False)
    theta = x0 + m.mu * np.arange(q)[:, None]
    k = np.arange(1, d + 1)[:, None, None]
    # f(theta + xi) = a_0 + Re sum_k (a_k - i b_k) e^{ik theta} W_k with
    # W_k = exp(ik xi), so only W_k needs the eps-jet of xi.
    phase = ((m.f.cos_coeffs[1:] - 1j * m.f.sin_coeffs)[:, None, None]
             * np.exp(1j * k * theta))

    xi = np.zeros((order + 1, q, n_pts))
    w = np.zeros((order, d, q, n_pts), dtype=complex)
    w[0] = 1.0
    i = np.arange(1, q)[:, None]
    delta_vals = np.zeros((order + 1, n_pts))
    y_vals = np.zeros((order + 1, n_pts))
    f_prev = m.f.eval(theta)
    for n in range(1, order + 1):
        if n > 1:
            # W_j = (ik/j) sum_{m=1..j} m xi_m W_{j-m}, with j = n - 1
            j = n - 1
            mxi = np.arange(1, n)[:, None, None] * xi[1:n]
            w[j] = (1j * k / j) * np.einsum("mqx,mkqx->kqx", mxi, w[j - 1::-1])
            f_prev = (phase * w[j]).real.sum(axis=0)
        # g_i = -D_n - F_{i,n-1}; the D,Y-free parts of eta_1..eta_q and
        # xi_1..xi_q are its running sums, and S = R = 0 fixes (D_n, Y_n).
        eta = -np.cumsum(f_prev, axis=0)
        x = np.cumsum(eta, axis=0)
        dn = eta[-1] / q
        yn = (q + 1) / 2.0 * dn - x[-1] / q
        delta_vals[n], y_vals[n] = dn, yn
        xi[n, 1:] = x[:-1] + i * yn - i * (i + 1) / 2.0 * dn

    def from_values(vals):
        return EpsSeries([TrigPoly.zero()]
                         + [reconstruct(vals[n], n * d) for n in range(1, order + 1)])

    delta, y = from_values(delta_vals), from_values(y_vals)

    r = None
    for n in range(1, order + 1):
        if not _is_constant(delta.coeff(n)):
            r = n
            break
    upto = r if r is not None else order + 1
    a_coeffs = np.array([float(delta.coeff(n).cos_coeffs[0]) for n in range(upto)])
    return SeriesSolution(m, order, delta, y, r, a_coeffs)


@dataclass(frozen=True)
class FirstOrderReport:
    """Coefficient-wise comparison of the order-1 solution against the
    closed forms built from the shift averages of f."""

    delta1_error: float
    y1_error: float

    @property
    def max_error(self) -> float:
        return max(self.delta1_error, self.y1_error)


def verify_first_order(sol: SeriesSolution, m: MapParams) -> FirstOrderReport:
    """Check ``D_1 = -avg`` and ``Y_1 = -(q+1)/2 avg + wavg`` where avg and
    wavg are the plain and weighted shift averages of f over mu."""
    fbar = shift_average(m.f, m.q, m.mu)
    fbarbar = weighted_shift_average(m.f, m.q, m.mu)
    d1_expected = -fbar
    y1_expected = fbar * (-(m.q + 1) / 2.0) + fbarbar
    return FirstOrderReport(
        delta1_error=sol.delta.coeff(1).coeff_distance(d1_expected),
        y1_error=sol.y.coeff(1).coeff_distance(y1_expected),
    )


@dataclass(frozen=True)
class PeriodicityReport:
    """Invariance of the leading x-dependent coefficient under the shift
    by mu, and its harmonic support."""

    r: int
    shift_residual: float
    norm: float
    support: frozenset[int]
    support_multiples_of_q: bool

    @property
    def passed(self) -> bool:
        return (self.shift_residual < 1e-10 * self.norm
                and self.support_multiples_of_q)


def verify_periodicity(sol: SeriesSolution, m: MapParams) -> PeriodicityReport:
    """Check ``D_r(x + mu) = D_r(x)``; with gcd(p, q) = 1 this is the same
    as the support of D_r containing only multiples of q."""
    if sol.r is None:
        raise LeadingIndexNotFound(
            f"no x-dependent coefficient through order {sol.order}")
    dr = sol.delta.coeff(sol.r)
    norm = dr.coeff_norm()
    residual = dr.shift(m.mu).coeff_distance(dr)
    support = dr.support(R_DETECT_TOL * (1.0 + norm))
    return PeriodicityReport(
        r=sol.r,
        shift_residual=residual,
        norm=norm,
        support=frozenset(support),
        support_multiples_of_q=all(k % m.q == 0 for k in support),
    )


def predicted_width(sol: SeriesSolution, eps: float) -> float:
    """Leading-order tongue width ``range(D_r) * eps^r``."""
    if sol.r is None:
        raise LeadingIndexNotFound(
            f"no x-dependent coefficient through order {sol.order}; "
            "raise the expansion order")
    hi, lo, _, _ = range_extrema(sol.delta.coeff(sol.r))
    return (hi - lo) * eps ** sol.r
