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
The values of every ``D_n`` and ``Y_n`` go through one real FFT, and
each order keeps the ``n deg f`` harmonics its structure allows as a
:class:`~tonguelab.trigpoly.TrigPoly`.

The leading x-dependent index ``r`` (first n with a non-constant ``D_n``)
controls the tongue width, which scales like ``eps^r``; it and the
constants before it are read off the matrix of ``D_n`` coefficients in
one pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cylmap import MapParams
from .trigpoly import TrigPoly, product, range_extrema, sample_coeffs, shift_sums

# A coefficient D_n counts as constant when every harmonic above 0 is
# below this tolerance times the coefficient's largest entry, or below
# the round-off of the sums that make D_n (SeriesSolution.roundoff),
# whichever is larger; the two together separate structural zeros from
# round-off.  Both scale with D_n, so scaling f (which only rescales
# eps) leaves r where it is.
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

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, n: int) -> TrigPoly:
        return self.coeffs[n]

    def mul(self, other: "EpsSeries") -> "EpsSeries":
        n = min(self.order, other.order)
        out = [TrigPoly.zero() for _ in range(n + 1)]
        for i, ci in enumerate(self.coeffs[:n + 1]):
            if ci.coeff_norm() == 0.0:
                continue
            for j in range(n + 1 - i):
                cj = other.coeffs[j]
                if cj.coeff_norm() == 0.0:
                    continue
                out[i + j] = out[i + j] + product(ci, cj)
        return EpsSeries(out)

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


@dataclass(frozen=True)
class SeriesSolution:
    """The solved expansions plus the detected leading structure.

    ``r`` is the first order whose drift coefficient depends on x
    (``None`` when every computed coefficient is constant), and
    ``a_coeffs[n]`` is the constant part of the drift coefficient at
    order ``n < r``: together they give
    ``D(x, eps) = A(eps) + D_r(x) eps^r + O(eps^{r+1})``.

    ``roundoff[n]`` bounds the rounding in the harmonics of ``D_n``:
    ``D_n`` is a sum of q values of the forcing jet, and at the small
    divisors of ``mu = 2 pi p/q`` those values grow far larger than
    ``D_n`` itself (at q = 12, p = 1 to about 1e7 at order 11, where
    ``D_11`` is zero by structure), so its rounding is the largest summed
    value times q times the machine epsilon, not a fraction of ``D_n``.
    """

    params: MapParams
    order: int
    delta: EpsSeries
    y: EpsSeries
    r: int | None
    a_coeffs: np.ndarray
    roundoff: np.ndarray

    def to_dict(self) -> dict:
        return {
            "q": self.params.q,
            "p": self.params.p,
            "N": self.order,
            "r": self.r,
            "Delta": self.delta.to_list(),
            "Y": self.y.to_list(),
        }


def _harmonic_tol(norm, roundoff):
    """Below this a harmonic of a coefficient whose largest entry is
    ``norm`` is round-off: ``R_DETECT_TOL`` relative to that size, or the
    round-off of the sums it came from; elementwise on arrays."""
    return np.maximum(R_DETECT_TOL * norm, roundoff)


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
    ik = 1j * np.arange(1, d + 1)[:, None, None]
    # f(theta + xi) = a_0 + Re sum_k (a_k - i b_k) e^{ik theta} W_k with
    # W_k = exp(ik xi), so only W_k needs the eps-jet of xi.
    phase = ((m.f.cos_coeffs[1:] - 1j * m.f.sin_coeffs)[:, None, None]
             * np.exp(ik * theta))

    xi = np.zeros((order + 1, q, n_pts))
    w = np.zeros((order, d, q, n_pts), dtype=complex)
    w[0] = 1.0
    i = np.arange(1, q)[:, None]
    tri = i * (i + 1) / 2.0
    ms = np.arange(1, order)[:, None, None]
    ulp = np.finfo(float).eps
    # the values of D_n and Y_n, n = 1..order
    vals = np.zeros((2, order, n_pts))
    roundoff = np.zeros(order + 1)
    f_prev = m.f.eval(theta)
    for n in range(1, order + 1):
        if n > 1:
            # W_j = (ik/j) sum_{m=1..j} m xi_m W_{j-m}, with j = n - 1
            j = n - 1
            mxi = ms[:j] * xi[1:n]
            w[j] = (ik / j) * np.einsum("mqx,mkqx->kqx", mxi, w[j - 1::-1])
            f_prev = (phase * w[j]).real.sum(axis=0)
        # g_i = -D_n - F_{i,n-1}; the D,Y-free parts of eta_1..eta_q and
        # xi_1..xi_q are its running sums, and S = R = 0 fixes (D_n, Y_n).
        eta = -np.cumsum(f_prev, axis=0)
        roundoff[n] = q * ulp * float(np.max(np.abs(f_prev)))
        x = np.cumsum(eta, axis=0)
        dn = eta[-1] / q
        yn = (q + 1) / 2.0 * dn - x[-1] / q
        vals[0, n - 1], vals[1, n - 1] = dn, yn
        xi[n, 1:] = x[:-1] + i * yn - tri * dn

    # one FFT for every order of D and Y; order n keeps its n d harmonics
    a, b = sample_coeffs(vals, order * d)
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("coefficients must be finite")
    cap = d * np.arange(1, order + 1)

    def from_coeffs(part):
        return EpsSeries([TrigPoly.zero()]
                         + [TrigPoly._from_arrays(a[part, n, :c + 1], b[part, n, :c + 1])
                            for n, c in enumerate(cap)])

    delta, y = from_coeffs(0), from_coeffs(1)

    # TrigPoly.degree(_harmonic_tol(norm, roundoff)) > 0 for every D_n at
    # once, each row cut to the n d harmonics D_n holds
    mag = np.maximum(np.abs(a[0]), np.abs(b[0]))
    mag[np.arange(order * d + 1) > cap[:, None]] = 0.0
    tol = _harmonic_tol(mag.max(axis=1), roundoff[1:])
    varies = np.flatnonzero((mag[:, 1:] > tol[:, None]).any(axis=1))
    r = int(varies[0]) + 1 if len(varies) else None
    upto = r if r is not None else order + 1
    a_coeffs = np.concatenate([[0.0], a[0, :upto - 1, 0]])
    return SeriesSolution(m, order, delta, y, r, a_coeffs, roundoff)


@dataclass(frozen=True)
class FirstOrderReport:
    """Coefficient-wise comparison of the order-1 solution against the
    closed forms built from the shift averages of f."""

    delta1_error: float
    y1_error: float

    @property
    def max_error(self) -> float:
        return max(self.delta1_error, self.y1_error)


def verify_first_order(sol: SeriesSolution) -> FirstOrderReport:
    """Check ``D_1 = -avg`` and ``Y_1 = -(q+1)/2 avg + wavg`` where avg and
    wavg are the plain and weighted shift averages of f over mu.  Both are
    sums of the shifts ``f(x + k mu)``, with weights ``-1/q`` and
    ``(q - k - (q+1)/2)/q``, so one product gives them."""
    m = sol.params
    q = m.q
    weights = np.stack([np.full(q, -1.0), q - np.arange(q) - (q + 1) / 2.0]) / q
    a, b = shift_sums(m.f, weights, m.mu)
    return FirstOrderReport(
        delta1_error=sol.delta.coeff(1).coeff_distance(TrigPoly._from_arrays(a[0], b[0])),
        y1_error=sol.y.coeff(1).coeff_distance(TrigPoly._from_arrays(a[1], b[1])),
    )


@dataclass(frozen=True)
class PeriodicityReport:
    """Invariance of the leading x-dependent coefficient under the shift
    by mu, and its harmonic support.  ``residual_tol`` is what round-off
    allows the shift residual: 1e-10 of ``norm``, or twice the coefficient's
    round-off (a harmonic off the support moves by up to twice its size
    under the shift)."""

    r: int
    shift_residual: float
    norm: float
    support: frozenset[int]
    support_multiples_of_q: bool
    residual_tol: float

    @property
    def passed(self) -> bool:
        return self.shift_residual < self.residual_tol and self.support_multiples_of_q


def verify_periodicity(sol: SeriesSolution) -> PeriodicityReport:
    """Check ``D_r(x + mu) = D_r(x)``; with gcd(p, q) = 1 this is the same
    as the support of D_r containing only multiples of q."""
    if sol.r is None:
        raise LeadingIndexNotFound(
            f"no x-dependent coefficient through order {sol.order}")
    dr = sol.delta.coeff(sol.r)
    norm = dr.coeff_norm()
    residual = dr.shift(sol.params.mu).coeff_distance(dr)
    support = dr.support(float(_harmonic_tol(norm, sol.roundoff[sol.r])))
    return PeriodicityReport(
        r=sol.r,
        shift_residual=residual,
        norm=norm,
        support=frozenset(support),
        support_multiples_of_q=all(k % sol.params.q == 0 for k in support),
        residual_tol=max(1e-10 * norm, 2.0 * float(sol.roundoff[sol.r])),
    )


def predicted_width(sol: SeriesSolution, eps: float) -> float:
    """Leading-order tongue width ``range(D_r) * eps^r``."""
    if sol.r is None:
        raise LeadingIndexNotFound(
            f"no x-dependent coefficient through order {sol.order}; "
            "raise the expansion order")
    hi, lo, _, _ = range_extrema(sol.delta.coeff(sol.r))
    return (hi - lo) * eps ** sol.r
