"""Arithmetic on real trigonometric polynomials.

A polynomial is kept as two real coefficient arrays,

    P(x) = a_0 + sum_k (a_k cos kx + b_k sin kx),     1 <= k <= D,

where ``D`` is the nominal capacity of the arrays.  All quantities stay
real; no complex exponential representation is used internally, so no
spurious imaginary round-off can leak into coefficients.  Values are
immutable after construction and every operation returns a new
:class:`TrigPoly`, which makes them safe to share across threads.

The coefficient threshold ``TAU_DEG`` is applied only when *reporting*
the effective degree (and in :meth:`TrigPoly.support`); it never mutates
stored coefficients.
"""

from __future__ import annotations

import json
import math
from typing import Iterable, Sequence

import numpy as np

# Threshold for reporting the effective degree: largest k with
# max(|a_k|, |b_k|) > TAU_DEG.
TAU_DEG = 1e-12

# Critical points and roots are bracketed on a scan of this many points per
# harmonic of the polynomial.
_SCAN_DENSITY = 64

# Critical points are located to brackets of this width.
_ROOT_WIDTH = 1e-13


class TrigPoly:
    """Immutable real trigonometric polynomial.

    Parameters
    ----------
    cos_coeffs : sequence of float
        ``[a_0, a_1, ..., a_D]``.
    sin_coeffs : sequence of float, optional
        ``[b_1, ..., b_D]``; must be one entry shorter than
        ``cos_coeffs``.  Omitted entries are zero.
    """

    __slots__ = ("_a", "_b")

    def __init__(self, cos_coeffs: Sequence[float] = (0.0,),
                 sin_coeffs: Sequence[float] = ()):
        a = np.atleast_1d(np.asarray(cos_coeffs, dtype=float)).copy()
        b_in = np.atleast_1d(np.asarray(sin_coeffs, dtype=float)) if len(sin_coeffs) else np.zeros(0)
        if a.ndim != 1 or b_in.ndim != 1:
            raise ValueError("coefficient arrays must be one-dimensional")
        if len(a) == 0:
            a = np.zeros(1)
        if len(b_in) > len(a) - 1:
            # grow the cosine array so both harmonics fit
            a = np.concatenate([a, np.zeros(len(b_in) + 1 - len(a))])
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b_in))):
            raise ValueError("coefficients must be finite")
        # internal layout: b aligned with a, with the unused b_0 slot pinned to 0
        b = np.zeros(len(a))
        b[1:len(b_in) + 1] = b_in
        a.flags.writeable = False
        b.flags.writeable = False
        self._a = a
        self._b = b

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "TrigPoly":
        return cls([0.0])

    @classmethod
    def constant(cls, c: float) -> "TrigPoly":
        return cls([float(c)])

    @classmethod
    def sine(cls, k: int = 1, amplitude: float = 1.0) -> "TrigPoly":
        """``amplitude * sin(kx)``."""
        if k < 1:
            raise ValueError("harmonic index must be >= 1")
        b = np.zeros(k)
        b[k - 1] = amplitude
        return cls(np.zeros(k + 1), b)

    @classmethod
    def cosine(cls, k: int = 1, amplitude: float = 1.0) -> "TrigPoly":
        """``amplitude * cos(kx)`` (``k = 0`` gives a constant)."""
        if k < 0:
            raise ValueError("harmonic index must be >= 0")
        a = np.zeros(k + 1)
        a[k] = amplitude
        return cls(a)

    @classmethod
    def _from_arrays(cls, a: np.ndarray, b: np.ndarray) -> "TrigPoly":
        obj = cls.__new__(cls)
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        a.flags.writeable = False
        b.flags.writeable = False
        obj._a = a
        obj._b = b
        return obj

    # -- basic views ---------------------------------------------------

    @property
    def cos_coeffs(self) -> np.ndarray:
        """``[a_0, ..., a_D]`` (read-only view)."""
        return self._a

    @property
    def sin_coeffs(self) -> np.ndarray:
        """``[b_1, ..., b_D]`` (read-only view)."""
        return self._b[1:]

    @property
    def capacity(self) -> int:
        """Nominal degree D of the stored arrays."""
        return len(self._a) - 1

    def degree(self, tau: float = TAU_DEG) -> int:
        """Effective degree: largest k with ``max(|a_k|, |b_k|) > tau``.

        Returns 0 for constants (and for the zero polynomial).
        """
        mag = np.maximum(np.abs(self._a), np.abs(self._b))
        sig = np.nonzero(mag > tau)[0]
        return int(sig[-1]) if len(sig) else 0

    def support(self, tau: float) -> set[int]:
        """Frequencies k with ``max(|a_k|, |b_k|) > tau``."""
        if tau <= 0:
            raise ValueError("tolerance must be positive")
        mag = np.maximum(np.abs(self._a), np.abs(self._b))
        return set(int(k) for k in np.nonzero(mag > tau)[0])

    def coeff_norm(self) -> float:
        """Max absolute coefficient (sup norm on the coefficient vector)."""
        return float(max(np.max(np.abs(self._a)), np.max(np.abs(self._b))))

    # -- evaluation ----------------------------------------------------

    def __call__(self, x):
        return self.eval(x)

    def eval(self, x):
        """Evaluate at ``x`` (radians); accepts scalars or arrays."""
        xs = np.asarray(x, dtype=float)
        k = np.arange(len(self._a))
        kx = np.multiply.outer(xs, k)
        vals = np.cos(kx) @ self._a + np.sin(kx) @ self._b
        return float(vals) if np.isscalar(x) or xs.ndim == 0 else vals

    # -- calculus and shifts --------------------------------------------

    def derivative(self) -> "TrigPoly":
        """d/dx: ``a_k cos kx -> -k a_k sin kx``, ``b_k sin kx -> k b_k cos kx``."""
        k = np.arange(len(self._a))
        return TrigPoly._from_arrays(k * self._b, -k * self._a)

    def shift(self, s: float) -> "TrigPoly":
        """Return Q with ``Q(x) = P(x + s)``; degree is unchanged."""
        k = np.arange(len(self._a))
        c, sn = np.cos(k * s), np.sin(k * s)
        return TrigPoly._from_arrays(self._a * c + self._b * sn,
                                     -self._a * sn + self._b * c)

    # -- ring operations -------------------------------------------------

    def _padded(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        if len(self._a) >= n:
            return self._a, self._b
        pad = np.zeros(n - len(self._a))
        return np.concatenate([self._a, pad]), np.concatenate([self._b, pad])

    def __add__(self, other) -> "TrigPoly":
        if isinstance(other, (int, float)):
            a = self._a.copy()
            a[0] += other
            return TrigPoly._from_arrays(a, self._b.copy())
        if not isinstance(other, TrigPoly):
            return NotImplemented
        n = max(len(self._a), len(other._a))
        a1, b1 = self._padded(n)
        a2, b2 = other._padded(n)
        return TrigPoly._from_arrays(a1 + a2, b1 + b2)

    __radd__ = __add__

    def __neg__(self) -> "TrigPoly":
        return TrigPoly._from_arrays(-self._a, -self._b)

    def __sub__(self, other) -> "TrigPoly":
        if isinstance(other, (int, float)):
            return self + (-other)
        if not isinstance(other, TrigPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "TrigPoly":
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return TrigPoly._from_arrays(self._a * other, self._b * other)
        return NotImplemented

    __rmul__ = __mul__

    def coeff_distance(self, other: "TrigPoly") -> float:
        """Max absolute coefficient difference, after padding."""
        return (self - other).coeff_norm()

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        return {"cos": [float(v) for v in self._a],
                "sin": [float(v) for v in self._b[1:]]}

    @classmethod
    def from_dict(cls, d: dict) -> "TrigPoly":
        return cls(d.get("cos", [0.0]), d.get("sin", []))

    @classmethod
    def from_json(cls, s: str) -> "TrigPoly":
        return cls.from_dict(json.loads(s))

    def __repr__(self) -> str:
        return f"TrigPoly(cos={list(self._a)!r}, sin={list(self._b[1:])!r})"


def product(p: TrigPoly, q: TrigPoly) -> TrigPoly:
    """Product of two trigonometric polynomials, of capacity ``D = d1 + d2``
    for the factors' capacities: the factors' values on ``2 D + 2``
    equispaced points (:func:`_scan`) multiplied pointwise, and the
    product's coefficients recovered from them by :func:`reconstruct`.
    That many points resolve every harmonic up to ``D`` without aliasing."""
    capacity = p.capacity + q.capacity
    n = 2 * capacity + 2
    return reconstruct(_scan(p, n) * _scan(q, n), capacity)


def shift_average(f: TrigPoly, q: int, mu: float) -> TrigPoly:
    """``(1/q) * sum_{k=0}^{q-1} f(x + k mu)``.

    With ``mu = 2 pi p / q`` and ``gcd(p, q) = 1`` this annihilates every
    harmonic of ``f`` whose frequency is not a multiple of ``q``.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    acc = f
    for k in range(1, q):
        acc = acc + f.shift(k * mu)
    return acc * (1.0 / q)


def weighted_shift_average(f: TrigPoly, q: int, mu: float) -> TrigPoly:
    """``(1/q) * sum_{k=0}^{q-1} (q - k) f(x + k mu)``."""
    if q < 1:
        raise ValueError("q must be >= 1")
    acc = f * float(q)
    for k in range(1, q):
        acc = acc + f.shift(k * mu) * float(q - k)
    return acc * (1.0 / q)


def range_extrema(p: TrigPoly) -> tuple[float, float, float, float]:
    """Global extrema of ``p`` over one period.

    Returns ``(max, min, argmax, argmin)`` with arguments in ``[0, 2 pi)``:
    the largest and smallest value of ``p`` at its critical points, found
    by :func:`_critical_points` on ``_SCAN_DENSITY * (degree + 1)`` points.
    """
    d = p.degree()
    if d == 0:
        c = float(p._a[0])
        return c, c, 0.0, 0.0
    xs = _critical_points(p, _SCAN_DENSITY * (d + 1))
    vals = p.eval(xs)
    hi, lo = int(np.argmax(vals)), int(np.argmin(vals))
    return float(vals[hi]), float(vals[lo]), float(xs[hi]), float(xs[lo])


def _scan(p: TrigPoly, n: int) -> np.ndarray:
    """``p`` at the n points ``2 pi j / n`` by one zero-padded inverse FFT,
    in O(n log n) time and O(n) memory.

    The transform length is the first multiple of n above twice the
    capacity, so no harmonic aliases; every (length / n)-th value is kept.
    """
    spec = 0.5 * (p._a - 1j * p._b)
    spec[0] = p._a[0]
    size = n * (1 + 2 * p.capacity // n)
    return np.fft.irfft(spec, size, norm="forward")[::size // n]


def _critical_points(p: TrigPoly, n: int) -> np.ndarray:
    """Zeros of ``p'``: its sign changes on n equispaced points, each
    bracket narrowed to ``_ROOT_WIDTH``, where ``p`` is flat to far below
    its rounding.

    All brackets step at once by regula falsi with the Anderson-Bjorck
    form of the Illinois step: an end kept twice in a row has its value
    scaled by ``1 - f(c)/f(e)``, ``e`` the end that the new point ``c``
    replaces (by 1/2 where that is not positive), so both ends close in.
    A step lands at least ``_ROOT_WIDTH / 2`` inside the bracket, so once
    one end is that close to the root the next step closes the bracket.
    A bracket takes about 5 evaluations of ``p'``, and at most 10 in the
    tested cases, where bisection took about 37.
    """
    dp = p.derivative()
    vals = _scan(dp, n)
    above = vals >= 0
    i = np.flatnonzero(above != np.roll(above, -1))
    a, b = 2.0 * math.pi * i / n, 2.0 * math.pi * (i + 1) / n
    fa, fb, a_above = vals[i], np.roll(vals, -1)[i], above[i]
    last = np.zeros(len(i))  # the end each bracket moved last: 1 for a, -1 for b
    margin = 0.5 * _ROOT_WIDTH
    while np.any(open_ := b - a > _ROOT_WIDTH):
        c = np.clip((a * fb - b * fa) / (fb - fa), a + margin, b - margin)
        fc = dp(c)
        to_a = open_ & ((fc >= 0) == a_above)
        to_b = open_ & ~to_a
        replaced = np.where(to_a, fa, fb)
        ratio = np.divide(fc, replaced, out=np.ones_like(fc), where=replaced != 0)
        scale = np.where(ratio < 1.0, 1.0 - ratio, 0.5)
        fa = np.where(to_b & (last < 0), scale * fa, fa)
        fb = np.where(to_a & (last > 0), scale * fb, fb)
        a, fa = np.where(to_a, c, a), np.where(to_a, fc, fa)
        b, fb = np.where(to_b, c, b), np.where(to_b, fc, fb)
        last = np.where(to_a, 1.0, np.where(to_b, -1.0, last))
    return 0.5 * (a + b) % (2.0 * math.pi)


def reconstruct(samples: Iterable[float], capacity: int) -> TrigPoly:
    """Recover coefficients of a degree <= ``capacity`` polynomial from
    ``2 * (capacity + 1)`` uniform samples on ``[0, 2 pi)``."""
    y = np.asarray(list(samples), dtype=float)
    m = len(y)
    if m < 2 * capacity + 1:
        raise ValueError("need at least 2*capacity + 1 samples")
    spec = np.fft.rfft(y) / m
    a = np.zeros(capacity + 1)
    b = np.zeros(capacity)
    a[0] = spec[0].real
    kmax = min(capacity, len(spec) - 1)
    a[1:kmax + 1] = 2.0 * spec[1:kmax + 1].real
    b[:kmax] = -2.0 * spec[1:kmax + 1].imag
    return TrigPoly(a, b)
