import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tonguelab.trigpoly import (_SCAN_DENSITY, TrigPoly, _critical_points, _scan, product,
                                range_extrema, reconstruct, shift_average,
                                weighted_shift_average)


def random_poly(rng, degree):
    return TrigPoly(rng.uniform(-1, 1, degree + 1), rng.uniform(-1, 1, degree))


def bisected_critical_points(p, n):
    """The zeros of ``p'`` from the sign changes of the same scan, each
    bracket bisected to 1e-13: the reference for the regula falsi."""
    dp = p.derivative()
    above = _scan(dp, n) >= 0
    i = np.flatnonzero(above != np.roll(above, -1))
    lo, hi, lo_above = 2.0 * math.pi * i / n, 2.0 * math.pi * (i + 1) / n, above[i]
    while np.any(hi - lo > 1e-13):
        mid = 0.5 * (lo + hi)
        same = (dp(mid) >= 0) == lo_above
        lo, hi = np.where(same, mid, lo), np.where(same, hi, mid)
    return 0.5 * (lo + hi) % (2.0 * math.pi)


class TestEval:
    def test_unit_sine(self):
        assert TrigPoly.sine().eval(math.pi / 2) == pytest.approx(1.0, abs=1e-15)

    def test_cos_two_x_at_pi(self):
        assert TrigPoly.cosine(2).eval(math.pi) == pytest.approx(1.0, abs=1e-15)

    def test_term_by_term_oracle(self):
        # 1 + sin x + 0.3 cos 3x at x = 0.7, summed term by term
        p = TrigPoly([1.0, 0.0, 0.0, 0.3], [1.0, 0.0, 0.0])
        expected = 1.0 + math.sin(0.7) + 0.3 * math.cos(3 * 0.7)
        assert p.eval(0.7) == pytest.approx(expected, abs=1e-15)

    def test_periodicity(self):
        rng = np.random.default_rng(7)
        p = random_poly(rng, 5)
        xs = rng.uniform(-10, 10, 50)
        assert np.allclose(p.eval(xs), p.eval(xs + 2 * math.pi), atol=1e-12)

    def test_vectorized_matches_scalar(self):
        p = TrigPoly([0.2, 0.1], [0.4])
        xs = np.array([0.0, 1.0, 2.5])
        assert np.allclose(p.eval(xs), [p.eval(float(x)) for x in xs])


class TestDerivative:
    def test_sine_to_cosine(self):
        d = TrigPoly.sine().derivative()
        assert d.coeff_distance(TrigPoly.cosine(1)) < 1e-15

    def test_constant_to_zero(self):
        d = TrigPoly.constant(5.0).derivative()
        assert d.coeff_norm() == 0.0

    def test_cos_three_x(self):
        d = TrigPoly.cosine(3).derivative()
        assert d.coeff_distance(TrigPoly.sine(3, -3.0)) < 1e-15

    def test_degree_preserved(self):
        rng = np.random.default_rng(3)
        p = random_poly(rng, 4)
        assert p.derivative().degree() == p.degree()


class TestShift:
    def test_half_period_sine(self):
        assert TrigPoly.sine().shift(math.pi).coeff_distance(TrigPoly.sine(1, -1.0)) < 1e-15

    def test_zero_shift_identity(self):
        rng = np.random.default_rng(11)
        p = random_poly(rng, 4)
        assert p.shift(0.0).coeff_distance(p) == 0.0

    def test_inverse(self):
        rng = np.random.default_rng(12)
        p = random_poly(rng, 6)
        assert p.shift(1.234).shift(-1.234).coeff_distance(p) < 1e-14

    def test_pointwise(self):
        rng = np.random.default_rng(13)
        p = random_poly(rng, 5)
        xs = np.linspace(0, 2 * math.pi, 32, endpoint=False)
        s = 0.777
        assert np.allclose(p.shift(s).eval(xs), p.eval(xs + s), atol=1e-13)


class TestProduct:
    def test_power_reduction(self):
        s = TrigPoly.sine()
        sq = product(s, s)
        expected = TrigPoly([0.5, 0.0, -0.5])
        assert sq.coeff_distance(expected) < 1e-15

    def test_multiplicative_identity(self):
        rng = np.random.default_rng(21)
        p = random_poly(rng, 4)
        assert product(p, TrigPoly.constant(1.0)).coeff_distance(p) < 1e-15

    def test_pointwise_oracle(self):
        p = TrigPoly.sine()
        q = TrigPoly.cosine(2)
        xs = np.linspace(0, 2 * math.pi, 64, endpoint=False)
        assert np.max(np.abs(product(p, q).eval(xs) - p.eval(xs) * q.eval(xs))) < 1e-13

    def test_random_pointwise(self):
        rng = np.random.default_rng(22)
        xs = np.linspace(0, 2 * math.pi, 128, endpoint=False)
        for _ in range(25):
            p = random_poly(rng, int(rng.integers(0, 6)))
            q = random_poly(rng, int(rng.integers(0, 6)))
            r = product(p, q)
            assert np.max(np.abs(r.eval(xs) - p.eval(xs) * q.eval(xs))) < 1e-13


class TestShiftAverage:
    def test_antipodal_cancellation(self):
        avg = shift_average(TrigPoly.sine(), 2, math.pi)
        assert avg.coeff_norm() < 1e-15

    def test_single_term(self):
        avg = shift_average(TrigPoly.sine(), 1, 123.0)
        assert avg.coeff_distance(TrigPoly.sine()) == 0.0

    @pytest.mark.parametrize("q,p", [(2, 1), (3, 1), (4, 3), (5, 2)])
    def test_resonant_harmonic_survives(self, q, p):
        # f = sin(qx) is invariant under every shift by 2*pi*p/q
        f = TrigPoly.sine(q)
        avg = shift_average(f, q, 2 * math.pi * p / q)
        assert avg.coeff_distance(f) < 1e-13

    @pytest.mark.parametrize("q,p", [(3, 1), (5, 2)])
    def test_symbolic_sum_oracle(self, q, p):
        # evaluate the defining sum exactly with sympy at sample points
        sympy = pytest.importorskip("sympy")
        x = sympy.symbols("x")
        mu = 2 * sympy.pi * p / q
        f_sym = sympy.sin(x + 1) + sympy.Rational(3, 10) * sympy.cos(2 * x)
        total = sum(f_sym.subs(x, x + k * mu) for k in range(q)) / q
        f = TrigPoly([0.0, math.sin(1.0), 0.3], [math.cos(1.0), 0.0])
        avg = shift_average(f, q, 2 * math.pi * p / q)
        for xv in (0, sympy.pi / 7, sympy.Rational(5, 3)):
            expected = float(total.subs(x, xv).evalf(30))
            assert avg.eval(float(sympy.N(xv, 20))) == pytest.approx(expected, abs=1e-12)

    def test_harmonic_filtering(self):
        # with gcd(p, q) = 1 only multiples of q survive; below degree q the
        # average of a zero-mean polynomial vanishes
        rng = np.random.default_rng(31)
        q, p = 5, 2
        f = random_poly(rng, 4)
        f = f - TrigPoly.constant(float(f.cos_coeffs[0]))
        avg = shift_average(f, q, 2 * math.pi * p / q)
        assert avg.coeff_norm() < 1e-14

        g = random_poly(rng, 7)
        avg7 = shift_average(g, q, 2 * math.pi * p / q)
        keep = {0, 5}
        for k in avg7.support(1e-13):
            assert k in keep


class TestWeightedShiftAverage:
    def test_single_term(self):
        w = weighted_shift_average(TrigPoly.sine(), 1, 0.3)
        assert w.coeff_distance(TrigPoly.sine()) == 0.0

    def test_q2_closed_form(self):
        # (1/2)(2 sin x + sin(x + pi)) = sin(x)/2
        w = weighted_shift_average(TrigPoly.sine(), 2, math.pi)
        assert w.coeff_distance(TrigPoly.sine(1, 0.5)) < 1e-15

    @pytest.mark.parametrize("q", [1, 2, 3, 7])
    def test_constant_arithmetic_series(self, q):
        # sum_{k<q} (q - k)/q = (q + 1)/2, summed directly
        c = 0.8
        expected = c * sum(q - k for k in range(q)) / q
        assert expected == pytest.approx(c * (q + 1) / 2)
        w = weighted_shift_average(TrigPoly.constant(c), q, 1.1)
        assert w.eval(0.42) == pytest.approx(expected, abs=1e-14)


class TestRangeExtrema:
    def test_sine(self):
        hi, lo, xhi, xlo = range_extrema(TrigPoly.sine())
        assert hi == pytest.approx(1.0, abs=1e-12)
        assert lo == pytest.approx(-1.0, abs=1e-12)
        assert xhi == pytest.approx(math.pi / 2, abs=1e-9)
        assert xlo == pytest.approx(3 * math.pi / 2, abs=1e-9)

    def test_constant(self):
        hi, lo, _, _ = range_extrema(TrigPoly.constant(3.0))
        assert hi == lo == 3.0

    def test_dense_grid_oracle(self):
        p = TrigPoly([0.0, 0.0, 0.0, 0.0, 0.0, 0.1], [0.0, 0.3, 0.0, 0.0, 0.0])
        xs = np.linspace(0, 2 * math.pi, 10 ** 6, endpoint=False)
        vals = p.eval(xs)
        hi, lo, xhi, xlo = range_extrema(p)
        assert hi == pytest.approx(float(np.max(vals)), abs=1e-9)
        assert lo == pytest.approx(float(np.min(vals)), abs=1e-9)
        assert abs(p.derivative().eval(xhi)) < 1e-12
        assert abs(p.derivative().eval(xlo)) < 1e-12

    @settings(max_examples=300, deadline=None)
    @given(coeffs=st.lists(st.floats(-1, 1), min_size=3, max_size=41))
    def test_critical_points_match_bisection(self, coeffs):
        """Both end in a bracket of width 1e-13 around the same sign change,
        so their midpoints differ by at most 1e-13 (and the rounding of
        x mod 2 pi); the extrema then agree to rounding."""
        d = (len(coeffs) - 1) // 2
        p = TrigPoly(coeffs[:d + 1], coeffs[d + 1:2 * d + 1])
        assume(p.degree() > 0)
        n = _SCAN_DENSITY * (p.degree() + 1)
        xs, ref = _critical_points(p, n), bisected_critical_points(p, n)
        assert len(xs) == len(ref) > 0
        gap = np.abs((xs - ref + math.pi) % (2 * math.pi) - math.pi)
        assert np.max(gap) <= 1e-13 + 4 * np.spacing(2 * math.pi)
        hi, lo, xhi, xlo = range_extrema(p)
        vals = p.eval(ref)
        rounding = 8 * np.finfo(float).eps * (np.abs(p.cos_coeffs).sum()
                                               + np.abs(p.sin_coeffs).sum())
        assert hi == pytest.approx(float(np.max(vals)), rel=0, abs=rounding)
        assert lo == pytest.approx(float(np.min(vals)), rel=0, abs=rounding)
        assert p.eval(xhi) == pytest.approx(hi, rel=0, abs=rounding)
        assert p.eval(xlo) == pytest.approx(lo, rel=0, abs=rounding)

    def test_a_bracket_takes_at_most_ten_evaluations(self, monkeypatch):
        """Each step evaluates p' once at every bracket, so the number of
        evaluation calls is the number of evaluations per bracket."""
        sizes = []
        evaluate = TrigPoly.eval

        def counted(self, x):
            sizes.append(np.size(x))
            return evaluate(self, x)

        monkeypatch.setattr(TrigPoly, "eval", counted)
        rng = np.random.default_rng(7)
        polys = [TrigPoly.sine(), TrigPoly.cosine(3), TrigPoly([0.0, 0.3], [1.0, 0.0, 0.2]),
                 *(random_poly(rng, d) for d in range(1, 41))]
        for p in polys:
            sizes.clear()
            xs = _critical_points(p, _SCAN_DENSITY * (p.degree() + 1))
            assert 1 <= len(sizes) <= 10, p
            assert sizes == [len(xs)] * len(sizes)


class TestScan:
    """The inverse-FFT scan against direct evaluation on the same points."""

    @settings(max_examples=200, deadline=None)
    @given(coeffs=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=257),
           n=st.integers(1, 600))
    def test_matches_eval(self, coeffs, n):
        d = (len(coeffs) - 1) // 2
        p = TrigPoly(coeffs[:d + 1], coeffs[d + 1:2 * d + 1])
        xs = 2 * math.pi * np.arange(n) / n
        scale = 1.0 + np.abs(p.cos_coeffs).sum() + np.abs(p.sin_coeffs).sum()
        assert np.max(np.abs(_scan(p, n) - p.eval(xs))) <= 1e-12 * scale

    def test_degree_127_on_the_extremum_grid(self):
        rng = np.random.default_rng(5)
        p = random_poly(rng, 127)
        n = 64 * 128
        xs = 2 * math.pi * np.arange(n) / n
        scale = 1.0 + np.abs(p.cos_coeffs).sum() + np.abs(p.sin_coeffs).sum()
        assert np.max(np.abs(_scan(p, n) - p.eval(xs))) <= 1e-12 * scale


class TestFrequencySupport:
    def test_sine(self):
        assert TrigPoly.sine().support(1e-12) == {1}

    def test_product_support(self):
        sq = product(TrigPoly.sine(), TrigPoly.sine())
        assert sq.support(1e-12) == {0, 2}

    def test_series_leading_coefficient_support(self):
        # leading x-dependent drift coefficient for f = sin, q = 3, p = 1
        # carries only multiples of 3
        from tonguelab.cylmap import MapParams
        from tonguelab.series import expand

        sol = expand(MapParams(0.0, 0.0, TrigPoly.sine(), 1, 3), 3)
        dr = sol.delta.coeff(sol.r)
        support = dr.support(1e-10 * (1.0 + dr.coeff_norm()))
        assert support
        assert all(k % 3 == 0 for k in support)


class TestAlgebraProperties:
    def test_shift_is_ring_homomorphism(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            p = random_poly(rng, int(rng.integers(0, 5)))
            q = random_poly(rng, int(rng.integers(0, 5)))
            s = float(rng.uniform(0, 2 * math.pi))
            lhs = product(p, q).shift(s)
            rhs = product(p.shift(s), q.shift(s))
            assert lhs.coeff_distance(rhs) < 1e-13

    def test_product_rule(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            p = random_poly(rng, int(rng.integers(0, 5)))
            q = random_poly(rng, int(rng.integers(0, 5)))
            lhs = product(p, q).derivative()
            rhs = product(p.derivative(), q) + product(p, q.derivative())
            assert lhs.coeff_distance(rhs) < 1e-13

    def test_sample_reconstruction(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            d = int(rng.integers(0, 8))
            p = random_poly(rng, d)
            cap = p.capacity
            xs = np.linspace(0, 2 * math.pi, 2 * (cap + 1), endpoint=False)
            rec = reconstruct(p.eval(xs), cap)
            assert rec.coeff_distance(p) < 1e-12


class TestHousekeeping:
    def test_degree_reporting_does_not_mutate(self):
        p = TrigPoly([1.0, 1e-15])
        assert p.degree() == 0  # below the reporting threshold
        assert p.cos_coeffs[1] == 1e-15  # but the coefficient is intact

    def test_immutable(self):
        p = TrigPoly.sine()
        with pytest.raises(ValueError):
            p.cos_coeffs[0] = 1.0

    def test_json_round_trip(self):
        p = TrigPoly([0.1, 0.2, 0.3], [0.4, 0.5])
        q = TrigPoly.from_json(json.dumps(p.to_dict()))
        assert q.coeff_distance(p) == 0.0
        assert p.to_dict() == {"cos": [0.1, 0.2, 0.3], "sin": [0.4, 0.5]}

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            TrigPoly([math.nan])
