import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tonguelab.cylmap import MapParams, remainder_jet
from tonguelab.orbits import _solve_implicit
from tonguelab.series import (EpsSeries, LeadingIndexNotFound, _harmonic_tol, expand,
                              predicted_width, verify_first_order, verify_periodicity)
from tonguelab.trigpoly import TrigPoly, shift_average, weighted_shift_average

SIN = TrigPoly.sine()


def random_poly(rng, degree):
    return TrigPoly(rng.uniform(-1, 1, degree + 1), rng.uniform(-1, 1, degree))


# coprime (p, q) with 1 <= p < q and 2 <= q <= 5
coprime_pq = st.integers(2, 5).flatmap(
    lambda q: st.tuples(st.sampled_from([p for p in range(1, q) if math.gcd(p, q) == 1]),
                        st.just(q)))


class TestEpsSeries:
    def test_eval_zero(self):
        assert EpsSeries([TrigPoly.zero()] * 4).eval(0.3, 0.2) == 0.0

    def test_eval_single_term(self):
        s = EpsSeries([TrigPoly.zero(), TrigPoly.sine(1, -1.0), TrigPoly.zero()])
        assert s.eval(math.pi / 2, 0.1) == pytest.approx(-0.1, abs=1e-15)

    def test_truncation_consistency(self):
        # |eval at order N - eval at order N-1| = |top coeff| * eps^N
        m = MapParams(0.0, 0.0, SIN, 1, 2)
        sol = expand(m, 4)
        x0 = 0.9
        for eps in (0.1, 0.05):
            full = sol.delta.eval(x0, eps)
            lower = EpsSeries(sol.delta.coeffs[:4]).eval(x0, eps)
            top = abs(sol.delta.coeff(4).eval(x0))
            assert abs(full - lower) == pytest.approx(top * eps ** 4, rel=1e-12)

    def test_mul_matches_pointwise(self):
        rng = np.random.default_rng(1)
        a = EpsSeries([random_poly(rng, 2) for _ in range(4)])
        b = EpsSeries([random_poly(rng, 2) for _ in range(4)])
        prod = a.mul(b)
        for eps in (0.05, 0.02):
            # compare against scalar series multiplication at one point
            x = 1.234
            ca = [c.eval(x) for c in a.coeffs]
            cb = [c.eval(x) for c in b.coeffs]
            expect = sum(ca[i] * cb[j] * eps ** (i + j)
                         for i in range(4) for j in range(4) if i + j <= 3)
            assert prod.eval(x, eps) == pytest.approx(expect, abs=1e-13)


class TestFirstOrder:
    def test_one_step(self):
        m = MapParams(0.0, 0.0, SIN, 0, 1)
        sol = expand(m, 3)
        assert sol.r == 1
        assert sol.delta.coeff(1).coeff_distance(TrigPoly.sine(1, -1.0)) < 1e-14
        assert sol.y.coeff(1).coeff_norm() < 1e-14

    def test_closed_form_q3(self):
        m = MapParams(0.0, 0.0, SIN, 1, 3)
        rep = verify_first_order(expand(m, 1))
        assert rep.max_error < 1e-12

    def test_resonant_degree_equals_q(self):
        # f = sin(3x) with q = 3: the shift average is f itself
        f = TrigPoly.sine(3)
        m = MapParams(0.0, 0.0, f, 1, 3)
        sol = expand(m, 1)
        rep = verify_first_order(sol)
        assert rep.max_error < 1e-12
        assert sol.delta.coeff(1).coeff_distance(TrigPoly.sine(3, -1.0)) < 1e-12

    def test_random_polynomials(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            f = random_poly(rng, 4)
            m = MapParams(0.0, 0.0, f, 2, 5)
            rep = verify_first_order(expand(m, 1))
            assert rep.max_error < 1e-11

    def test_first_order_formulas_directly(self):
        rng = np.random.default_rng(18)
        f = random_poly(rng, 3)
        q, p = 4, 1
        m = MapParams(0.0, 0.0, f, p, q)
        sol = expand(m, 2)
        mu = 2 * math.pi * p / q
        fbar = shift_average(f, q, mu)
        fbarbar = weighted_shift_average(f, q, mu)
        assert sol.delta.coeff(1).coeff_distance(-1.0 * fbar) < 1e-12
        expected_y1 = fbar * (-(q + 1) / 2.0) + fbarbar
        assert sol.y.coeff(1).coeff_distance(expected_y1) < 1e-12


class TestLeadingIndex:
    @pytest.mark.parametrize("q,expected_r", [(1, 1), (2, 2), (3, 3), (4, 4), (5, 5)])
    def test_sine_r_equals_q(self, q, expected_r):
        m = MapParams(0.0, 0.0, SIN, max(1, q - 1) if q > 1 else 0, q)
        assert m.coprime()
        sol = expand(m, q)
        assert sol.r == expected_r

    def test_degree_two_forcing(self):
        # f = sin 2x, q = 4: the leading x-dependence appears at order 2
        m = MapParams(0.0, 0.0, TrigPoly.sine(2), 1, 4)
        sol = expand(m, 3)
        assert sol.r == 2

    def test_r_bound_rd_geq_q(self):
        for f, q, p in ((SIN, 2, 1), (SIN, 3, 1), (SIN, 5, 2),
                        (TrigPoly.sine(2), 4, 1), (TrigPoly.sine(2), 5, 1)):
            m = MapParams(0.0, 0.0, f, p, q)
            sol = expand(m, q)
            assert sol.r is not None
            assert sol.r * f.degree() >= q

    def test_not_detected_reported_as_none(self):
        # order too low to reach the x-dependent coefficient
        m = MapParams(0.0, 0.0, SIN, 1, 4)
        sol = expand(m, 2)
        assert sol.r is None
        with pytest.raises(LeadingIndexNotFound):
            predicted_width(sol, 0.1)
        with pytest.raises(LeadingIndexNotFound):
            verify_periodicity(sol)

    def test_high_order_q11(self):
        # large q at high order, where Newton widths are below the fit floor
        m = MapParams(0.0, 0.0, SIN, 3, 11)
        sol = expand(m, 30)
        assert sol.r == 11
        assert verify_periodicity(sol).passed
        assert verify_first_order(sol).max_error < 1e-12

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("q", range(2, 14))
    def test_r_is_ceil_q_over_d(self, d, q):
        """For f = sum_{k<=d} sin(kx)/k the first x-dependent order is
        ceil(q/d), at p = 1 and at each coprime p in {2, 3, 5}, and D_r
        passes its periodicity check.  At p = 1, q = 12 and 13, the small
        divisors make the sums behind D_n far larger than D_n, and their
        round-off in the constant D_11 (q = 12) and D_9 (q = 13) once read
        as x-dependence.  Scaling f by amp only rescales eps, so r holds
        at every amp; an absolute floor under the detection tolerance once
        missed it at small amp (0.01 sin x at q = 5 read no r)."""
        r = math.ceil(q / d)
        for amp in (1.0, 1e-2, 1e-4, 30.0):
            f = TrigPoly(np.zeros(d + 1), [amp / k for k in range(1, d + 1)])
            for p in [p for p in (1, 2, 3, 5) if p == 1 or (p < q and math.gcd(p, q) == 1)]:
                sol = expand(MapParams(0.0, 0.0, f, p, q), r + 1)
                assert sol.r == r, f"amp={amp}, p={p}"
                assert verify_periodicity(sol).passed, f"amp={amp}, p={p}"

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3), st.integers(2, 13),
           st.integers(1, 14), st.sampled_from([1e-3, 1.0, 50.0]))
    def test_r_and_constants_follow_the_per_order_rule(self, seed, degree, q, order, amp):
        """``r`` and ``a_coeffs``, read off the coefficient matrix at once,
        against the rule applied to each ``D_n`` in turn: the first n with
        ``D_n.degree(_harmonic_tol(...)) > 0``, and the constant terms of
        the orders before it."""
        rng = np.random.default_rng(seed)
        p = int(rng.choice([p for p in range(1, q) if math.gcd(p, q) == 1]))
        f = random_poly(rng, degree) * amp
        sol = expand(MapParams(0.0, 0.0, f, p, q), order)
        r = None
        for n in range(1, order + 1):
            dn = sol.delta.coeff(n)
            if dn.degree(_harmonic_tol(dn.coeff_norm(), sol.roundoff[n])) > 0:
                r = n
                break
        assert sol.r == r
        upto = r if r is not None else order + 1
        assert sol.a_coeffs.tolist() == [float(sol.delta.coeff(n).cos_coeffs[0])
                                         for n in range(upto)]

    def test_constant_drift_coefficients_recorded(self):
        m = MapParams(0.0, 0.0, SIN, 1, 3)
        sol = expand(m, 3)
        assert sol.r == 3
        assert len(sol.a_coeffs) == 3
        assert np.all(np.abs(sol.a_coeffs) < 1e-12)  # odd forcing: no offsets


class TestDegreeStructure:
    @pytest.mark.parametrize("f,q,p,order", [(SIN, 3, 1, 5), (TrigPoly.sine(2), 3, 2, 4)])
    def test_degree_bound(self, f, q, p, order):
        sol = expand(MapParams(0.0, 0.0, f, p, q), order)
        d = f.degree()
        for n in range(1, order + 1):
            assert sol.delta.coeff(n).degree() <= n * d
            assert sol.y.coeff(n).degree() <= n * d

    def test_random_degree_bound(self):
        rng = np.random.default_rng(23)
        f = random_poly(rng, 3)
        sol = expand(MapParams(0.0, 0.0, f, 1, 2), 4)
        for n in range(1, 5):
            assert sol.delta.coeff(n).degree() <= 3 * n
            assert sol.y.coeff(n).degree() <= 3 * n


class TestPeriodicity:
    def test_q2_support(self):
        m = MapParams(0.0, 0.0, SIN, 1, 2)
        rep = verify_periodicity(expand(m, 2))
        assert rep.r == 2
        assert rep.support <= {0, 2}
        assert rep.passed

    def test_q3_support(self):
        m = MapParams(0.0, 0.0, SIN, 1, 3)
        rep = verify_periodicity(expand(m, 3))
        assert rep.support <= {0, 3}
        assert rep.passed

    @pytest.mark.parametrize("q,p", [(2, 1), (3, 1), (3, 2), (4, 1), (5, 1), (5, 2)])
    def test_shift_residual_small(self, q, p):
        m = MapParams(0.0, 0.0, SIN, p, q)
        sol = expand(m, q)
        rep = verify_periodicity(sol)
        assert rep.shift_residual < 1e-10 * rep.norm
        assert rep.support_multiples_of_q


class TestNumericConsistency:
    @pytest.mark.parametrize("q,p", [(2, 1), (3, 1)])
    def test_error_shrinks_at_order_rate(self, q, p):
        m = MapParams(0.0, 0.0, SIN, p, q)
        order = 4
        sol = expand(m, order)
        xs = np.linspace(0, 2 * math.pi, 16, endpoint=False)
        errs = {}
        for eps in (0.1, 0.05):
            num, ok, _ = _solve_implicit(xs, eps, m, 0.0, 0.0)
            assert ok.all()
            errs[eps] = np.max(np.abs(num[1] - sol.delta.eval(xs, eps)))
        assert errs[0.1] / errs[0.05] > 2 ** (order + 0.5)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3), coprime_pq, st.integers(1, 4))
    def test_map_residual_shrinks_at_order_rate(self, seed, degree, pq, order):
        # Start the map itself at (x0, Y_N(x0, eps)) with drift D_N(x0, eps):
        # the q-step remainders are O(eps^(N+1)).  The coefficients of f come
        # from a seeded generator, because a forcing with no harmonic off the
        # multiples of q (a constant, say) makes the series exact and leaves
        # only rounding.
        p, q = pq
        f = random_poly(np.random.default_rng(seed), degree)
        sol = expand(MapParams(0.0, 0.0, f, p, q), order)
        worst = {}
        x0 = np.linspace(0, 2 * math.pi, 16, endpoint=False)
        for eps in (0.04, 0.02):
            res, _, _ = remainder_jet(x0, sol.y.eval(x0, eps), sol.delta.eval(x0, eps), eps,
                                      MapParams(eps, 0.0, f, p, q), q)
            worst[eps] = np.abs(res).max()
        assert worst[0.04] / worst[0.02] > 2 ** (order + 0.5)

    def test_exchange_symmetry(self):
        # (p, q) and (p + q, q) describe the same cylinder map
        m1 = MapParams(0.0, 0.0, SIN, 1, 3)
        m2 = MapParams(0.0, 0.0, SIN, 4, 3)
        s1 = expand(m1, 4)
        s2 = expand(m2, 4)
        for n in range(5):
            assert s1.delta.coeff(n).coeff_distance(s2.delta.coeff(n)) < 1e-13
            assert s1.y.coeff(n).coeff_distance(s2.y.coeff(n)) < 1e-13


class TestPredictedWidth:
    def test_one_step_width(self):
        m = MapParams(0.0, 0.0, SIN, 0, 1)
        sol = expand(m, 1)
        assert predicted_width(sol, 0.1) == pytest.approx(0.2, abs=1e-12)

    def test_sine_at_q3_is_a_twelfth_of_eps_cubed(self):
        sol = expand(MapParams(0.0, 0.0, SIN, 1, 3), 3)
        assert predicted_width(sol, 0.1) == pytest.approx(0.1 ** 3 / 12, rel=1e-13)

    @pytest.mark.parametrize("amp", [1e-4, 1e-2, 3.0, 1e2])
    @pytest.mark.parametrize("f", [SIN, TrigPoly([0.0, 0.3], [1.0, 0.5])], ids=["sin", "mixed"])
    @pytest.mark.parametrize("q", [3, 5])
    def test_scaling_f_rescales_eps(self, q, f, amp):
        """The map with forcing amp f at eps/amp is the map with f at eps,
        so its predicted width is the same; a constant test with an
        absolute threshold once gave 0 for 1e-4 sin x at q = 3."""
        want = predicted_width(expand(MapParams(0.0, 0.0, f, 1, q), q), 0.1)
        got = predicted_width(expand(MapParams(0.0, 0.0, f * amp, 1, q), q), 0.1 / amp)
        assert want > 0
        assert got == pytest.approx(want, rel=1e-12)

    def test_against_measured_width(self):
        from tonguelab.tongue import width_at

        m = MapParams(0.0, 0.0, SIN, 1, 2)
        sol = expand(m, 2)
        measured = width_at(m, 0.1, 32).width
        assert predicted_width(sol, 0.1) == pytest.approx(measured, rel=0.15)


class TestValidation:
    def test_reducible_fraction_rejected(self):
        with pytest.raises(ValueError):
            expand(MapParams(0.0, 0.0, SIN, 2, 4), 2)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_an_overflowing_jet_is_rejected(self):
        # `fit` relies on this ValueError to report no expected_r
        with pytest.raises(ValueError, match="coefficients must be finite"):
            expand(MapParams(0.0, 0.0, TrigPoly.sine(1, 1e300), 1, 3), 5)

    def test_solution_serialization(self):
        m = MapParams(0.0, 0.0, SIN, 1, 2)
        d = expand(m, 3).to_dict()
        assert d["q"] == 2 and d["p"] == 1 and d["N"] == 3 and d["r"] == 2
        assert len(d["Delta"]) == 4 and len(d["Y"]) == 4
        assert set(d["Delta"][1]) == {"cos", "sin"}
