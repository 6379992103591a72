import math

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tonguelab.cylmap import MapParams, PhaseState, remainder_jet
from tonguelab.orbits import TAU_CLS, _solve_implicit, solve_orbit_fixed_delta
from tonguelab.trigpoly import TrigPoly

from orbit_oracle import is_walk, iterate, monodromy, step

SIN = TrigPoly.sine()


def random_params(rng, max_q=8):
    d = int(rng.integers(1, 4))
    f = TrigPoly(rng.uniform(-0.5, 0.5, d + 1), rng.uniform(-0.5, 0.5, d))
    return MapParams(eps=float(rng.uniform(0, 0.5)), delta=float(rng.uniform(-0.5, 0.5)),
                     f=f, p=int(rng.integers(0, 4)), q=int(rng.integers(1, max_q + 1)))


@st.composite
def map_params(draw, max_q=8):
    """Random forcing of degree 1-3 and random map parameters."""
    d = draw(st.integers(1, 3))
    coeff = st.floats(-0.5, 0.5)
    f = TrigPoly(draw(st.lists(coeff, min_size=d + 1, max_size=d + 1)),
                 draw(st.lists(coeff, min_size=d, max_size=d)))
    return MapParams(eps=draw(st.floats(0.0, 0.5)), delta=draw(st.floats(-0.5, 0.5)),
                     f=f, p=draw(st.integers(0, 3)), q=draw(st.integers(1, max_q)))


angles = st.floats(0.0, 2 * math.pi)
actions = st.floats(-1.0, 1.0)


def direct_remainders(s0, m, n):
    states = iterate(s0, m, n)
    return states[-1].x - s0.x - n * m.mu, states[-1].y - s0.y


def one_point(s0, m, n):
    """``(R, S)`` of one start at the map's own drift."""
    res, _, _ = remainder_jet(s0.x, s0.y, m.delta, m.eps, m, n)
    return float(res[0]), float(res[1])


def state_block(x0, y0, m, n):
    """``I + d(R, S)/d(x0, y0)``: the tangent map of n steps, batched over
    the starts."""
    _, jac, _ = remainder_jet(x0, y0, m.delta, m.eps, m, n)
    return np.eye(2).reshape((2, 2) + (1,) * (jac.ndim - 2)) + jac[:, :2]


class TestStep:
    def test_pure_rotation(self):
        m = MapParams(0.0, 0.0, SIN, 1, 2)  # mu = pi
        s1 = step(PhaseState(0.0, 0.0), m)
        assert s1.x == pytest.approx(math.pi)
        assert s1.y == 0.0

    def test_fixed_point_of_sine(self):
        m = MapParams(0.1, 0.0, SIN, 0, 1)
        s1 = step(PhaseState(math.pi, 0.0), m)
        assert s1.x == pytest.approx(math.pi, abs=1e-15)
        assert s1.y == pytest.approx(0.0, abs=1e-15)

    def test_hand_composed_formula(self):
        eps, delta, x, y = 0.2, 0.05, 0.3, 0.1
        m = MapParams(eps, delta, SIN, 2, 3)
        g = -delta - eps * math.sin(x)
        s1 = step(PhaseState(x, y), m)
        assert s1.x == pytest.approx(x + y + 2 * math.pi * 2 / 3 + g, abs=1e-15)
        assert s1.y == pytest.approx(y + g, abs=1e-15)


class TestTangent:
    """The one-step tangent map ``[[1 + g'(x), 1], [g'(x), 1]]`` is the n=1
    state block of the remainder jet."""

    def test_unperturbed_shear(self):
        m = MapParams(0.0, 0.3, SIN, 1, 2)
        j = state_block(0.7, 0.1, m, 1)
        assert np.allclose(j, [[1.0, 1.0], [0.0, 1.0]])

    def test_area_preservation_random(self):
        # det = 1 for any number of steps; past one step the entries carry
        # the rounding of the steps before, so the bound scales with the
        # size of the determinant's two terms
        rng = np.random.default_rng(5)
        for _ in range(10 ** 3):
            m = random_params(rng)
            n = int(rng.integers(1, 9))
            (a, b), (c, d) = state_block(rng.uniform(-10, 10, 10), rng.uniform(-2, 2, 10), m, n)
            bound = 1e-14 if n == 1 else 1e-13 * (np.abs(a * d) + np.abs(b * c))
            assert np.all(np.abs(a * d - b * c - 1.0) < bound)

    def test_explicit_entries(self):
        m = MapParams(0.1, 0.0, SIN, 0, 1)
        j = state_block(0.0, 0.0, m, 1)
        assert np.allclose(j, [[0.9, 1.0], [-0.1, 1.0]], atol=1e-15)


class TestIterate:
    def test_zero_steps(self):
        m = MapParams(0.1, 0.0, SIN, 0, 1)
        s0 = PhaseState(0.3, 0.2)
        assert iterate(s0, m, 0) == [s0]

    def test_rigid_rotation(self):
        m = MapParams(0.0, 0.0, SIN, 1, 3)
        states = iterate(PhaseState(0.5, 0.0), m, 6)
        for i, s in enumerate(states):
            assert s.x == pytest.approx(0.5 + i * m.mu, abs=1e-12)
            assert s.y == 0.0

    def test_semigroup(self):
        rng = np.random.default_rng(6)
        m = random_params(rng)
        s0 = PhaseState(0.1, -0.2)
        whole = iterate(s0, m, 7)
        first = iterate(s0, m, 3)
        second = iterate(first[-1], m, 4)
        glued = first + second[1:]
        for a, b in zip(whole, glued):
            assert a.x == pytest.approx(b.x, abs=1e-13)
            assert a.y == pytest.approx(b.y, abs=1e-13)


class TestRemainders:
    def test_unperturbed(self):
        m = MapParams(0.0, 0.0, SIN, 1, 4)
        r, s = one_point(PhaseState(0.3, 0.25), m, 5)
        assert r == pytest.approx(5 * 0.25, abs=1e-14)
        assert s == 0.0

    def test_fixed_point_zero(self):
        m = MapParams(0.1, 0.0, SIN, 0, 1)
        r, s = one_point(PhaseState(math.pi, 0.0), m, 1)
        assert abs(r) < 1e-15
        assert abs(s) < 1e-15

    def test_formula_equals_definition(self):
        rng = np.random.default_rng(7)
        m = random_params(rng)
        s0 = PhaseState(1.0, 0.3)
        r, s = one_point(s0, m, m.q)
        r_direct, s_direct = direct_remainders(s0, m, m.q)
        assert r == pytest.approx(r_direct, abs=1e-12)
        assert s == pytest.approx(s_direct, abs=1e-12)

    def test_identity_many_random(self):
        # formula vs direct definition, relative agreement with floor 1
        rng = np.random.default_rng(8)
        worst = 0.0
        for _ in range(2000):
            m = random_params(rng)
            n = int(rng.integers(1, 9))
            s0 = PhaseState(float(rng.uniform(0, 2 * math.pi)), float(rng.uniform(-1, 1)))
            r, s = one_point(s0, m, n)
            r_direct, s_direct = direct_remainders(s0, m, n)
            err = max(abs(r - r_direct) / max(1.0, abs(r_direct)),
                      abs(s - s_direct) / max(1.0, abs(s_direct)))
            worst = max(worst, err)
        assert worst < 1e-12

    def test_flux_consistency_at_zero_drift(self):
        # with delta = 0 and zero-mean f the grid average of S shrinks
        # like eps^2 (the exact-map limit), stably under grid refinement
        q = 5
        for eps, bound in ((1e-3, 2e-5), (1e-4, 2e-7)):
            m = MapParams(eps, 0.0, SIN, 1, q)
            for grid in (128, 256):
                xs = np.linspace(0, 2 * math.pi, grid, endpoint=False)
                avg = np.mean([one_point(PhaseState(float(x), 0.0), m, q)[1] for x in xs])
                assert abs(avg) < bound


class TestRemainderJet:
    @settings(max_examples=200, deadline=None)
    @given(map_params(), angles, actions)
    def test_jacobian_matches_central_differences(self, m, x0, y0):
        u = np.array([x0, y0, m.delta])
        _, jac, _ = remainder_jet(*u, m.eps, m, m.q)
        h = 1e-6
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            plus, _, _ = remainder_jet(*(u + e), m.eps, m, m.q)
            minus, _, _ = remainder_jet(*(u - e), m.eps, m, m.q)
            fd = (plus - minus) / (2 * h)
            assert np.allclose(jac[:, j], fd, rtol=1e-6, atol=1e-6)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 5), st.floats(0.05, 0.3), angles)
    def test_state_block_is_monodromy_minus_identity(self, q, eps, x0):
        m = MapParams(0.0, 0.0, SIN, 1 if q > 1 else 0, q)
        pts, ok, _ = _solve_implicit([x0], eps, m, [0.0], [0.0])
        assume(ok[0])
        x0, delta, y0 = pts[:3, 0].tolist()
        m_at = replace(m, eps=eps, delta=delta)
        orbit = solve_orbit_fixed_delta(PhaseState(x0, y0), m_at)
        assert orbit is not None
        first = orbit.states[0]
        _, jac, _ = remainder_jet(first.x, first.y, m_at.delta, eps, m_at, q)
        reference = monodromy(orbit.states, m_at)
        assert np.abs(jac[:, :2] + np.eye(2) - reference).max() < 1e-12
        # the kind, read off the solver's jet, is the class of the reference trace
        t = abs(float(np.trace(reference)))
        assert orbit.kind == ("center" if t < 2.0 - TAU_CLS else
                              "saddle" if t > 2.0 + TAU_CLS else "parabolic")

    @settings(max_examples=100, deadline=None)
    @given(map_params(), st.lists(st.tuples(angles, actions), min_size=1, max_size=12),
           st.integers(1, 9))
    def test_batch_equals_one_point_remainders(self, m, starts, n):
        """A batch and a one-point call may sum f in a different order, so
        they can differ in the last bit at each step, and the steps after
        stretch that difference.  The bound follows the stretching: n
        terms of weight up to n, each grown at most by the n-step tangent
        map that the kernel returns.  It stays far below an O(1)
        mismatch."""
        xs, ys = np.array(starts).T
        res, jac, _ = remainder_jet(xs, ys, m.delta, m.eps, m, n)
        assert res.shape == (2, len(starts)) and jac.shape == (2, 3, len(starts))
        for k, (x0, y0) in enumerate(starts):
            growth = 1.0 + np.abs(jac[:, :2, k]).max()
            rel = 64 * np.finfo(float).eps * n ** 2 * growth
            assert rel < 1e-6
            r, s = one_point(PhaseState(x0, y0), m, n)
            assert res[0, k] == pytest.approx(r, rel=rel, abs=rel)
            assert res[1, k] == pytest.approx(s, rel=rel, abs=rel)

    @settings(max_examples=100, deadline=None)
    @given(map_params(), st.lists(st.tuples(angles, actions, st.sampled_from((0.0, 0.15, 0.4))),
                                  min_size=1, max_size=12),
           st.integers(1, 9), st.sampled_from((None, SIN, TrigPoly([0.0, 0.0, -0.7]))))
    def test_mixed_eps_batch_is_its_one_eps_batches(self, m, starts, n, one_harmonic):
        """Each start's eps scales only its own column, and the harmonics
        of each start are summed in one order in any batch, so for any
        forcing a mixed batch is bit for bit its one-eps batches, and each
        start bit for bit its batch of one."""
        m = replace(m, f=m.f if one_harmonic is None else one_harmonic)
        xs, ys, eps = np.array(starts).T
        res, jac, path = remainder_jet(xs, ys, m.delta, eps, m, n)
        for e in np.unique(eps):
            at = eps == e
            e_res, e_jac, e_path = remainder_jet(xs[at], ys[at], m.delta, e, m, n)
            assert np.array_equal(res[:, at], e_res) and np.array_equal(jac[..., at], e_jac)
            assert np.array_equal(path[..., at], e_path)
        for i in range(len(xs)):
            one = remainder_jet(xs[i:i + 1], ys[i:i + 1], m.delta, eps[i:i + 1], m, n)
            for batched, alone in zip((res, jac, path), one):
                assert np.array_equal(batched[..., i:i + 1], alone)

    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_scalar_start_is_the_batch_of_one_column(self, n):
        m = MapParams(0.4, 0.01, TrigPoly([0.0, 0.3], [1.0, 0.0, 0.2]), 1, 5)
        res, jac, path = remainder_jet(0.7, -0.2, 0.02, m.eps, m, n)
        assert (res.shape, jac.shape, path.shape) == ((2,), (2, 3), (n, 2))
        b_res, b_jac, b_path = remainder_jet(np.array([0.7]), np.array([-0.2]), 0.02, m.eps, m, n)
        assert np.array_equal(res, b_res[:, 0]) and np.array_equal(jac, b_jac[..., 0])
        assert np.array_equal(path, b_path[..., 0])

    @settings(max_examples=100, deadline=None)
    @given(map_params(), st.lists(st.tuples(angles, actions, st.floats(-0.5, 0.5)),
                                  min_size=1, max_size=12), st.integers(1, 9))
    def test_points_are_the_reference_walk(self, m, starts, n):
        """The n points of each start, at its own drift, begin at the start
        and follow the scalar reference step by step."""
        xs, ys, drifts = np.array(starts).T
        _, _, path = remainder_jet(xs, ys, drifts, m.eps, m, n)
        assert path.shape == (n, 2, len(starts))
        assert np.array_equal(path[0], [xs, ys])
        for k, delta in enumerate(drifts):
            points = [PhaseState(x, y) for x, y in path[..., k].tolist()]
            assert is_walk(points, replace(m, delta=delta))


class TestMapParams:
    def test_mu_derived(self):
        m = MapParams(0.0, 0.0, SIN, 3, 4)
        assert m.mu == pytest.approx(2 * math.pi * 3 / 4)

    def test_validation(self):
        with pytest.raises(ValueError):
            MapParams(0.1, 0.0, SIN, 0, 0)
        with pytest.raises(ValueError):
            MapParams(-0.1, 0.0, SIN, 0, 1)
        with pytest.raises(ValueError):
            MapParams(0.1, math.inf, SIN, 0, 1)

    def test_reducible_allowed_for_iteration(self):
        m = MapParams(0.1, 0.0, SIN, 2, 4)
        assert not m.coprime()
        iterate(PhaseState(0.0, 0.0), m, 4)  # raw iteration is fine

    def test_lift_keeps_winding(self):
        # x is never wrapped: after q steps of the unperturbed rotation the
        # winding 2*pi*p is visible in the coordinate itself
        m = MapParams(0.0, 0.0, SIN, 3, 5)
        states = iterate(PhaseState(0.0, 0.0), m, 5)
        assert states[-1].x == pytest.approx(2 * math.pi * 3, abs=1e-12)
