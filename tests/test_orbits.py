import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tonguelab import orbits as orbits_module
from tonguelab.cylmap import MapParams, PhaseState, remainder_jet
from tonguelab.orbits import (_FIXED_DELTA, _IMPLICIT, _MAX_NEWTON_ITERS, ContinuationError,
                              _newton, _solve_implicit, continue_in_x, solve_orbit_fixed_delta)
from tonguelab.trigpoly import TrigPoly

from orbit_oracle import monodromy, multistart_orbits, orbit_distance, step

SIN = TrigPoly.sine()


def implicit(x0, eps, m, seed=(0.0, 0.0)):
    """One implicit solve from the seed ``(delta, y0)``: the point's
    profile rows ``(x0, D, Y, D', Y')`` and whether it converged."""
    pts, ok, _ = _solve_implicit([x0], eps, m, [seed[0]], [seed[1]])
    return pts[:, 0], bool(ok[0])


def sequential_profile(eps, m, grid_size):
    """Reference profile from one-point solves: the first grid point is
    reached by an eps ramp, every later one is seeded from its predecessor."""
    xs = np.linspace(0.0, 2 * math.pi, grid_size, endpoint=False)
    seed = (0.0, 0.0)
    for e in np.linspace(0.0, eps, 17)[1:]:
        pt, ok = implicit(float(xs[0]), float(e), m, seed)
        assert ok
        seed = pt[1:3]
    cols = [pt]
    for x0 in xs[1:]:
        pt, ok = implicit(float(x0), eps, m, seed)
        assert ok
        cols.append(pt)
        seed = pt[1:3]
    return np.array(cols).T


def assert_profiles_match(batched, sequential):
    # continue_in_x returns only converged profiles; it raises otherwise
    assert batched.shape == sequential.shape
    assert np.array_equal(batched[0], sequential[0])
    assert np.all(np.abs(batched[1:3] - sequential[1:3]) < 1e-9)


class TestFixedDeltaNewton:
    def test_unperturbed_circle(self):
        m = MapParams(0.0, 0.0, SIN, 1, 4)
        orbit = solve_orbit_fixed_delta(PhaseState(0.7, 0.0), m)
        assert orbit is not None
        for i, s in enumerate(orbit.states):
            assert s.x == pytest.approx(0.7 + i * m.mu, abs=1e-10)
            assert s.y == pytest.approx(0.0, abs=1e-12)

    def test_one_step_closed_form(self):
        # fixed points of the one-step map solve sin(x) = -delta/eps
        m = MapParams(0.2, 0.1, SIN, 0, 1)
        roots = {math.pi + math.pi / 6, 2 * math.pi - math.pi / 6}
        orbits = multistart_orbits(m, x0_grid=8)
        found = {round(o.states[0].x % (2 * math.pi), 6) for o in orbits}
        assert found == {round(r, 6) for r in roots}
        assert all(o.states[0].y == pytest.approx(0.0, abs=1e-12) for o in orbits)

    def test_no_orbit_beyond_existence_bound(self):
        # one-step orbits need |delta| <= eps
        m = MapParams(0.2, 0.25, SIN, 0, 1)
        assert multistart_orbits(m, x0_grid=16, y0_values=(0.0, 0.1, -0.1)) == []

    def test_singular_start_reported_distinctly(self):
        # g'(x) = 0 makes the one-step periodicity Jacobian singular at
        # the starting point; that is reported, not swallowed
        from tonguelab.orbits import SingularJacobianError

        m = MapParams(0.2, 0.1, SIN, 0, 1)
        with pytest.raises(SingularJacobianError):
            solve_orbit_fixed_delta(PhaseState(math.pi / 2, 0.0), m)

    def test_residual_below_threshold(self):
        # delta well inside the q=3 tongue (upper edge ~eps^3/24)
        m = MapParams(0.2, 1.5e-4, SIN, 1, 3)
        orbits = multistart_orbits(m, x0_grid=24, y0_values=(0.0, 0.05))
        assert orbits
        for orbit in orbits:
            assert abs(orbit.residual.R) < 1e-12
            assert abs(orbit.residual.S) < 1e-12


class TestClassify:
    def test_saddle_at_pi(self):
        m = MapParams(0.2, 0.0, SIN, 0, 1)
        orbit = solve_orbit_fixed_delta(PhaseState(3.0, 0.0), m)
        assert orbit.states[0].x == pytest.approx(math.pi, abs=1e-9)
        # trace = 2 + g'(pi) = 2 + 0.2
        assert float(np.trace(monodromy(orbit.states, m))) == pytest.approx(2.2, abs=1e-12)
        assert orbit.kind == "saddle"

    def test_center_at_zero(self):
        m = MapParams(0.2, 0.0, SIN, 0, 1)
        orbit = solve_orbit_fixed_delta(PhaseState(0.2, 0.0), m)
        assert abs(orbit.states[0].x % (2 * math.pi)) < 1e-9
        assert float(np.trace(monodromy(orbit.states, m))) == pytest.approx(1.8, abs=1e-12)
        assert orbit.kind == "center"

    def test_unperturbed_parabolic(self):
        m = MapParams(0.0, 0.0, SIN, 1, 2)
        orbit = solve_orbit_fixed_delta(PhaseState(1.0, 0.0), m)
        assert orbit.kind == "parabolic"


class TestImplicitSolve:
    def test_unperturbed_trivial(self):
        m = MapParams(0.0, 0.0, SIN, 1, 3)
        for x0 in (0.0, 1.0, 4.0):
            (_, delta, y0, *_), ok = implicit(x0, 0.0, m)
            assert ok
            assert delta == 0.0
            assert y0 == 0.0

    def test_one_step_closed_form(self):
        m = MapParams(0.0, 0.0, SIN, 0, 1)
        for x0 in np.linspace(0, 2 * math.pi, 11):
            (_, delta, y0, *_), ok = implicit(float(x0), 0.3, m)
            assert ok
            assert delta == pytest.approx(-0.3 * math.sin(x0), abs=1e-13)
            assert y0 == pytest.approx(0.0, abs=1e-13)

    def test_matches_series_through_order_four(self):
        from tonguelab.series import expand

        m = MapParams(0.0, 0.0, SIN, 1, 2)
        (_, delta, *_), ok = implicit(0.3, 0.1, m)
        series_val = expand(m, 4).delta.eval(0.3, 0.1)
        assert ok
        assert abs(delta - series_val) < 5 * 0.1 ** 5

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 7).flatmap(lambda q: st.tuples(
               st.just(q), st.sampled_from([p for p in range(1, q) if math.gcd(p, q) == 1]))),
           st.floats(0.05, 0.4), st.floats(0.0, 2 * math.pi))
    def test_slopes_match_central_differences(self, qp, eps, x0):
        # D' and Y' against central differences of D and Y at x0 +- h and
        # x0 +- h/2; the gap between the two differences is three times the
        # truncation error of the finer one, and each D, Y is exact to about
        # TAU_NEWTON, which the difference divides by h
        m = MapParams(0.0, 0.0, SIN, qp[1], qp[0])
        pt, ok = implicit(x0, eps, m)
        assume(ok)
        h = 1e-3

        def central(step):
            (lo, lo_ok), (hi, hi_ok) = (implicit(x0 + s, eps, m, seed=pt[1:3])
                                        for s in (-step, step))
            assert lo_ok and hi_ok
            return (hi[1:3] - lo[1:3]) / (2 * step)

        coarse, fine = central(h), central(h / 2)
        bound = np.abs(coarse - fine) + 4 * orbits_module.TAU_NEWTON / h
        assert np.all(np.abs(pt[3:] - fine) <= bound)

    def test_converged_residuals_vanish(self):
        m = MapParams(0.0, 0.0, SIN, 1, 3)
        (x0, delta, y0, *_), ok = implicit(1.1, 0.2, m)
        assert ok
        res, _, _ = remainder_jet(x0, y0, delta, 0.2, m, 3)
        assert np.abs(res).max() < 1e-12

    def test_eps_ramp_reaches_larger_eps(self):
        # continue_in_x's eps ramp: at sin 2x, q=5, eps=0.8 some grid points
        # do not converge from the cold seed at the full eps
        f2 = TrigPoly.sine(2)
        for f, q, p, eps, grid, cold_misses in ((f2, 5, 2, 0.8, 64, True),
                                                (SIN, 6, 1, 0.5, 48, False)):
            m = MapParams(0.0, 0.0, f, p, q)
            pts, _ = continue_in_x(eps, m, grid)
            cold = [implicit(x0, eps, m)[1] for x0 in pts[0]]
            assert (not all(cold)) == cold_misses
            assert_profiles_match(pts, sequential_profile(eps, m, grid))


class TestContinuation:
    def test_unperturbed_all_zero(self):
        m = MapParams(0.0, 0.0, SIN, 1, 2)
        pts, _ = continue_in_x(0.0, m, 16)
        assert np.all(pts[1] == 0.0)

    def test_one_step_profile(self):
        m = MapParams(0.0, 0.0, SIN, 0, 1)
        pts, _ = continue_in_x(0.1, m, 32)
        for x0, delta in zip(pts[0], pts[1]):
            assert delta == pytest.approx(-0.1 * math.sin(x0), abs=1e-12)

    def test_wraparound_periodicity(self):
        m = MapParams(0.0, 0.0, SIN, 1, 3)
        pts, _ = continue_in_x(0.15, m, 24)
        wrapped, ok = implicit(2 * math.pi, 0.15, m, seed=pts[1:3, -1])
        assert ok
        assert abs(wrapped[1] - pts[1, 0]) < 1e-10

    def test_grid_size_validated(self):
        """A grid below 8q is raised to 8q: q=3 at grid 16 gives 24 points."""
        m = MapParams(0.0, 0.0, SIN, 1, 3)
        pts, iterations = continue_in_x(0.1, m, 16)
        assert pts.shape == (5, 24) and iterations.shape == (24,)
        assert np.array_equal(pts[0], np.linspace(0.0, 2 * math.pi, 24, endpoint=False))

    def test_batched_matches_sequential(self):
        # the batched cold-start profile against sequential one-point continuation
        m = MapParams(0.0, 0.0, SIN, 1, 2)
        assert_profiles_match(continue_in_x(0.12, m, 16)[0], sequential_profile(0.12, m, 16))

    def test_failed_ramp_stops(self, monkeypatch):
        # once every point of an eps ramp has failed, no further ramp step
        # is solved: no implicit solve receives an empty batch
        sizes = []
        solve = orbits_module._solve_implicit

        def counted(x0, *args, **kwargs):
            sizes.append(np.size(x0))
            return solve(x0, *args, **kwargs)

        monkeypatch.setattr(orbits_module, "_solve_implicit", counted)
        m = MapParams(0.0, 0.0, TrigPoly.sine(1, 50.0), 1, 3)
        with pytest.raises(ContinuationError):
            continue_in_x(3.0, m, 24)
        assert sizes and min(sizes) > 0

    def test_failure_reports_x0(self):
        # eps far outside any reasonable range: the sweep must name the
        # first angle that failed rather than silently skipping it
        m = MapParams(0.0, 0.0, TrigPoly.sine(1, 50.0), 1, 3)
        with pytest.raises(ContinuationError) as err:
            continue_in_x(3.0, m, 24)
        assert 0.0 <= err.value.x0 <= 2 * math.pi
        assert err.value.x0 == 0.0


def bench_q3_grid():
    """The first implicit solve of the q=3 p=1 bench sweep: its 64 grid
    points at each of 6 eps, all from the seed (0, 0)."""
    u = np.zeros((4, 384))
    u[0] = np.tile(np.linspace(0.0, 2 * math.pi, 64, endpoint=False), 6)
    u[3] = np.repeat([0.05, 0.1, 0.15, 0.2, 0.3, 0.4], 64)
    return u


def assert_batch_is_points_alone(u, m, unknowns):
    """``_newton`` on the batch ``u`` against each of its columns solved
    alone: status, iterations, the solved ``u`` and the final ``res, jac,
    path`` are equal, NaN to NaN."""
    alone = []
    for k in range(u.shape[1]):
        col = u[:, k:k + 1].copy()
        alone.append((*_newton(col, m, unknowns, _MAX_NEWTON_ITERS), col))
    batch = (*_newton(u, m, unknowns, _MAX_NEWTON_ITERS), u)
    for got, cols in zip(batch, zip(*alone)):
        assert np.array_equal(got, np.concatenate(cols, axis=-1), equal_nan=True)


class TestNewtonBatch:
    """Each point's Newton runs on its own: the working batch, its masked
    acceptance and its compaction leave every point's values as they are
    when it is solved alone."""

    @settings(max_examples=30, deadline=None)
    @given(f=st.sampled_from([TrigPoly.sine(1, 1.0), TrigPoly.sine(1, 5.0),
                              TrigPoly.sine(1, 50.0),
                              TrigPoly([0.0, 0.3, 0.0, 0.0], [1.0, 0.0, 0.2])]),
           q=st.integers(2, 7), unknowns=st.sampled_from([_IMPLICIT, _FIXED_DELTA]),
           starts=st.lists(st.tuples(st.floats(0.0, 2 * math.pi), st.floats(-0.5, 0.5),
                                     st.floats(-0.3, 0.3), st.floats(0.0, 3.0)),
                           min_size=1, max_size=40))
    def test_batch_is_its_points_solved_alone(self, f, q, unknowns, starts):
        assert_batch_is_points_alone(np.array(starts).T, MapParams(0.0, 0.0, f, 1, q),
                                     unknowns)

    def test_a_compacted_batch_is_its_points_solved_alone(self, monkeypatch):
        """On the q=3 bench grid 20 of 384 points are left for the last
        step: the batch shrinks to them, so its last full trial is a pass
        of 20 points, not 384."""
        sizes = []
        jet_pass = orbits_module.jet_pass

        def counted(ws, *starts):
            sizes.append(np.size(starts[0]))
            return jet_pass(ws, *starts)

        m = MapParams(0.0, 0.0, SIN, 1, 3)
        u = bench_q3_grid()
        monkeypatch.setattr(orbits_module, "jet_pass", counted)
        status, iterations, *_ = _newton(u.copy(), m, _IMPLICIT, _MAX_NEWTON_ITERS)
        assert np.bincount(iterations).tolist() == [0, 0, 55, 309, 20]
        assert sizes.count(384) == 4 and sizes[-1] == 20
        assert_batch_is_points_alone(u, m, _IMPLICIT)


class TestCrossValidation:
    def test_implicit_point_is_fixed_delta_orbit(self):
        from dataclasses import replace

        m = MapParams(0.0, 0.0, SIN, 1, 3)
        (x0, delta, y0, *_), ok = implicit(0.8, 0.2, m)
        assert ok
        m_at = replace(m, eps=0.2, delta=delta)
        orbit = solve_orbit_fixed_delta(PhaseState(x0, y0), m_at)
        assert orbit is not None
        assert orbit.states[0].x == pytest.approx(x0, abs=1e-10)
        assert orbit.states[0].y == pytest.approx(y0, abs=1e-10)

    def test_orbit_point_consistency(self):
        # the image point of an implicit solution carries the same drift
        # and its own momentum value
        from dataclasses import replace

        m = MapParams(0.0, 0.0, SIN, 1, 3)
        (x0, delta, y0, *_), _ = implicit(0.8, 0.2, m)
        m_at = replace(m, eps=0.2, delta=delta)
        s1 = step(PhaseState(x0, y0), m_at)
        (_, delta1, y1, *_), ok = implicit(s1.x, 0.2, m, seed=(delta, s1.y))
        assert ok
        assert abs(delta1 - delta) < 1e-10
        assert abs(y1 - s1.y) < 1e-10


class TestMultistart:
    def test_saddle_center_pair_inside_tongue(self):
        from tonguelab.tongue import width_at

        m = MapParams(0.2, 0.0, SIN, 1, 3)
        sample = width_at(m, 0.2, 48)
        from dataclasses import replace
        m_at = replace(m, delta=0.5 * sample.delta_max)
        orbits = multistart_orbits(m_at, x0_grid=48, y0_values=(0.0, 0.1, -0.1))
        kinds = sorted(o.kind for o in orbits)
        assert kinds == ["center", "saddle"]

    def test_distance_identifies_shifted_starts(self):
        m = MapParams(0.1, 0.0, SIN, 1, 4)
        a = solve_orbit_fixed_delta(PhaseState(0.3, 0.0), m)
        b = solve_orbit_fixed_delta(PhaseState(a.states[2].x, a.states[2].y), m)
        assert a is not None and b is not None
        assert orbit_distance(a, b) < 1e-9
