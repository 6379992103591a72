import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tonguelab import cylmap, orbits, tongue
from tonguelab.cylmap import MapParams, PhaseState
from tonguelab.orbits import ContinuationError, _solve_implicit, continue_in_x
from tonguelab.series import expand, predicted_width
from tonguelab.tongue import (InsufficientDataError, SweepFailure, SweepResult, TongueSample,
                              fit_exponent, orbits_at, sweep, width_at)
from tonguelab.trigpoly import TrigPoly, range_extrema

from orbit_oracle import (is_walk, iterate, monodromy, multistart_orbits, orbit_distance,
                          solve_orbits_fixed_delta)

SIN = TrigPoly.sine()


def grid_starts(eps):
    """Coarse Newton start grid: 32 phases times three actions."""
    return [(x, y) for x in np.linspace(0, 2 * math.pi, 32, endpoint=False)
            for y in (0.0, eps / 2, -eps / 2)]


def find_any_orbit(m, starts):
    """First orbit, in the order of ``starts``, that fixed-delta Newton
    reaches; all starts are solved in one batch."""
    return next((o for o in solve_orbits_fixed_delta(starts, m, max_iter=30)
                 if o is not None), None)


def bisect_edge(m, eps, upward, tol):
    """Tongue edge by bisection on fixed-delta orbit existence.

    Fully independent of the drift-profile route: it never evaluates the
    implicit solve, only fixed-delta Newton searches.  The validated start
    set is the center orbit's points plus the full grid; the crude bound
    ``eps * max|f|`` is checked to be outside with all of it.

    Each level first tries the points of the last orbit found, which is
    cheap when it works.  It does not always work: in thin tongues (q=4,
    eps=0.1 is 5e-6 wide) the damped Newton crawls along a curved valley
    and runs out of iterations from those points well inside the tongue.
    So a level is judged outside only when every validated start fails
    too.  Because such a verdict is the expensive one, the bracket is
    built from the inside out, doubling the drift from ``tol``, and each
    probe sits a quarter of the way in from the inside end.
    """
    sign = 1.0 if upward else -1.0

    def at(delta):
        return replace(m, eps=eps, delta=delta)

    center = find_any_orbit(at(0.0), grid_starts(eps))
    assert center is not None, "no orbit at the tongue center"
    validated = [(s.x, s.y) for s in center.states] + grid_starts(eps)
    # max{|f|} bounds the edge: S = 0 forces |delta| <= eps * max|f|
    hi, lo, _, _ = range_extrema(m.f)
    bound = 1.01 * max(abs(hi), abs(lo)) * eps + 1e-6
    assert find_any_orbit(at(sign * bound), validated) is None
    seeds = validated[:len(center.states)]

    def has_orbit(size):
        nonlocal seeds
        orbit = (find_any_orbit(at(sign * size), seeds)
                 or find_any_orbit(at(sign * size), validated))
        if orbit is not None:
            seeds = [(s.x, s.y) for s in orbit.states]
        return orbit is not None

    inside, probe = 0.0, tol
    while probe < bound and has_orbit(probe):
        inside, probe = probe, 2 * probe
    outside = min(probe, bound)
    while outside - inside > tol:
        probe = inside + 0.25 * (outside - inside)
        if has_orbit(probe):
            inside = probe
        else:
            outside = probe
    return sign * 0.5 * (inside + outside)


@st.composite
def sweep_cases(draw, mixed):
    """A map and an ascending eps list, q <= 8 and eps >= 1e-3, so that
    widths reach down to the Newton floor, with a forcing of ``sin kx``
    (k = 1, 2) or, when ``mixed``, ``sin x`` plus smaller harmonics."""
    q = draw(st.integers(2, 8))
    p = draw(st.sampled_from([p for p in range(1, q) if math.gcd(p, q) == 1]))
    small = st.floats(-0.3, 0.3)
    f = (TrigPoly([draw(small), draw(small)], [1.0, draw(small)]) if mixed
         else TrigPoly.sine(draw(st.integers(1, 2))))
    eps = sorted(draw(st.lists(st.floats(1e-3, 0.5), min_size=1, max_size=4)))
    return MapParams(0.0, 0.0, f, p, q), eps, draw(st.sampled_from([16, 32]))


def one_at_a_time(m, eps_list, grid):
    """The samples and failures of the sweep, each eps solved alone by
    :func:`width_at`."""
    samples, failures = [], []
    for eps in eps_list:
        try:
            samples.append(width_at(m, eps, grid))
        except ContinuationError as exc:
            failures.append(SweepFailure(eps, str(exc)))
    return tuple(samples), tuple(failures)


class TestWidthClosedForm:
    @pytest.mark.parametrize("eps", [0.05, 0.1, 0.2, 0.4])
    def test_one_step_width(self, eps):
        m = MapParams(0.0, 0.0, SIN, 0, 1)
        s = width_at(m, eps, 16)
        assert s.width == pytest.approx(2 * eps, rel=1e-10)
        assert s.delta_max == pytest.approx(eps, rel=1e-9)
        assert s.delta_min == pytest.approx(-eps, rel=1e-9)
        assert s.x_argmax == pytest.approx(3 * math.pi / 2, abs=1e-4)
        assert s.x_argmin == pytest.approx(math.pi / 2, abs=1e-4)

    def test_zero_eps(self):
        m = MapParams(0.0, 0.0, SIN, 1, 2)
        assert width_at(m, 0.0, 16).width == 0.0

    def test_reducible_rejected(self):
        with pytest.raises(ValueError):
            width_at(MapParams(0.0, 0.0, SIN, 2, 4), 0.1, 32)


class TestGlobalExtremum:
    """On coarse grids an extremum can fall inside a cell, between grid
    points; the edges, read off the critical points of the exact slope
    ``D'``, must still bound a dense profile."""

    @pytest.mark.parametrize("f,q,p,eps,grid", [
        (TrigPoly.sine(2), 5, 2, 0.5, 40),
        (TrigPoly.sine(2), 5, 2, 0.5, 64),
        (SIN, 7, 1, 0.5, 64),
        (TrigPoly([0, 0.3], [1, 0, 0.2]), 5, 1, 0.4, 40),
        (TrigPoly([0, 0.3], [1, 0, 0.2]), 6, 1, 1.0, 48),
        (TrigPoly.sine(3), 8, 5, 0.2, 64)],
        ids=["sin2x-q5p2-grid40", "sin2x-q5p2-grid64", "sin-q7p1-grid64", "mixed-q5p1-grid40",
             "mixed-q6p1-grid48", "sin3x-q8p5-grid64"])
    def test_edges_bound_a_dense_profile(self, f, q, p, eps, grid):
        m = MapParams(0.0, 0.0, f, p, q)
        sample = width_at(m, eps, grid)
        dense = continue_in_x(eps, m, 1024)[0][1]
        assert sample.delta_max >= dense.max() - 1e-12
        assert sample.delta_min <= dense.min() + 1e-12

    def test_cells_with_two_hidden_critical_points_are_split(self):
        # at 8q = 64 points, 8 cells of this profile hold two critical points
        # between end slopes of one sign: 32 sign changes of D' for 48
        m = MapParams(0.0, 0.0, TrigPoly.sine(3), 5, 8)
        _, pts, crit, grid = tongue._profile(m, 0.2, 64)
        assert grid == 64 and crit.shape[1] == 48
        assert np.all(np.diff(pts[0]) > 0)

    @pytest.mark.parametrize("f,q,eps,grid", [
        (SIN, 3, 1e-20, 24), (SIN, 3, 1e-100, 24),
        (TrigPoly([0.07309136242653802, -0.06978616236248625], [-0.081695349979101]),
         6, 0.0666, 48)],
        ids=["sin-q3-eps1e-20", "sin-q3-eps1e-100", "mixed-q6-eps0.0666"])
    def test_splitting_ends_at_the_newton_floor(self, monkeypatch, f, q, eps, grid):
        """At the Newton floor ``D'`` is round-off, and cell after cell holds
        a hidden max/min pair; a pair closer than ``TAU_NEWTON`` moves no
        edge and is not split, so the refinement solves few points."""
        solve_at, solved = tongue._solve_at, []

        def counted(x, *args):
            solved.append(x.size)
            assert sum(solved) <= grid, "refinement does not end"
            return solve_at(x, *args)

        monkeypatch.setattr(tongue, "_solve_at", counted)
        sample = width_at(MapParams(0.0, 0.0, f, 1, q), eps, grid)
        assert 0.0 <= sample.width < tongue.TAU_NEWTON


class TestBisectionOracle:
    def test_q2_matches_range_method(self):
        m = MapParams(0.0, 0.0, SIN, 1, 2)
        sample = width_at(m, 0.1, 32)
        tol_edge = 1e-9
        upper = bisect_edge(m, 0.1, True, tol_edge)
        lower = bisect_edge(m, 0.1, False, tol_edge)
        assert sample.width == pytest.approx(upper - lower, abs=1e-8)

    @pytest.mark.parametrize("q,p,eps", [(2, 1, 0.1), (2, 1, 0.2), (3, 1, 0.1),
                                         (3, 1, 0.2), (4, 1, 0.1), (4, 1, 0.2)])
    def test_oracle_equivalence(self, q, p, eps):
        m = MapParams(0.0, 0.0, SIN, p, q)
        sample = width_at(m, eps, max(32, 8 * q))
        tol = 1e-7 * max(sample.width, 1e-6)
        upper = bisect_edge(m, eps, True, tol / 4)
        lower = bisect_edge(m, eps, False, tol / 4)
        assert abs(upper - sample.delta_max) < tol / 2, "upper edge"
        assert abs(lower - sample.delta_min) < tol / 2, "lower edge"
        assert abs(sample.width - (upper - lower)) < tol


class TestOrbitsAt:
    """The orbits from the profile's roots against the multistart oracle,
    which never evaluates the profile."""

    @pytest.mark.parametrize("q,p,eps,f", [
        (1, 0, 0.2, SIN), (3, 1, 0.2, SIN), (4, 1, 0.1, SIN), (5, 1, 0.3, SIN),
        (7, 1, 0.4, SIN), (5, 2, 0.5, TrigPoly.sine(2))],
        ids=["q1p0", "q3p1", "q4p1", "q5p1", "q7p1", "sin2x-q5p2"])
    def test_parity_with_the_oracle(self, q, p, eps, f):
        """Same kinds as the oracle, and each orbit's q states follow the
        scalar reference step by step."""
        m = MapParams(eps, 0.0, f, p, q)
        sample = width_at(m, eps, 64)
        drifts = {"center": (0.0, True), "inside": ((1 - 1e-4) * sample.delta_max, True),
                  "upper fold": ((1 - 1e-6) * sample.delta_max, False),
                  "lower fold": ((1 - 1e-6) * sample.delta_min, False),
                  "outside": (sample.delta_max + 1e-3 * sample.width, False)}
        for name, (delta, close) in drifts.items():
            m_at = replace(m, delta=delta)
            found, profile, _ = orbits_at(m_at, 64)
            oracle = multistart_orbits(m_at, 64, (0.0, eps / 2, -eps / 2))
            assert sorted(o.kind for o in found) == sorted(o.kind for o in oracle), name
            assert (found != []) == (profile.delta_min <= delta <= profile.delta_max), name
            for orbit in found:
                assert max(abs(orbit.residual.R), abs(orbit.residual.S)) < 1e-10, name
                assert len(orbit.states) == q and is_walk(orbit.states, m_at), name
                if close:
                    assert min(orbit_distance(orbit, o) for o in oracle) < 1e-8, name

    def test_profile_solved_once(self, monkeypatch):
        # the roots are bracketed by the profile that gave the width
        calls = []

        def counted(*args):
            calls.append(args)
            return continue_in_x(*args)

        monkeypatch.setattr(tongue, "continue_in_x", counted)
        found, _, grid = orbits_at(MapParams(0.2, 1e-4, SIN, 1, 3), 64)
        assert grid == 64 and sorted(o.kind for o in found) == ["center", "saddle"]
        assert len(calls) == 1

    def test_grid_raised_to_eight_q(self):
        m = MapParams(0.2, 0.0, SIN, 1, 3)
        found, _, grid = orbits_at(m, 8)
        assert grid == 24
        assert sorted(o.kind for o in found) == ["center", "saddle"]

    def test_zero_eps(self):
        # a rotation: every grid point lies on a parabolic orbit at delta 0,
        # and an orbit through several grid points is one orbit
        for q, p, grid, count in ((3, 1, 64, 64), (3, 1, 48, 16), (2, 1, 64, 32)):
            found, _, used = orbits_at(MapParams(0.0, 0.0, SIN, p, q), grid)
            assert used == grid and len(found) == count
            assert {o.kind for o in found} == {"parabolic"}
        assert orbits_at(MapParams(0.0, 0.01, SIN, 1, 3), 48)[0] == []


class TestSweepAndFit:
    def test_grid_raised_to_eight_q(self):
        """width_at and sweep start from at least 8q points, as orbits_at does."""
        m = MapParams(0.0, 0.0, SIN, 1, 5)
        sample = width_at(m, 0.2, 40)
        assert width_at(m, 0.2, 24) == sample
        assert sweep(m, [0.2], grid=24).samples == (sample,)

    def test_empty_sweep(self):
        m = MapParams(0.0, 0.0, SIN, 1, 2)
        result = sweep(m, [])
        assert result.samples == () and result.failures == ()

    def test_unsorted_rejected(self):
        m = MapParams(0.0, 0.0, SIN, 1, 2)
        with pytest.raises(ValueError):
            sweep(m, [0.2, 0.1])

    @pytest.mark.parametrize("eps_list", [[math.nan], [-0.1, 0.1], [0.1, math.inf]])
    def test_malformed_eps_rejected_before_solving(self, monkeypatch, eps_list):
        """A non-finite or negative eps is an input error of the whole sweep,
        not a failure of one eps, and no profile is solved for it."""
        solved = []
        monkeypatch.setattr(tongue, "width_at", lambda *args: solved.append(args))
        with pytest.raises(ValueError, match="eps must be finite and >= 0"):
            sweep(MapParams(0.0, 0.0, SIN, 1, 3), eps_list)
        assert solved == []

    @pytest.mark.parametrize("q, p, eps_list, passes", [
        (3, 1, (0.05, 0.1, 0.15, 0.2, 0.3, 0.4), 10),
        (5, 1, (0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4), 11),
        (5, 2, (0.2, 0.3, 0.4), 10),
        (7, 1, (0.3, 0.4, 0.5), 26)], ids=["q3p1", "q5p1", "q5p2", "q7p1"])
    def test_bench_sweeps_make_their_kernel_passes(self, monkeypatch, q, p, eps_list, passes):
        """The kernel passes of the four bench tongue sweeps (grid 64),
        counted at :func:`~tonguelab.cylmap.jet_pass`, the one place a pass
        runs, under each name it is called by: the Newton's working batch
        and its compaction add none."""
        calls = []
        jet_pass = cylmap.jet_pass

        def counted(*args):
            calls.append(args)
            return jet_pass(*args)

        monkeypatch.setattr(cylmap, "jet_pass", counted)
        monkeypatch.setattr(orbits, "jet_pass", counted)
        sweep(MapParams(0.0, 0.0, SIN, p, q), eps_list, grid=64)
        assert len(calls) == passes

    @settings(max_examples=40, deadline=None)
    @given(sweep_cases(mixed=False))
    def test_sine_sweep_is_width_at_per_eps_bit_for_bit(self, case):
        """The batched sweep gives each eps the sample it gets alone: every
        point's Newton runs on its own, and for a single harmonic the kernel
        is bit for bit the same in any batch."""
        m, eps_list, grid = case
        assert sweep(m, eps_list, grid) == SweepResult(*one_at_a_time(m, eps_list, grid))

    @settings(max_examples=40, deadline=None)
    @given(sweep_cases(mixed=True))
    @example((MapParams(0.0, 0.0, TrigPoly([-0.167732356521698, 0.25, 0.0], [1.0, 0.015625]),
                        7, 8), [0.359375, 0.5], 16))
    def test_mixed_sweep_is_width_at_per_eps(self, case):
        """For a forcing of several harmonics too the batched sweep gives
        each eps the sample it gets alone, bit for bit: the kernel sums the
        harmonics of each start in one order in any batch.  In the example
        (a shallow q=8 profile, width 1.3e-4 at delta 0.06) the argmin at
        eps 0.359375 moved by 7.7e-12 relative when the sum was a BLAS
        product whose order changed with the batch size."""
        m, eps_list, grid = case
        assert sweep(m, eps_list, grid) == SweepResult(*one_at_a_time(m, eps_list, grid))

    def test_partly_failing_sweep(self):
        """An eps whose profile fails is dropped with its own error; the
        eps solved in the same batches keeps the sample it has alone."""
        m = MapParams(0.0, 0.0, TrigPoly([0.0], [50.0]), 1, 3)
        result = sweep(m, [0.1, 3.0], grid=24)
        assert result.samples == (width_at(m, 0.1, 24),)
        assert result.failures == (
            SweepFailure(3.0, "continuation failed at x0=0.000000, eps=3"),)
        with pytest.raises(ContinuationError, match="x0=0.000000, eps=3"):
            width_at(m, 3.0, 24)

    # the second window holds only the midpoint of a split cell
    @pytest.mark.parametrize("f,q,p,grid,window", [
        (SIN, 3, 1, 24, (0.3, 2.5)), (TrigPoly.sine(3), 8, 5, 64, (0.92, 0.95))],
        ids=["sin-q3p1", "sin3x-q8p5-split-midpoint"])
    def test_failed_refinement_point_fails_its_eps(self, monkeypatch, f, q, p, grid, window):
        """A point between grid points that fails from both seeds stays a NaN
        row until the edges are reduced, and a cell with a failed end is
        not bracketed: its eps fails with the error of its smallest failed
        x, and the other eps keeps its sample."""
        m, bad = MapParams(0.0, 0.0, f, p, q), 0.2
        alone, failed = width_at(m, 0.1, grid), []

        def faulty(x0, eps, *args):
            sol, ok, iterations = _solve_implicit(x0, eps, *args)
            hit = (eps == bad) & (window[0] < x0) & (x0 < window[1])
            failed.extend(x0[hit])
            return sol, ok & ~hit, iterations

        monkeypatch.setattr(tongue, "_solve_implicit", faulty)
        result = sweep(m, [0.1, bad], grid=grid)
        assert failed and result.samples == (alone,)
        message = str(ContinuationError(min(failed), bad))
        assert result.failures == (SweepFailure(bad, message),)
        with pytest.raises(ContinuationError, match=message):
            width_at(m, bad, grid)
        with pytest.raises(ContinuationError, match=message):
            orbits_at(replace(m, eps=bad), grid)

    def test_failed_root_fails_orbits_at(self, monkeypatch):
        """With the profile solved, a root of ``D = delta`` that fails from
        both bracket ends fails :func:`orbits_at` at its x."""
        m, failed, armed = MapParams(0.2, 0.0, SIN, 1, 3), [], []
        profile = tongue._profile

        def faulty(x0, eps, *args):
            sol, ok, iterations = _solve_implicit(x0, eps, *args)
            hit = bool(armed) & (0.3 < x0) & (x0 < 2.5)
            failed.extend(x0[hit])
            return sol, ok & ~hit, iterations

        def arming_profile(*args):
            solved = profile(*args)
            armed.append(True)
            return solved

        monkeypatch.setattr(tongue, "_solve_implicit", faulty)
        monkeypatch.setattr(tongue, "_profile", arming_profile)
        with pytest.raises(ContinuationError) as raised:
            orbits_at(m, 24)
        assert failed and str(raised.value) == str(ContinuationError(min(failed), 0.2))

    def test_one_step_closed_form_sweep(self):
        m = MapParams(0.0, 0.0, SIN, 0, 1)
        eps_list = [0.05, 0.1, 0.2, 0.3, 0.4]
        result = sweep(m, eps_list, grid=16)
        assert not result.failures
        for s, eps in zip(result.samples, eps_list):
            assert s.width == pytest.approx(2 * eps, rel=1e-9)

    def test_widths_monotone_for_sine(self):
        m = MapParams(0.0, 0.0, SIN, 1, 3)
        widths = [s.width for s in sweep(m, list(np.linspace(0.1, 0.35, 6)), grid=32).samples]
        assert all(a < b for a, b in zip(widths, widths[1:]))

    def test_exact_power_law_fit(self):
        samples = [TongueSample(e, 3 * e ** 2, 0, 0, 0, 0)
                   for e in np.geomspace(0.05, 0.4, 8)]
        fit = fit_exponent(samples)
        assert fit.exponent == pytest.approx(2.0, abs=1e-6)
        assert fit.log_prefactor == pytest.approx(math.log(3.0), abs=1e-6)
        assert fit.residual < 1e-9

    def test_insufficient_data(self):
        samples = [TongueSample(0.1, 1e-3, 0, 0, 0, 0)] * 4
        with pytest.raises(InsufficientDataError):
            fit_exponent(samples)
        # widths at the solver floor are not usable either
        tiny = [TongueSample(0.1 * k, 1e-10, 0, 0, 0, 0) for k in range(1, 7)]
        with pytest.raises(InsufficientDataError):
            fit_exponent(tiny)

    def test_sine_q3_exponent(self):
        m = MapParams(0.0, 0.0, SIN, 1, 3)
        result = sweep(m, list(np.geomspace(0.1, 0.35, 7)), grid=32)
        fit = fit_exponent(result.samples)
        assert abs(fit.exponent - 3.0) < 0.15

    def test_degree_two_exponent_matches_series(self):
        f2 = TrigPoly.sine(2)
        m = MapParams(0.0, 0.0, f2, 1, 4)
        sol = expand(m, 3)
        assert sol.r == 2
        result = sweep(m, list(np.geomspace(0.1, 0.35, 7)), grid=32)
        fit = fit_exponent(result.samples)
        assert abs(fit.exponent - sol.r) < 0.2

    def test_exponent_at_least_q_over_d(self):
        for f, q, p in ((SIN, 2, 1), (SIN, 3, 1), (TrigPoly.sine(2), 4, 1)):
            m = MapParams(0.0, 0.0, f, p, q)
            result = sweep(m, list(np.geomspace(0.1, 0.35, 6)), grid=32)
            fit = fit_exponent(result.samples)
            assert fit.exponent >= q / f.degree() - 0.25


class TestSeriesAgreement:
    def test_width_ratio_improves(self):
        m = MapParams(0.0, 0.0, SIN, 1, 2)
        sol = expand(m, 2)
        ratios = []
        for eps in (0.2, 0.1, 0.05):
            measured = width_at(m, eps, 32).width
            ratios.append(measured / predicted_width(sol, eps))
        assert abs(ratios[-1] - 1.0) < abs(ratios[0] - 1.0)
        assert abs(ratios[-1] - 1.0) < 0.02


class TestSignSymmetry:
    @pytest.mark.parametrize("q,p", [(1, 0), (2, 1), (3, 1)])
    def test_odd_forcing_symmetric_tongue(self, q, p):
        m = MapParams(0.0, 0.0, SIN, p, q)
        s = width_at(m, 0.15, max(16, 8 * q))
        assert s.delta_min == pytest.approx(-s.delta_max, abs=1e-10)


class TestSaddleNode:
    def test_one_step_locus(self):
        m = MapParams(0.0, 0.0, SIN, 0, 1)
        sample = width_at(m, 0.2, 16)
        plus, minus = sample.delta_max, sample.delta_min
        assert plus == pytest.approx(0.2, rel=1e-9)
        assert minus == pytest.approx(-0.2, rel=1e-9)

    def test_pair_exists_inside_none_outside(self):
        m = MapParams(0.2, 0.0, SIN, 1, 3)
        plus = width_at(m, 0.2, 48).delta_max
        inside = multistart_orbits(replace(m, delta=plus - 1e-6), x0_grid=48,
                                   y0_values=(0.0, 0.1, -0.1))
        kinds = sorted(o.kind for o in inside)
        assert kinds == ["center", "saddle"]
        sample = width_at(m, 0.2, 48)
        outside = multistart_orbits(replace(m, delta=plus + 1e-3 * sample.width),
                                    x0_grid=48, y0_values=(0.0, 0.1, -0.1))
        assert outside == []

    def test_trace_two_at_merge(self):
        m = MapParams(0.0, 0.0, SIN, 1, 3)
        sample = width_at(m, 0.2, 48)
        pts, ok, _ = _solve_implicit([sample.x_argmax], 0.2, m, [0.0], [0.0])
        assert ok[0]
        x0, delta, y0 = pts[:3, 0].tolist()
        m_at = replace(m, eps=0.2, delta=delta)
        states = iterate(PhaseState(x0, y0), m_at, 2)
        trace = float(np.trace(monodromy(states, m_at)))
        assert abs(trace - 2.0) < 1e-4
