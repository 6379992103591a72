import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tonguelab import sgchain
from tonguelab.cylmap import MapParams, PhaseState
from tonguelab.orbits import solve_orbit_fixed_delta
from tonguelab.sgchain import (DEFAULT_HORIZON, PERIOD_STEP_RTOL, TAU_WAVE, BlowUpError,
                               ChainParams, ChainState, InvalidBracketError,
                               StepRefinementError, UnconfirmedFoldError, _classify_attractor,
                               _settles_or_depins, classify_attractor, critical_torque,
                               default_dt, integrate, stability_limit, twist_state)
from tonguelab.tongue import width_at
from tonguelab.trigpoly import TrigPoly

from orbit_oracle import iterate, kick

# The chain of the critical-torque cross-check and the start-dependence test.
PINNING = ChainParams(q=2, p=1, gamma=0.25, eps=0.6, delta=0.0)
# A q=3 chain just below (0.005) and above (0.012) its critical torque.
Q3 = ChainParams(q=3, p=1, gamma=0.5, eps=0.6, delta=0.0)
# RK4's stability interval on the negative real axis.
RK4_REAL_LIMIT = 2.785293563405282


def old_dt(c):
    """The fixed step budget that the chain used before its step was checked."""
    return 0.1 / math.sqrt(c.eps + 4.0)


def rk4_gain(z):
    """RK4's amplification factor R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24."""
    return 1.0 + z * (1.0 + z * (0.5 + z * (1.0 / 6.0 + z / 24.0)))


def reference_step(x, v, c, h):
    """One classical RK4 step written site by site (rows are independent chains)."""
    wrap = 2.0 * math.pi * c.p

    def accel(xx, vv):
        lap = np.empty_like(xx)
        lap[..., 1:-1] = xx[..., 2:] - 2.0 * xx[..., 1:-1] + xx[..., :-2]
        lap[..., 0] = xx[..., 1] - 2.0 * xx[..., 0] + xx[..., -1] - wrap
        lap[..., -1] = xx[..., 0] + wrap - 2.0 * xx[..., -1] + xx[..., -2]
        return lap + c.delta - c.gamma * vv - c.eps * np.sin(xx)

    h2, h6 = 0.5 * h, h / 6.0
    k1v = accel(x, v)
    k2x = v + h2 * k1v
    k2v = accel(x + h2 * v, k2x)
    k3x = v + h2 * k2v
    k3v = accel(x + h2 * k2x, k3x)
    k4x = v + h * k3v
    k4v = accel(x + h * k3x, k4x)
    return (x + h6 * (v + 2.0 * (k2x + k3x) + k4x),
            v + h6 * (k1v + 2.0 * (k2v + k3v) + k4v))


def run_500(s0, c, dt):
    """``integrate`` over 500 steps of ``dt``, every step recorded, and its h."""
    t_end = 500 * dt
    traj = integrate(s0, c, dt, t_end, record_every=1)
    assert len(traj.times) == 501
    return traj, t_end / 500


def settle(s0, c):
    report, state = _classify_attractor(s0, c, DEFAULT_HORIZON, default_dt(c))
    assert report.kind == "equilibrium"
    return ChainState(0.0, state.pos, np.zeros(c.q))


def classify_recording_wave_tests(monkeypatch, c):
    """``classify_attractor`` from the twisted start, and every wave test it
    ran: the state tested, the step and the report (``None`` if it failed)."""
    try_wave, tested = sgchain._try_wave, []

    def recording(state, chain, dt, times, rows, t_return):
        result = try_wave(state, chain, dt, times, rows, t_return)
        tested.append((state, dt, result[0]))
        return result

    monkeypatch.setattr(sgchain, "_try_wave", recording)
    return classify_attractor(twist_state(c), c), tested


@st.composite
def chains(draw):
    q = draw(st.integers(2, 9))
    return ChainParams(q=q, p=draw(st.integers(0, q)), gamma=draw(st.floats(0.05, 2.0)),
                       eps=draw(st.floats(0.0, 3.0)), delta=draw(st.floats(-0.5, 0.5)))


class TestIntegrate:
    @settings(max_examples=60, deadline=None)
    @given(chains(), st.data())
    def test_each_step_is_the_per_site_rk4_step(self, c, data):
        """Every one of 500 steps matches the site-by-site RK4 step taken
        from the same recorded state, to rounding.

        Compared step by step rather than over the whole run: in the
        chaotic transients at small gamma and large eps, rounding
        differences of a few ulps grow past 1e-11 within 500 steps (from
        a random start at q=5, p=2, gamma=0.054, eps=2.06, a one-ulp
        change of the start alone moves the site-by-site run by 4.6e-11).
        """
        site = st.floats(-3.0, 3.0)
        lift = data.draw(st.floats(-100.0, 100.0))
        pos = (lift + twist_state(c).pos
               + np.array(data.draw(st.lists(site, min_size=c.q, max_size=c.q))))
        vel = np.array(data.draw(st.lists(site, min_size=c.q, max_size=c.q)))
        traj, h = run_500(ChainState(0.0, pos, vel), c, default_dt(c))
        x, v = reference_step(traj.rows[:-1, 0], traj.rows[:-1, 1], c, h)
        scale = np.maximum(1.0, np.abs(traj.rows[:-1, 0]).max(axis=1, keepdims=True))
        assert np.all(np.abs(x - traj.rows[1:, 0]) <= 1e-14 * scale)
        assert np.all(np.abs(v - traj.rows[1:, 1]) <= 1e-14 * scale)

    @pytest.mark.parametrize("c", [
        replace(PINNING, delta=0.01),
        replace(PINNING, delta=0.04375),
        ChainParams(q=3, p=1, gamma=0.5, eps=0.6, delta=0.005),
        ChainParams(q=3, p=1, gamma=0.5, eps=0.6, delta=0.012),
        ChainParams(q=7, p=2, gamma=0.1, eps=3.0, delta=-0.5),
    ])
    def test_whole_run_matches_per_site_rk4(self, c):
        """The lab's chains from the twisted start: 500 steps agree with the
        site-by-site RK4 run within 1e-11 * max(1, |x|).

        Run at the old fixed step ``old_dt``, not at the 8 times longer
        ``default_dt``: over 500 of those longer steps the chaotic q=7,
        eps=3, gamma=0.1 chain grows ulp-level rounding differences past
        1e-11.  The step at ``default_dt`` is pinned step by step above."""
        traj, h = run_500(twist_state(c), c, old_dt(c))
        x, v = twist_state(c).pos, twist_state(c).vel
        for n in range(1, 501):
            x, v = reference_step(x, v, c, h)
            scale = max(1.0, float(np.max(np.abs(x))))
            assert np.max(np.abs(traj.rows[n, 0] - x)) <= 1e-11 * scale
            assert np.max(np.abs(traj.rows[n, 1] - v)) <= 1e-11 * scale

    @pytest.mark.parametrize("steps", [0, 48, 50])
    @pytest.mark.parametrize("k", [0, 1, 3, 8])
    def test_recording_contract(self, k, steps):
        c = ChainParams(q=3, p=1, gamma=0.5, eps=0.6, delta=0.012)
        dt = default_dt(c)
        s0 = ChainState(2.5, twist_state(c).pos + 0.1, np.full(3, 0.2))
        traj = integrate(s0, c, dt, steps * dt, record_every=k)
        every = integrate(s0, c, dt, steps * dt, record_every=1)
        h = steps * dt / steps if steps else dt
        rows = 2 if k == 0 else 1 + steps // k + (steps % k != 0)
        marks = list(range(0, steps + 1, k)) if k else [0]
        if k == 0 or marks[-1] != steps:
            marks.append(steps)
        assert len(traj.times) == rows == len(marks)
        assert traj.rows.shape == (rows, 2, 3)  # positions over velocities
        np.testing.assert_allclose(traj.times, s0.t + np.array(marks) * h, rtol=1e-15, atol=0)
        # the recorded rows are the states after exactly those steps
        assert np.array_equal(traj.rows, every.rows[marks])
        assert np.array_equal(traj.rows[0], [s0.pos, s0.vel])
        assert traj.final.t == traj.times[-1]
        assert np.array_equal(traj.rows[-1], [traj.final.pos, traj.final.vel])

    def test_final_state_does_not_alias_the_records(self):
        c = replace(PINNING, delta=0.01)
        traj = integrate(twist_state(c), c, default_dt(c), 1.0)
        traj.rows[-1] = 0.0
        assert np.all(traj.final.pos != 0.0)

    @pytest.mark.parametrize("dt", [0.0, -0.01])
    def test_nonpositive_dt(self, dt):
        c = replace(PINNING, delta=0.01)
        with pytest.raises(ValueError, match="dt must be positive"):
            integrate(twist_state(c), c, dt, 1.0)

    def test_dt_over_budget(self):
        c = replace(PINNING, delta=0.01)
        with pytest.raises(ValueError, match="stability limit"):
            integrate(twist_state(c), c, 1.01 * stability_limit(c), 1.0)

    @pytest.mark.parametrize("c", [replace(PINNING, delta=0.01),
                                   ChainParams(q=3, p=1, gamma=10.0, eps=0.0, delta=0.0),
                                   ChainParams(q=3, p=1, gamma=10.0, eps=3.0, delta=0.0)])
    def test_dt_just_above_the_stability_limit(self, c):
        """Also for overdamped chains, whose real root sets the limit."""
        limit = stability_limit(c)
        integrate(twist_state(c), c, limit, 1.0)
        with pytest.raises(ValueError, match="stability limit"):
            integrate(twist_state(c), c, limit * (1.0 + 1e-9), 1.0)

    @pytest.mark.parametrize("gamma,eps", [(0.25, 0.6), (0.01, 3.0), (2.0, 3.0), (3.5, 0.0),
                                           (10.0, 0.0), (10.0, 3.0), (4.0, 12.0)])
    def test_stability_limit_is_the_least_over_the_root_locus(self, gamma, eps):
        """Every decaying root of lambda^2 + gamma lambda + omega^2 = 0, for
        omega^2 on a grid over [-eps, eps + 4] (where cos x_k < 0 the
        stiffness goes down to -eps), is stable at every step up to the
        limit, and some root is unstable just above it."""
        w2 = np.linspace(-eps, eps + 4.0, 2001)
        disc = np.sqrt((0.25 * gamma ** 2 - w2).astype(complex))
        roots = np.concatenate([-0.5 * gamma + disc, -0.5 * gamma - disc])
        roots = roots[roots.real <= 0.0]  # a positive root grows in the chain too
        limit = stability_limit(ChainParams(q=3, p=1, gamma=gamma, eps=eps, delta=0.0))
        steps = np.linspace(0.0, limit * (1.0 - 1e-9), 200)
        assert np.abs(rk4_gain(np.outer(steps, roots))).max() <= 1.0
        assert np.abs(rk4_gain(limit * (1.0 + 1e-6) * roots)).max() > 1.0

    def test_strong_damping_runs_at_the_default_step(self):
        """At gamma = 10 the step h sqrt(eps + 4) = 0.8 would be unstable
        (h gamma = 4 > 2.785); the cap keeps the default step stable."""
        c = ChainParams(q=3, p=1, gamma=10.0, eps=0.0, delta=0.0)
        assert stability_limit(c) == pytest.approx(RK4_REAL_LIMIT / c.gamma, rel=1e-12)
        assert 0.8 / math.sqrt(c.eps + 4.0) > stability_limit(c)
        s0 = ChainState(0.0, twist_state(c).pos + [0.5, -0.3, 0.2], np.ones(3))
        traj = integrate(s0, c, default_dt(c), 200.0)
        assert np.abs(traj.final.vel).max() < 1e-3

    def test_negative_t_end(self):
        c = replace(PINNING, delta=0.01)
        with pytest.raises(ValueError, match="t_end must be >= 0"):
            integrate(twist_state(c), c, default_dt(c), -1.0)

    def test_runaway_chain_blows_up(self):
        c = ChainParams(q=3, p=1, gamma=0.5, eps=0.0, delta=1e12)
        with pytest.raises(BlowUpError, match="exceeded"):
            integrate(twist_state(c), c, default_dt(c), 10.0)

    def test_blow_up_is_caught_within_32_steps_of_the_crossing(self):
        """The runaway test runs after steps 1, 33, 65, ...: a run may pass
        BLOWUP_LIMIT between two tests and end there without raising, and a
        longer run raises at the next test, within 32 steps of the crossing."""
        # uniform sites at rest (p = 0, eps = 0) obey x'' + gamma x' = delta:
        # |x| passes the limit at t ~ 26.2, between steps 65 and 66 of h = 0.4,
        # just after a test, so a test every 64 steps would be caught out
        c = ChainParams(q=2, p=0, gamma=0.5, eps=0.0, delta=2.066e6)
        s0, h = twist_state(c), default_dt(c)
        # it stops at the last step before the test at step 97
        short = integrate(s0, c, h, 96 * h, record_every=1)
        over = np.max(np.abs(short.rows[:, 0]), axis=1) > sgchain.BLOWUP_LIMIT
        k = int(np.argmax(over))
        assert 1 < k < 96 and over[k:].all() and not over[:k].any()
        with pytest.raises(BlowUpError) as raised:
            integrate(s0, c, h, 200 * h)
        found = re.fullmatch(r"\|position\| exceeded 1e\+08 at t=(\S+)", str(raised.value))
        assert found is not None
        assert k * h <= float(found.group(1)) <= (k + 32) * h


def confirmed_torque(c, bracket):
    """``critical_torque(c, bracket)``, checked to confirm its fold as it
    documents: two probes, at ``fold + mu`` and ``fold + 4 mu``, both
    depin by escape, ``mu`` sized from the returned normal form ``(A,
    B)`` so that ``pi gamma / sqrt(A B mu)`` is two ``CHECK_EVERY`` spans,
    within ``[FOLD_PROBE_RTOL/2, 8e-3]`` times the fold.  Both start at
    rest from an equilibrium of the chain at ``fold (1 -
    FOLD_PROBE_RTOL/2)`` (to 1e-12) whose Hessian ``eps diag(cos x) -
    lap`` has a Cholesky factor: a strict minimum of the potential, so the
    branch is stable there.  Their escape times extrapolate to a threshold
    within ``FOLD_LAW_RTOL`` of the fold.  The classifier runs once, at
    the bracket's lower end, and ``rk4_steps`` counts that run and the two
    probes.  Records the probes' starts and the classifier's runs around
    whatever ``_settles_or_depins`` and ``_classify_attractor`` are in
    place."""
    starts, probe = [], sgchain._settles_or_depins
    runs, classify = [], sgchain._classify_attractor

    def recording(s0, chain, horizon, dt):
        starts.append(s0)
        return probe(s0, chain, horizon, dt)

    def classifying(s0, chain, horizon, dt):
        report, state = classify(s0, chain, horizon, dt)
        runs.append((chain.delta, report.rk4_steps))
        return report, state

    with pytest.MonkeyPatch.context() as m:
        m.setattr(sgchain, "_settles_or_depins", recording)
        m.setattr(sgchain, "_classify_attractor", classifying)
        result = critical_torque(c, bracket)
    fold, rtol = result.critical_delta, sgchain.FOLD_PROBE_RTOL
    a, b = result.normal_form
    mu = (math.pi * c.gamma / (2 * sgchain.CHECK_EVERY)) ** 2 / (a * b)
    mu = min(max(mu, rtol / 2 * fold), 8e-3 * fold)
    assert a > 0 and b > 0 and result.mu == mu
    near, far = result.probes
    assert [(p.delta, p.outcome, p.decided_by) for p in result.probes] == [
        (fold + mu, "depinned", "escape"), (fold + 4 * mu, "depinned", "escape")]
    assert runs == [(bracket[0], result.rk4_steps - near.rk4_steps - far.rk4_steps)]
    assert 0 < far.escape_time < near.escape_time
    slow, fast = near.escape_time ** -2, far.escape_time ** -2
    assert result.delta_star == near.delta - slow * (far.delta - near.delta) / (fast - slow)
    assert abs(result.delta_star - fold) <= sgchain.FOLD_LAW_RTOL * fold
    assert len(starts) == 2 and starts[0] is starts[1]
    below = replace(c, delta=fold * (1 - rtol / 2))
    assert np.abs(equilibrium_residual(starts[0].pos, below)).max() <= 1e-12
    assert np.array_equal(starts[0].vel, np.zeros(c.q))
    lap = np.roll(np.eye(c.q), 1, axis=0) + np.roll(np.eye(c.q), -1, axis=0) - 2.0 * np.eye(c.q)
    # raises unless positive definite
    np.linalg.cholesky(c.eps * np.diag(np.cos(starts[0].pos)) - lap)
    return result


@st.composite
def sine_chains(draw):
    """Sine chains whose fold the probes confirm.  A seeded sweep of 376
    chains (every q, p and range corner among them) agreed with the Newton
    edge to 3e-12 when eps started at 0.8; stronger eps (1.8 to 2.5 at
    gamma 0.3 to 0.6) put a wave at 0.5 times the edge in 2 of 16 seeded
    chains, where the lower end must settle to an equilibrium, and the
    other 14 confirmed the edge to 2e-14.  Down to eps 0.5, where the
    folds are small and the probes slow (see
    ``test_a_small_fold_confirms_within_the_default_horizon``), a seeded
    sweep of 189 chains (150 drawn, the 36 range corners, and the CI and
    small-fold chains) confirmed each fold, at the Newton edge to 1e-9, in
    at most 191,655 RK4 steps."""
    q = draw(st.integers(2, 5))
    p = draw(st.sampled_from([p for p in range(1, q) if math.gcd(p, q) == 1]))
    return ChainParams(q=q, p=p, gamma=draw(st.floats(0.3, 1.5)), eps=draw(st.floats(0.5, 1.5)),
                       delta=0.0)


class TestCriticalTorque:
    def test_probe_outcome_depends_on_the_start(self):
        """Underdamped and hysteretic: at delta=0.04375 the pinned state
        settled at 0.01 depins, while the one continued to 0.0325 settles.
        So the fold probes start on the pinned branch just below the fold,
        not from the bracket's lower end, and no run from one start stands
        for the pinned side of the fold."""
        low = settle(twist_state(PINNING), replace(PINNING, delta=0.01))
        near = settle(low, replace(PINNING, delta=0.0325))
        probe = replace(PINNING, delta=0.04375)
        dt = default_dt(probe)
        assert _settles_or_depins(low, probe, DEFAULT_HORIZON, dt).outcome == "depinned"
        assert _settles_or_depins(near, probe, DEFAULT_HORIZON, dt).outcome == "equilibrium"

    def test_matches_newton_tongue_edge(self):
        """The chain's fold solves the map's tongue-edge equations, and the
        probes confirm it: the critical torque is the edge to rounding."""
        for c, bracket in [(PINNING, (0.01, 0.1)), (Q3, (0.005, 0.012))]:
            crit = critical_torque(c, bracket).critical_delta
            edge = width_at(MapParams(0.0, 0.0, TrigPoly.sine(), c.p, c.q), c.eps, 64).delta_max
            assert crit == pytest.approx(edge, rel=1e-9, abs=0.0)

    def test_a_pinned_end_below_the_inflection_still_reaches_the_fold(self):
        """At delta = -0.02 the torque falls toward the branch's other end, so
        the branch is continued up in delta before Newton seeks the fold.
        The probes start on the branch just below the fold: a probe at 0.04
        started from the equilibrium at -0.02 depins by overshoot, 10 %
        below the fold (a bisection from there found 0.03999)."""
        result = confirmed_torque(PINNING, (-0.02, 0.1))
        edge = width_at(MapParams(0.0, 0.0, TrigPoly.sine(), 1, 2), 0.6, 64).delta_max
        assert result.critical_delta == pytest.approx(edge, rel=1e-9, abs=0.0)

    def test_a_lower_end_just_below_the_fold_still_probes_both_sides(self):
        """The bracket's lower end 0.0087978 lies between the torque of the
        probes' start and the q=3 fold 0.0087995: the pinned side is still
        certified there, the probes still run, and the torque is the fold.
        (When probes outside the bracket were skipped, the upper probe alone
        ran and a bisection returned 0.0088009.)"""
        result = confirmed_torque(Q3, (0.0087978, 0.012))
        edge = width_at(MapParams(0.0, 0.0, TrigPoly.sine(), 1, 3), 0.6, 64).delta_max
        assert result.critical_delta * (1 - sgchain.FOLD_PROBE_RTOL / 2) < 0.0087978
        assert result.critical_delta == pytest.approx(edge, rel=1e-9, abs=0.0)

    @settings(max_examples=6, deadline=None)
    @given(sine_chains())
    def test_is_the_newton_tongue_edge_across_chains(self, c):
        """With the bracket (0.5, 1.5) times the Newton edge, the fold is the
        edge to rounding, the branch is a strict minimum just below it and
        the probes above it depin as the bottleneck law predicts."""
        edge = width_at(MapParams(0.0, 0.0, TrigPoly.sine(), c.p, c.q), c.eps, 64).delta_max
        result = confirmed_torque(c, (0.5 * edge, 1.5 * edge))
        assert result.critical_delta == pytest.approx(edge, rel=1e-9, abs=0.0)

    def test_a_small_fold_confirms_within_the_default_horizon(self):
        """Near a small fold, 3.4e-4 here, the normal form puts the probes
        at ``fold (1 + 8e-3)`` and ``fold (1 + 3.2e-2)``, the clamp's
        upper end.  They escape at t = 18,630 and 8,433, after 49,609 and
        22,477 RK4 steps, and the whole torque, with the classification of
        the bracket's lower end, takes 83,125 steps.  One
        probe at ``fold (1 + FOLD_PROBE_RTOL/2)`` crawled through the
        bottleneck to t = 98,550 of the 1e5 horizon, and the torque took
        293,267 steps; started a whole FOLD_PROBE_RTOL below the fold, it
        did not escape within the horizon."""
        c = ChainParams(q=5, p=2, gamma=1.131, eps=0.525, delta=0.0)
        edge = width_at(MapParams(0.0, 0.0, TrigPoly.sine(), c.p, c.q), c.eps, 64).delta_max
        result = confirmed_torque(c, (0.5 * edge, 1.5 * edge))
        assert result.critical_delta == pytest.approx(edge, rel=1e-9, abs=0.0)
        assert result.mu == 8e-3 * result.critical_delta
        assert result.rk4_steps <= 90_000

    def test_a_wave_the_upper_end_run_missed_confirms_its_fold(self):
        """At low damping a run from rest at 1.5 times the edge whirled
        without a decided wave over the whole horizon (370,196 RK4 steps),
        and a torque that classified its upper end raised.  The fold needs
        no run there: it is the edge to rounding, confirmed by the probes."""
        c = ChainParams(q=3, p=2, gamma=0.1434, eps=1.4655, delta=0.0)
        edge = width_at(MapParams(0.0, 0.0, TrigPoly.sine(), c.p, c.q), c.eps, 64).delta_max
        result = confirmed_torque(c, (0.5 * edge, 1.5 * edge))
        assert result.critical_delta == pytest.approx(edge, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("c,bracket", [(PINNING, (0.01, 0.1)), (Q3, (0.005, 0.012))])
    def test_escape_times_follow_the_normal_form(self, c, bracket):
        """Each probe starts at rest on the branch ``mu0 = fold
        FOLD_PROBE_RTOL/2`` below the fold, at ``s0 = -sqrt(A mu0/B)`` on the
        null vector, from which ``gamma s' = A mu + B s^2`` crosses the
        bottleneck in ``gamma/sqrt(A B mu) (pi/2 + atan(sqrt(mu0/mu)))``.
        Each escape time is that to within 20 % (0.92 to 1.17 times it
        here, 0.90 to 1.27 over 33 sine chains at gamma 0.25-1.5): the run
        agrees with the normal form's A and B."""
        result = critical_torque(c, bracket)
        a, b = result.normal_form
        fold = result.critical_delta
        mu0 = fold * sgchain.FOLD_PROBE_RTOL / 2
        for probe in result.probes:
            mu = probe.delta - fold
            passage = (c.gamma / math.sqrt(a * b * mu)
                       * (math.pi / 2 + math.atan(math.sqrt(mu0 / mu))))
            assert 0.8 <= probe.escape_time / passage <= 1.2

    @pytest.mark.parametrize("c,bracket", [(PINNING, (0.01, 0.1)), (Q3, (0.005, 0.012))])
    def test_does_not_move_with_the_step(self, monkeypatch, c, bracket):
        """The fold and the probes' start are equilibria, which are fixed
        points of the RK4 step at any stable h: halving the start step gives
        the same torque."""
        coarse = critical_torque(c, bracket).critical_delta
        start = sgchain.default_dt
        monkeypatch.setattr(sgchain, "default_dt", lambda chain: 0.5 * start(chain))
        assert critical_torque(c, bracket).critical_delta == coarse

    @pytest.mark.parametrize("bracket", [(0.05, 0.05), (0.1, 0.05)])
    def test_bracket_must_be_ordered(self, bracket):
        with pytest.raises(InvalidBracketError, match="lo < hi"):
            critical_torque(PINNING, bracket)

    @pytest.mark.parametrize("horizon", [math.nan, math.inf, 0.0, -5.0])
    def test_horizon_must_be_finite_and_positive(self, horizon):
        with pytest.raises(ValueError, match="horizon must be finite and > 0"):
            critical_torque(PINNING, (0.01, 0.1), horizon=horizon)
        with pytest.raises(ValueError, match="horizon must be finite and > 0"):
            classify_attractor(twist_state(PINNING), PINNING, horizon=horizon)

    def test_a_probe_at_rest_on_a_saddle_is_undecided(self):
        """The twisted q=2 start (0, pi) is an equilibrium at zero torque whose
        Hessian has a negative eigenvalue: the probe never moves, and the
        velocity test must not call it pinned."""
        probe = _settles_or_depins(twist_state(PINNING), PINNING, DEFAULT_HORIZON,
                                   default_dt(PINNING))
        assert (probe.outcome, probe.decided_by) == ("undecided", "velocity")

    def test_no_equilibrium_at_lo(self):
        with pytest.raises(InvalidBracketError, match="no equilibrium at delta=0.1") as info:
            critical_torque(PINNING, (0.1, 0.2))
        assert (info.value.lo, info.value.hi) == (0.1, 0.2)

    def test_a_saddle_at_lo_is_no_equilibrium(self):
        """At delta = 0 the twisted start (0, pi) is an exact equilibrium, at
        rest, whose Hessian has a negative eigenvalue: no attractor."""
        with pytest.raises(InvalidBracketError, match="no equilibrium at delta=0 "
                                                      r"\(got undecided\)"):
            critical_torque(PINNING, (0.0, 0.1))

    @pytest.mark.parametrize("bracket", [(0.01, 0.02), (-0.02, 0.0), (-0.02, -0.01)],
                             ids=["fold-above", "held-to-0", "held-to-neg"])
    def test_no_wave_at_hi(self, monkeypatch, bracket):
        """The fold settles the upper end without a run: Newton puts it at
        0.0447, above 0.02, and from -0.02, below the branch's inflection,
        the continuation finds the branch stable at every torque it tries
        on the way to 0 or -0.01.  Only the lower end is classified."""
        runs, classify = [], sgchain._classify_attractor

        def classifying(s0, chain, horizon, dt):
            runs.append(chain.delta)
            return classify(s0, chain, horizon, dt)

        monkeypatch.setattr(sgchain, "_classify_attractor", classifying)
        monkeypatch.setattr(sgchain, "_settles_or_depins", None)  # no probe may run
        with pytest.raises(InvalidBracketError, match=f"no traveling wave at delta={bracket[1]:g} "):
            critical_torque(PINNING, bracket)
        assert runs == [bracket[0]]


class TestAttractors:
    def test_equilibrium_is_a_periodic_orbit_of_the_map(self):
        """A settled chain, shifted by pi, solves the map's second-difference
        relation x_{k+1} - 2 x_k + x_{k-1} = -delta - eps sin x_k; it is the
        p/q orbit the fixed-drift Newton returns from it."""
        c = ChainParams(q=3, p=1, gamma=0.5, eps=0.6, delta=0.005)
        pos = settle(twist_state(c), c).pos
        m = MapParams(c.eps, c.delta, TrigPoly.sine(), c.p, c.q)
        turn = 2.0 * math.pi * c.p

        def second_difference_residual(x):
            ring = np.concatenate([[x[-1] - turn], x, [x[0] + turn]])
            return ring[2:] - 2.0 * ring[1:-1] + ring[:-2] + c.delta + c.eps * np.sin(x)

        xi = pos + math.pi
        assert np.abs(second_difference_residual(xi)).max() < 1e-12
        assert np.abs(second_difference_residual(pos)).max() > 0.1  # the shift is needed
        # in cylmap's convention x_1 - x_0 = y_0 + mu + g(x_0)
        start = PhaseState(float(xi[0]), float(xi[1] - xi[0] - m.mu - kick(m, xi[0])))
        walk = iterate(start, m, c.q)
        assert np.allclose([s.x for s in walk[:-1]], xi, atol=1e-12)
        assert walk[-1].x == pytest.approx(xi[0] + turn, abs=1e-12)
        orbit = solve_orbit_fixed_delta(start, m)
        assert orbit is not None
        assert np.allclose([s.x for s in orbit.states], xi, atol=1e-10)
        assert orbit.kind == "saddle"  # a stable chain equilibrium is a hyperbolic orbit

    def test_traveling_wave(self):
        c = ChainParams(q=3, p=1, gamma=0.5, eps=0.6, delta=0.012)
        rep = classify_attractor(twist_state(c), c)
        assert rep.kind == "traveling_wave"
        assert rep.delay_error < TAU_WAVE
        assert abs(rep.mean_velocity) * rep.wave_period == pytest.approx(2.0 * math.pi * c.p,
                                                                         abs=1e-9)

    def test_verified_period_matches_a_fine_fixed_run(self):
        """The step-halving check's q=5 period against one run at a quarter of
        the old fixed step, 32 times finer than the start step."""
        c = ChainParams(q=5, p=2, gamma=0.3, eps=0.8, delta=0.1)
        checked = classify_attractor(twist_state(c), c)
        fine = _classify_attractor(twist_state(c), c, DEFAULT_HORIZON, 0.25 * old_dt(c))[0]
        assert checked.dt == default_dt(c) / 2 ** checked.halvings
        assert checked.kind == fine.kind == "traveling_wave"
        assert checked.wave_period == pytest.approx(fine.wave_period, rel=1e-8)

    def test_the_step_halves_one_run_at_a_time(self, monkeypatch):
        """The q=5 wave's period moves 2e-5 relative from h to h/2, and about
        16 times less per halving: the check integrates at h, h/2, h/4, h/8
        and h/16, each finer run from where the run at twice its step ended,
        and ends at the pair h/8, h/16."""
        c = ChainParams(q=5, p=2, gamma=0.3, eps=0.8, delta=0.1)
        classify, rerun, starts, ends = sgchain._classify_attractor, sgchain._rerun, {}, {}

        def recording(state, chain, dt, t_end, record_every=0):
            starts.setdefault(dt, state)  # a run integrates at one step throughout
            return integrate(state, chain, dt, t_end, record_every)

        def ending(run):
            def recorded(*args):
                report, end = run(*args)
                ends[report.dt] = end  # a rerun's, after any run it falls back to
                return report, end
            return recorded

        monkeypatch.setattr(sgchain, "integrate", recording)
        monkeypatch.setattr(sgchain, "_classify_attractor", ending(classify))
        monkeypatch.setattr(sgchain, "_rerun", ending(rerun))
        rep = classify_attractor(twist_state(c), c)
        h = default_dt(c)
        assert list(starts) == [h / 2 ** k for k in range(5)]
        assert all(starts[h / 2 ** k] is ends[h / 2 ** (k - 1)] for k in range(1, 5))
        assert (rep.kind, rep.dt, rep.halvings) == ("traveling_wave", h / 16, 4)

    @pytest.mark.parametrize("q,p,delta,period", [(4, 1, 0.2, 11.328275264906),
                                                  (4, 3, -0.2, 33.984825794688)])
    def test_a_wave_agreeing_only_at_the_last_halving_is_found(self, q, p, delta, period):
        """These waves agree only at the pair h/16, h/32.  A check that
        skipped from h/2 to h/16 started that run 8 times finer on the
        attractor of the run at h/2, whose offset one CHECK_EVERY settle
        did not absorb: its period came out 4e-9 off, and the check raised
        StepRefinementError."""
        c = ChainParams(q=q, p=p, gamma=0.3, eps=1.0, delta=delta)
        rep = classify_attractor(twist_state(c), c)
        assert (rep.kind, rep.halvings) == ("traveling_wave", 5)
        assert rep.delay_error < 1e-10
        assert rep.wave_period == pytest.approx(period, rel=1e-9)
        assert abs(rep.mean_velocity) * rep.wave_period == pytest.approx(2.0 * math.pi * p)

    def test_an_equilibrium_ends_the_check_at_the_start_step(self):
        """The run at the start step settles, and no finer run follows: the
        RK4 step leaves the equilibrium in place at any step.  Confirming
        it at h/2 took 539 RK4 steps."""
        c = replace(Q3, delta=0.005)
        rep = classify_attractor(twist_state(c), c)
        assert (rep.kind, rep.dt, rep.halvings) == ("equilibrium", default_dt(c), 0)
        assert rep.rk4_steps == 270

    def test_an_equilibrium_after_an_undecided_run_ends_the_check(self, monkeypatch):
        """An undecided run at the start step is run again from s0 at h/2;
        once that run settles, its report is the result, with one halving,
        and no run at h/4 follows."""
        c = replace(Q3, delta=0.005)
        h, runs = default_dt(c), []

        def undecided_at_h(s0, chain, horizon, dt):
            runs.append(dt)
            if dt == h:
                return sgchain.AttractorReport("undecided", 0.0, None, None, dt, "horizon",
                                               rk4_steps=7), s0
            return _classify_attractor(s0, chain, horizon, dt)

        monkeypatch.setattr(sgchain, "_classify_attractor", undecided_at_h)
        rep = classify_attractor(twist_state(c), c)
        fine = _classify_attractor(twist_state(c), c, DEFAULT_HORIZON, h / 2)[0]
        assert runs == [h, h / 2]
        assert (rep.kind, rep.decided_by, rep.dt, rep.halvings) == ("equilibrium", "trap",
                                                                     h / 2, 1)
        assert rep.rk4_steps == 7 + fine.rk4_steps

    def test_halvings_are_bounded(self, monkeypatch):
        c = ChainParams(q=5, p=2, gamma=0.3, eps=0.8, delta=0.1)
        monkeypatch.setattr(sgchain, "PERIOD_STEP_RTOL", 0.0)
        monkeypatch.setattr(sgchain, "MAX_HALVINGS", 1)
        with pytest.raises(StepRefinementError, match="after 1 step halvings"):
            classify_attractor(twist_state(c), c)

    @pytest.mark.xfail(raises=StepRefinementError, strict=True,
                       reason="the periods of the halved runs keep a gap near 1.2e-8")
    def test_a_fast_whirl_is_a_wave(self):
        """At torque 1.0 the q=2 chain whirls round with T near 3.4993.  The
        run at the start step stays undecided to the horizon (over 1e5 it
        takes 358,977 RK4 steps), and the finer runs, which find the wave,
        give T 3.499265021 at dt 0.02331 against 3.499264978 at dt 0.01166,
        so the check gives up.  The horizon of 5e3 reaches that error in
        under a second."""
        c = ChainParams(q=2, p=1, gamma=0.5, eps=0.6, delta=1.0)
        rep = classify_attractor(twist_state(c), c, horizon=5e3)
        assert rep.kind == "traveling_wave"

    @pytest.mark.xfail(raises=StepRefinementError, strict=True,
                       reason="the periods of the fifth halving's pair differ by 1.08e-8")
    def test_a_light_q3_whirl_is_a_wave(self):
        """Another chain whose finest pair differs by RK4's own error: T
        7.5690448310 at dt 0.02125 against 7.5690447494 at dt 0.01062, a
        gap of 1.08e-8 relative, just above PERIOD_STEP_RTOL.  A horizon of
        2e4 reaches that error in about 2 s."""
        c = ChainParams(q=3, p=2, gamma=0.171, eps=1.537, delta=0.607)
        rep = classify_attractor(twist_state(c), c, horizon=2e4)
        assert rep.kind == "traveling_wave"

    @pytest.mark.parametrize("q,p,gamma,eps,delta,period", [
        (3, 1, 0.5, 0.6, 0.012, 391.20862355722), (3, 1, 0.5, 0.6, -0.012, 391.20862355722),
        (5, 2, 0.3, 0.8, 0.1, 40.480261055455), (5, 2, 0.3, 0.8, -0.1, 40.480261055455)])
    def test_wave_period(self, q, p, gamma, eps, delta, period):
        """Negative torque sends the wave the other way round the ring, so the
        delay identity then wraps at the other seam.  The periods agree to a
        few 1e-12 with a separate fit of site 0's full turn on a Hermite
        interpolant of the run."""
        c = ChainParams(q=q, p=p, gamma=gamma, eps=eps, delta=delta)
        rep = classify_attractor(twist_state(c), c)
        assert rep.kind == "traveling_wave"
        assert rep.wave_period == pytest.approx(period, rel=1e-9)
        assert math.copysign(1.0, rep.mean_velocity) == math.copysign(1.0, delta)

    @pytest.mark.parametrize("q,p,gamma,eps,delta", [
        (3, 1, 0.5, 0.6, 0.012), (3, 1, 0.5, 0.6, -0.012),
        (5, 2, 0.3, 0.8, 0.1), (5, 2, 0.3, 0.8, -0.1)])
    def test_the_delay_identity_holds_later(self, monkeypatch, q, p, gamma, eps, delta):
        """The chain commutes with the shift to the neighbor, so the identity
        that the wave test solved at one instant still holds after the state
        it tested has run on for two periods: site k at t + T/q is where its
        neighbor was at t, velocities included.  The direction of travel is
        read off the sign of the drift."""
        c = ChainParams(q=q, p=p, gamma=gamma, eps=eps, delta=delta)
        rep, tested = classify_recording_wave_tests(monkeypatch, c)
        state, dt, found = tested[-1]
        assert found is not None and (dt, found.wave_period) == (rep.dt, rep.wave_period)
        later = integrate(state, c, dt, 2.0 * rep.wave_period).final
        lagged = integrate(later, c, dt, rep.wave_period / q).final
        nb = -int(math.copysign(1.0, rep.mean_velocity))
        # x_{k+nb}(t + T/q) = x_k(t), with x_{k+q} = x_k + 2 pi p across the seam
        ahead = np.roll(later.pos, nb)
        ahead[0 if nb > 0 else -1] -= nb * 2.0 * math.pi * p
        error = max(np.abs(lagged.pos - ahead).max(),
                    np.abs(lagged.vel - np.roll(later.vel, nb)).max())
        assert error < TAU_WAVE

    @pytest.mark.parametrize("q,p,gamma,eps,delta", [
        (3, 1, 0.5, 0.6, 0.012), (3, 1, 0.5, 0.6, -0.012),
        (5, 2, 0.3, 0.8, 0.1), (5, 2, 0.3, 0.8, -0.1)])
    def test_the_first_guess_is_within_a_step_of_the_lag(self, monkeypatch, q, p, gamma, eps,
                                                          delta):
        """The recorded row at which the run first returns to the neighbor
        shift of the state it kept guesses the lag T/q to within one RK4
        step of that run."""
        c = ChainParams(q=q, p=p, gamma=gamma, eps=eps, delta=delta)
        try_wave, returns = sgchain._try_wave, []

        def recording(state, chain, dt, times, rows, t_return):
            returns.append((dt, t_return - state.t))
            return try_wave(state, chain, dt, times, rows, t_return)

        monkeypatch.setattr(sgchain, "_try_wave", recording)
        rep = classify_attractor(twist_state(c), c)
        dt, lag = returns[0]
        assert dt == default_dt(c)
        assert abs(lag - rep.wave_period / q) <= dt

    def test_no_wave_test_without_a_return_to_the_shift(self, monkeypatch):
        """Nothing off a wave returns to a neighbor shift of an earlier
        state, so nothing calls the wave test: not the q=3 equilibrium
        classification, not the bench's critical torque (its run at the
        bracket's lower end settles, and its fold probes only depin), and
        not an untwisted chain, whose sites whirl round at this torque
        (site 0's full turns used to call it there)."""
        try_wave, calls = sgchain._try_wave, []

        def recording(state, chain, dt, times, rows, t_return):
            calls.append(chain)
            return try_wave(state, chain, dt, times, rows, t_return)

        monkeypatch.setattr(sgchain, "_try_wave", recording)
        c = replace(Q3, delta=0.005)
        assert classify_attractor(twist_state(c), c).kind == "equilibrium"
        confirmed_torque(PINNING, (0.01, 0.1))
        flat = ChainParams(q=3, p=0, gamma=0.5, eps=0.6, delta=0.8)
        rep = _classify_attractor(twist_state(flat), flat, 1000.0, default_dt(flat))[0]
        assert rep.kind == "undecided" and abs(rep.mean_velocity) > 0.5
        assert calls == []

    def test_a_wave_reached_from_far_off_is_found(self):
        """Kicked hard at light damping, the q=4 chain is still far from its
        wave at the first checks.  A state kept there never comes within a
        step of its neighbor shift again, so it is dropped once the run's
        mean position has moved two shifts from it.  The wave test reads
        the run's own rows, so its delay error no longer takes in the
        difference between the RK4 errors of two steps, which for this
        fast wave at the start step exceeds TAU_WAVE at a step 10 % off
        the run's (its CHECK_EVERY spans shrink the step to 0.3731 from
        0.3750)."""
        c = ChainParams(q=4, p=1, gamma=0.02, eps=0.55, delta=0.017)
        s0 = ChainState(0.0, [1.45, 1.08, 4.62, 4.26], [1.47, 0.72, -1.59, 1.89])
        rep = _classify_attractor(s0, c, 3000.0, default_dt(c))[0]
        assert (rep.kind, rep.decided_by) == ("traveling_wave", "wave")
        assert rep.delay_error < TAU_WAVE

    def test_no_wave_test_without_torque(self, monkeypatch):
        """Kicked into a whirl at light damping and no torque, the twisted
        q=3 chain returns near the neighbor shifts of earlier states while
        it slows down, and the wave test used to run on them (three times,
        failing each).  Without torque no wave exists, so the run keeps no
        state to test, and it settles."""
        c = ChainParams(q=3, p=1, gamma=0.02, eps=0.6, delta=0.0)
        try_wave, calls = sgchain._try_wave, []

        def recording(state, chain, dt, times, rows, t_return):
            calls.append(state.t)
            return try_wave(state, chain, dt, times, rows, t_return)

        monkeypatch.setattr(sgchain, "_try_wave", recording)
        rep = classify_attractor(ChainState(0.0, twist_state(c).pos, [6.0] * 3), c)
        assert calls == []
        assert rep.kind == "equilibrium"

    def test_no_wave_from_a_settled_equilibrium(self):
        """At rest on the pinned q=3 equilibrium no lag moves any site to its
        neighbor."""
        c = replace(Q3, delta=0.005)
        state, dt = settle(twist_state(c), c), default_dt(c)
        run = integrate(state, c, dt, 1.3 * 391.2 / 3, record_every=1)
        t_return = state.t + 391.2 / 3
        assert sgchain._try_wave(state, c, dt, run.times, run.rows, t_return)[0] is None

    def test_no_wave_from_twice_the_period(self, monkeypatch):
        """From a return put 2T/q on the lag is held in [1.5, 2.6] T/q,
        where the identity has no solution; from T/q the same state, on
        the same rows, passes."""
        c = replace(Q3, delta=0.012)
        try_wave = sgchain._try_wave
        rep, tested = classify_recording_wave_tests(monkeypatch, c)
        state, dt, _ = tested[-1]
        lag = rep.wave_period / c.q
        run = integrate(state, c, dt, dt * math.ceil(2.6 * lag / dt), record_every=1)
        assert try_wave(state, c, dt, run.times, run.rows, state.t + 2.0 * lag)[0] is None
        assert try_wave(state, c, dt, run.times, run.rows, state.t + lag)[0] is not None

    def test_the_run_tests_its_own_rows_by_single_partial_steps(self, monkeypatch):
        """The wave test of a run reads the lagged state off the rows the
        run recorded: each of its integrations is one partial step from a
        row, no longer than the run's own step.  It used to integrate 1.3
        lags again from the state it kept."""
        c = replace(Q3, delta=0.012)
        integrate_, classify, try_wave = (sgchain.integrate, sgchain._classify_attractor,
                                          sgchain._try_wave)
        runs, testing, calls = [], [], []

        def run(s0, chain, horizon, dt):
            runs.append(dt)
            try:
                return classify(s0, chain, horizon, dt)
            finally:
                runs.pop()

        def wave_test(*args):
            testing.append(True)
            try:
                return try_wave(*args)
            finally:
                testing.pop()

        def counting(state, chain, dt, t_end, record_every=0):
            traj = integrate_(state, chain, dt, t_end, record_every)
            if runs and testing:
                calls.append((runs[-1], t_end, record_every, traj.steps))
            return traj

        monkeypatch.setattr(sgchain, "integrate", counting)
        monkeypatch.setattr(sgchain, "_classify_attractor", run)
        monkeypatch.setattr(sgchain, "_try_wave", wave_test)
        assert classify_attractor(twist_state(c), c).kind == "traveling_wave"
        assert calls
        for dt, t_end, record_every, steps in calls:
            h = sgchain.CHECK_EVERY / math.ceil(sgchain.CHECK_EVERY / dt)
            assert (record_every, steps) == (0, 1 if t_end else 0)
            assert 0.0 <= t_end <= h * (1.0 + 1e-12)

    def test_a_lag_before_the_first_row_fails(self, monkeypatch):
        """Rows that start just after the wave's lag T/q, and so after 0.75
        of the lag that the return gives: the solve heads for T/q, before
        the first row, and fails there, without a step of negative length.
        On rows that reach back to the tested state the same return
        passes."""
        c = replace(Q3, delta=0.012)
        rep, tested = classify_recording_wave_tests(monkeypatch, c)
        state, dt, _ = tested[-1]
        lag = rep.wave_period / c.q
        late = integrate(state, c, dt, dt * math.ceil(1.02 * lag / dt)).final
        run = integrate(late, c, dt, dt * math.ceil(0.2 * lag / dt), record_every=1)
        t_return = state.t + 1.05 * lag
        assert run.times[0] > state.t + 0.75 * (t_return - state.t)
        # one partial step at the return, whose Newton step lands before the rows
        assert sgchain._try_wave(state, c, dt, run.times, run.rows, t_return) == (None, 1)
        whole = integrate(state, c, dt, dt * math.ceil(1.3 * lag / dt), record_every=1)
        assert sgchain._try_wave(state, c, dt, whole.times, whole.rows, t_return)[0] is not None

    @pytest.mark.parametrize("q,p,gamma,eps,delta", [
        (3, 1, 0.5, 0.6, 0.012), (3, 1, 0.5, 0.6, -0.012),
        (5, 2, 0.3, 0.8, 0.1), (5, 2, 0.3, 0.8, -0.1)])
    def test_wave_checked_on_the_attractor_matches_a_run_from_the_start(self, q, p, gamma,
                                                                         eps, delta):
        """The finer runs of the check start on the attractor the coarser run
        found, not at s0; their period is the one a whole run from s0 at the
        same step reaches, within the tolerance of the check itself."""
        c = ChainParams(q=q, p=p, gamma=gamma, eps=eps, delta=delta)
        rep = classify_attractor(twist_state(c), c)
        full = _classify_attractor(twist_state(c), c, DEFAULT_HORIZON, rep.dt)[0]
        assert rep.kind == full.kind == "traveling_wave"
        assert rep.wave_period == pytest.approx(full.wave_period, rel=PERIOD_STEP_RTOL, abs=0.0)


def equilibrium_residual(x, c):
    """``x_{k+1} - 2 x_k + x_{k-1} + delta - eps sin x_k`` on the twisted ring, site by site."""
    turn = 2.0 * math.pi * c.p
    ring = np.concatenate([[x[-1] - turn], x, [x[0] + turn]])
    return ring[2:] - 2.0 * ring[1:-1] + ring[:-2] + c.delta - c.eps * np.sin(x)


@st.composite
def pinned_chains(draw):
    """Short chains at a drift far inside their pinning range (the critical
    drift is 0.12 eps^2 at q=2 and about 0.05 eps^3 at q=3)."""
    q = draw(st.integers(2, 3))
    eps = draw(st.floats(0.6, 2.0))
    return ChainParams(q=q, p=draw(st.integers(0, q - 1)), gamma=draw(st.floats(0.2, 1.0)),
                       eps=eps, delta=draw(st.floats(-1.0, 1.0)) * 0.02 * eps ** q)


class TestTrapCertificate:
    @pytest.mark.parametrize("c,bracket", [(PINNING, (0.01, 0.1)), (Q3, (0.005, 0.012))])
    def test_verdicts_match_the_velocity_criterion(self, monkeypatch, c, bracket):
        """The two fold probes, and the classification at the bracket's lower
        end, run again from the same start with the certificate switched off
        (no well is ever found): the velocity criterion reaches the same
        verdict, and critical_torque the same torque."""
        probe, classify, trap = sgchain._settles_or_depins, sgchain._classify_attractor, sgchain._trap
        runs, certified = [], []

        def recording_probe(s0, chain, horizon, dt):
            result = probe(s0, chain, horizon, dt)
            runs.append((probe, s0, chain, dt, result.outcome))
            return result

        def recording_classify(s0, chain, horizon, dt):
            report, final = classify(s0, chain, horizon, dt)
            runs.append((classify, s0, chain, dt, report.kind))
            return report, final

        def recording_trap(state, chain, well=None):
            well, trapped = trap(state, chain, well)
            certified.append(trapped)
            return well, trapped

        monkeypatch.setattr(sgchain, "_settles_or_depins", recording_probe)
        monkeypatch.setattr(sgchain, "_classify_attractor", recording_classify)
        monkeypatch.setattr(sgchain, "_trap", recording_trap)
        crit = confirmed_torque(c, bracket).critical_delta
        assert any(certified) and len(runs) == 3
        monkeypatch.setattr(sgchain, "_trap", trap)
        monkeypatch.setattr(sgchain, "_well", lambda pos, chain: None)
        for run, s0, chain, dt, verdict in runs:
            result = run(s0, chain, DEFAULT_HORIZON, dt)
            assert (result.outcome if run is probe else result[0].kind) == verdict
        assert critical_torque(c, bracket).critical_delta == crit

    @pytest.mark.parametrize("c", [replace(Q3, delta=0.005), replace(PINNING, delta=0.0325),
                                   replace(PINNING, delta=-0.02)])
    def test_certified_equilibrium_solves_the_equations(self, c):
        report, state = _classify_attractor(twist_state(c), c, DEFAULT_HORIZON, default_dt(c))
        assert (report.kind, report.decided_by) == ("equilibrium", "trap")
        assert np.abs(equilibrium_residual(state.pos, c)).max() <= 1e-12
        assert np.array_equal(state.vel, np.zeros(c.q))

    @settings(max_examples=50, deadline=None)
    @given(pinned_chains(), st.data())
    def test_a_certified_run_stays_in_its_ball_and_settles(self, c, data):
        """From the first certified state of a run, the run stays within r
        of the certified equilibrium and its velocities fall below TAU_EQ."""
        offsets = st.lists(st.floats(-0.5, 0.5), min_size=c.q, max_size=c.q)
        state = ChainState(0.0, twist_state(c).pos + np.array(data.draw(offsets)),
                           np.array(data.draw(offsets)))
        dt = default_dt(c)
        for _ in range(16):
            state = integrate(state, c, dt, 25.0).final
            well, trapped = sgchain._trap(state, c)
            if trapped:
                break
        assume(trapped)
        x_e, r = well.x, well.r
        assert np.abs(equilibrium_residual(x_e, c)).max() <= 1e-12
        for _ in range(40):
            traj = integrate(state, c, dt, 100.0, record_every=1)
            assert np.linalg.norm(traj.rows[:, 0] - x_e, axis=1).max() < r
            state = traj.final
            if np.abs(traj.rows[:, 1]).max() < sgchain.TAU_EQ:
                break
        assert np.abs(state.vel).max() < sgchain.TAU_EQ

    def test_no_certificate_on_the_wave(self):
        """Above its critical drift the q=3 chain has no equilibrium to trap it."""
        c = replace(Q3, delta=0.012)
        traj = integrate(twist_state(c), c, default_dt(c), 1200.0, record_every=16)
        for t, (pos, vel) in zip(traj.times, traj.rows):
            assert sgchain._trap(ChainState(t, pos, vel), c) == (None, False)

    @pytest.mark.parametrize("c,s0,horizon,decided_by", [
        (replace(Q3, delta=0.005), None, DEFAULT_HORIZON, "trap"),
        (replace(Q3, delta=0.012), None, DEFAULT_HORIZON, "wave"),
        (replace(Q3, delta=0.012), None, 20.0, "horizon"),
        # eps = 0: the twisted chain can slide, so no equilibrium is isolated
        (replace(Q3, eps=0.0), ChainState(0.0, [0.3, 2.0, 4.5], [0.1, 0.0, -0.2]),
         DEFAULT_HORIZON, "velocity"),
        # the first run fails a wave test before a later one passes
        (ChainParams(5, 2, 0.3, 0.8, 0.1), None, DEFAULT_HORIZON, "wave"),
    ])
    def test_report_names_the_deciding_test_and_counts_every_step(self, monkeypatch, c, s0,
                                                                  horizon, decided_by):
        steps = []

        def counting(state, chain, dt, t_end, record_every=0):
            traj = integrate(state, chain, dt, t_end, record_every)
            steps.append(traj.steps)
            return traj

        monkeypatch.setattr(sgchain, "integrate", counting)
        rep = classify_attractor(s0 or twist_state(c), c, horizon)
        assert rep.decided_by == decided_by
        assert rep.rk4_steps == sum(steps)

    def test_the_q3_equilibrium_is_certified_cheaply(self):
        """The velocity criterion ran this classification to t = 750 at both
        steps, 6038 RK4 steps; the certificate ends it by t = 100."""
        c = replace(Q3, delta=0.005)
        rep = classify_attractor(twist_state(c), c)
        assert (rep.kind, rep.decided_by) == ("equilibrium", "trap")
        assert rep.rk4_steps <= 2000

    @pytest.mark.parametrize("c,t_end", [(replace(Q3, delta=0.005), 400.0),
                                         (replace(PINNING, delta=0.0325), 600.0)])
    def test_a_reused_well_gives_the_fresh_verdict(self, c, t_end):
        """Along a pinned run, every 5 time units: the certificate from the
        well a run carries agrees with the one from a fresh Newton, both
        wells hold the same equilibrium, and the carried well is reused, not
        rebuilt, once the run is inside it."""
        dt = default_dt(c)
        traj = integrate(twist_state(c), c, dt, t_end, record_every=round(5.0 / dt))
        well, verdicts, reused = None, [], 0
        for t, (pos, vel) in zip(traj.times, traj.rows):
            state = ChainState(t, pos, vel)
            carried, trapped = sgchain._trap(state, c, well)
            fresh, fresh_trapped = sgchain._trap(state, c)
            assert trapped == fresh_trapped
            assert (carried is None) == (fresh is None)
            if carried is not None:
                # each ball's one equilibrium lies within 2 rho/lam of its centre
                gap = 2.0 * (carried.rho / carried.lam + fresh.rho / fresh.lam)
                assert np.linalg.norm(carried.x - fresh.x) <= gap
            reused += carried is not None and carried is well
            well = carried
            verdicts.append(trapped)
        assert not verdicts[0] and verdicts[-1] and reused > 5

    def test_the_q3_equilibrium_ends_at_the_first_check_that_holds(self, monkeypatch):
        """Trapped from t = 71 on, the run from s0 ends at the check at t = 100
        (at the end of a doubling window the certificate came at t = 150),
        and that run is the whole classification: a confirming run at h/2
        from the certified equilibrium at rest, which the RK4 step leaves in
        place, used to end at its own first check."""
        c = replace(Q3, delta=0.005)
        spans = []

        def recording(s0, chain, horizon, dt):
            report, final = _classify_attractor(s0, chain, horizon, dt)
            spans.append((s0.t, final.t))
            return report, final

        monkeypatch.setattr(sgchain, "_classify_attractor", recording)
        rep = classify_attractor(twist_state(c), c)
        assert (rep.kind, rep.decided_by, rep.halvings) == ("equilibrium", "trap", 0)
        assert len(spans) == 1
        (start, end), = spans
        assert start == 0.0 and end <= 100.0

    def test_the_q3_wave_is_tested_at_its_first_return_to_the_shift(self):
        """The run returns to the neighbor shift of the state it kept at
        t = 50 one lag T/q = 130 later, and the wave test from that state
        passes.  When site 0's third steady full turn gave the guess, at
        t = 1176 at h, the check took 17588 RK4 steps tested at the end of
        a doubling window (t = 1550), 14811 when the run at h/2 replayed the
        transient from s0, 8624 when each test recorded a stretch of
        1.6 T + 10 rather than 1.3 T/q, 4878 after that, 2178 when the run's
        test recorded 1.3 T/q again from the state it kept, and 1722 since
        it reads the run's own rows."""
        c = replace(Q3, delta=0.012)
        rep = classify_attractor(twist_state(c), c)
        assert (rep.kind, rep.decided_by) == ("traveling_wave", "wave")
        assert rep.rk4_steps <= 1900


class TestTorqueRecord:
    def test_the_record_counts_every_step_and_names_each_probe(self, monkeypatch):
        """The bench's critical torque: the fold, its pinned side certified
        by the branch's stable equilibrium half a FOLD_PROBE_RTOL below it,
        and confirmed by two probes started there at rest, at ``fold +
        mu`` and ``fold + 4 mu``, that escape as the bottleneck law
        predicts.  The record counts the RK4 steps of every run: at most
        600 of them (6711 when the torque was bisected, 2163 while a
        second probe ran below the fold, 1623 with one probe at ``fold (1 +
        FOLD_PROBE_RTOL/2)``, 813 while the bracket's upper end was
        classified, 540 since), and names each probe's torque, escape time
        and steps."""
        steps = []

        def counting(state, chain, dt, t_end, record_every=0):
            traj = integrate(state, chain, dt, t_end, record_every)
            steps.append(traj.steps)
            return traj

        monkeypatch.setattr(sgchain, "integrate", counting)
        result = confirmed_torque(PINNING, (0.01, 0.1))
        assert 0 < result.fold_iterations <= sgchain._FOLD_NEWTON_ITERS
        assert result.dt == default_dt(PINNING)
        assert result.rk4_steps == sum(steps) == 540
        near, far = result.probes
        assert result.mu == 8e-3 * result.critical_delta  # the clamp binds here
        assert (near.rk4_steps, far.rk4_steps) == (270, 135)
        assert near.escape_time == pytest.approx(91.48, abs=0.01)
        assert far.escape_time == pytest.approx(44.44, abs=0.01)

    def test_an_upper_probe_that_settles_raises(self, monkeypatch):
        """Made to settle, the nearer probe disagrees with the fold, which
        then goes unconfirmed, and the far probe does not run."""
        torque = critical_torque(PINNING, (0.01, 0.1))
        fold, near = torque.critical_delta, torque.probes[0].delta
        probed = []

        def settling_near(s0, chain, horizon, dt):
            probed.append(chain.delta)
            if chain.delta == near:
                return sgchain.TorqueProbe(chain.delta, "equilibrium", "velocity", 0)
            return _settles_or_depins(s0, chain, horizon, dt)

        monkeypatch.setattr(sgchain, "_settles_or_depins", settling_near)
        with pytest.raises(UnconfirmedFoldError, match=f"probe at delta={near:g} disagrees "
                                                       f"with the fold {fold:g}: equilibrium, "
                                                       "not depinned"):
            critical_torque(PINNING, (0.01, 0.1))
        assert probed == [near]

    @pytest.mark.parametrize("ratio,ending", [(1.0, "$"), (0.8, r" \(threshold \S+\)$")])
    def test_a_far_probe_off_the_law_raises(self, monkeypatch, ratio, ending):
        """Both probes depin, but the far one, four times as far above the
        fold, escapes no sooner than the near one (ratio 1), or sooner but
        not the half as soon that the bottleneck law has it (ratio 0.8,
        which puts the threshold 3.5 % below the fold): the fold goes
        unconfirmed."""
        torque = critical_torque(PINNING, (0.01, 0.1))
        near, far = torque.probes
        late = ratio * near.escape_time

        def slow_far(s0, chain, horizon, dt):
            probe = _settles_or_depins(s0, chain, horizon, dt)
            return replace(probe, escape_time=late) if chain.delta == far.delta else probe

        monkeypatch.setattr(sgchain, "_settles_or_depins", slow_far)
        with pytest.raises(UnconfirmedFoldError,
                           match=rf"probes at delta={near.delta:g} and {far.delta:g} escaped "
                                 rf"at t={near.escape_time:g} and {late:g}, off the "
                                 rf"bottleneck law through the fold {torque.critical_delta:g}"
                                 + ending):
            critical_torque(PINNING, (0.01, 0.1))

    def test_an_undecided_probe_raises(self, monkeypatch):
        """A probe still running at the horizon confirms nothing; the error
        asks for a longer horizon."""
        near = critical_torque(PINNING, (0.01, 0.1)).probes[0].delta
        monkeypatch.setattr(sgchain, "_settles_or_depins", lambda s0, chain, horizon, dt:
                            sgchain.TorqueProbe(chain.delta, "undecided", "horizon", 0))
        with pytest.raises(UnconfirmedFoldError, match=f"probe undecided at delta={near:g} "
                                                       "within horizon 100000; raise the horizon"):
            critical_torque(PINNING, (0.01, 0.1))

    def test_a_failed_fold_solve_raises(self, monkeypatch):
        """Out of Newton steps, the fold solve leaves nothing to confirm: no
        probe runs."""
        probes = []
        monkeypatch.setattr(sgchain, "_FOLD_NEWTON_ITERS", 1)
        monkeypatch.setattr(sgchain, "_settles_or_depins", lambda *args: probes.append(args))
        with pytest.raises(UnconfirmedFoldError, match=r"the fold solve failed \(1 steps\)"):
            critical_torque(PINNING, (0.01, 0.1))
        assert probes == []


class TestStepper:
    def test_the_stability_limit_is_bisected_once_per_chain(self, monkeypatch):
        """A wave classification integrates at many step lengths (each
        Gauss-Newton iterate of a wave test ends on a partial step), and
        builds the stage matrices for each, but bisects the chain's
        stability limit once: it does not depend on the step."""
        c = replace(Q3, delta=0.012)
        sgchain._stability_limit.cache_clear()
        sgchain._rk4_matrices.cache_clear()
        rk4_gain, gains = sgchain._rk4_gain, []
        monkeypatch.setattr(sgchain, "_rk4_gain", lambda z: gains.append(z) or rk4_gain(z))
        assert classify_attractor(twist_state(c), c).kind == "traveling_wave"
        assert sgchain._rk4_matrices.cache_info().misses > 2
        assert len(gains) == 60  # one bisection

    def test_matrices_are_built_once_and_read_only(self):
        c = replace(Q3, delta=0.005)
        dt = default_dt(c)
        first = integrate(twist_state(c), c, dt, 50.0, record_every=1)
        matrices = sgchain._rk4_matrices(c.q, c.p, c.gamma, c.eps, 50.0 / first.steps)
        assert len(matrices) == 4 and not any(m.flags.writeable for m in matrices)
        # a different torque shares the matrices: it enters through the work vector
        hits = sgchain._rk4_matrices.cache_info().hits
        integrate(twist_state(c), replace(c, delta=0.012), dt, 50.0)
        assert sgchain._rk4_matrices.cache_info().hits == hits + 1
        for m in sgchain._coupling(c.q, c.p):
            assert not m.flags.writeable
        again = integrate(twist_state(c), c, dt, 50.0, record_every=1)
        assert np.array_equal(first.rows, again.rows)
