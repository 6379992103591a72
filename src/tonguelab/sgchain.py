"""Damped, torqued, twisted sine-Gordon chain.

q pendula with nearest-neighbor coupling and twisted periodic boundary
``x_{k+q} = x_k + 2 pi p``:

    x_k'' + gamma x_k' + eps sin(x_k) = x_{k+1} - 2 x_k + x_{k-1} + delta.

With damping every run settles to an equilibrium or a traveling wave in
which each pendulum repeats its neighbor with delay T/q and the whole
chain is periodic modulo the rotation by 2 pi p.  Equilibria of the chain
are in bijection with p/q periodic orbits of the drifted cylinder map
(take second differences), so the critical torque measured here can be
cross-checked against the tongue edge max of the drift profile.

Integration is fixed-step classical 4th order within each run: runs are
short and the torque probes need deterministic reproducibility.  The
step is chosen, not set:

* **Start step.**  :func:`default_dt` takes ``h sqrt(eps + 4) = 0.8``,
  capped at half of RK4's stability limit for the linearized chain
  (:func:`stability_limit`, which bounds every ``dt`` of :func:`integrate`).
* **Checked classification.**  :func:`classify_attractor` halves the step
  one run at a time, from ``h`` down, until two runs in turn agree on the
  kind and, for a traveling wave, on the period (step doubling, as in
  Hairer, Norsett and Wanner, *Solving ODEs I*, II.4); each finer run
  starts on the attractor of the run at twice its step.  The first run
  that settles to an equilibrium ends the check, for the reason below.
* **Critical torque at the start step.**  :func:`critical_torque` finds
  the pinned branch by a descent without torque, solves for its fold and
  confirms it by a stable equilibrium below it and two probes above it,
  placed by its normal form, whose escape times must extrapolate to it by
  the saddle-node's bottleneck law.  Equilibria are fixed points of the
  RK4 step for any ``h``, so the fold does not move with the step.

A run stops at the first check that decides it.  The checks come every
``CHECK_EVERY`` time units, so a run ends within that span of the moment
its criterion first holds.  It has settled to an equilibrium once the
energy trap certificate (:func:`_trap`) holds: the damped chain's energy
never increases, and Newton finds a stable equilibrium ``x_e`` whose
well the state cannot leave with the energy it has left.  The settled
state is then ``x_e`` at rest.  The older test, every |velocity| below
``TAU_EQ`` over the last span, remains for chains without a
certificate (``eps = 0``, a flat well, Newton not converging); a run it
stops at rest on a saddle ends undecided (:func:`_rest_kind`).  A
traveling wave returns one lag ``T/q`` later to its state shifted by one
site: the run finds its first recorded return to the neighbor shift of a
state it kept (:func:`_return_time`), and :func:`_try_wave` solves the
delay identity at that state for the lag, from the return, on the rows
in which the run found it.
The torque fixes the shift: by the energy balance over one period
(:func:`_shifted`) a wave runs the way the torque pushes, and a chain
without torque has no wave, so its run keeps no state to test.

A chain has only a few sites, so a step written site by site is
dominated by the fixed cost of each numpy call, not by arithmetic.
:func:`integrate` therefore writes each RK4 stage as one matrix product
on a work vector holding the state, the stage sines and the constants:
9 direct C calls per step whatever q is.  Each product goes through the
bound ``ndarray.dot`` and each ufunc gets its output by position: at
these sizes the per-call set-up of ``np.matmul`` (a generalized ufunc)
or the array-function dispatch of ``np.dot`` costs more than the
product itself.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

# Start step: h * omega_max, with omega_max = sqrt(eps + 4).
STEP_OMEGA = 0.8
# Two runs at h and h/2 agree on a wave period when it moves by at most this.
PERIOD_STEP_RTOL = 1e-8
# Halvings of the start step classify_attractor may reach before it gives up.
MAX_HALVINGS = 5
# RK4's stability interval on the negative real axis is [-2.785..., 0].
_RK4_REAL_LIMIT = 2.785293563405282
# A run tests its stop criteria after every this many time units.
CHECK_EVERY = 50.0
# Equilibrium when every |velocity| stays below this over one check's span.
TAU_EQ = 1e-8
# Newton steps one equilibrium solve (_equilibrium) may take.
_NEWTON_ITERS = 8
# Steps the fold solve's walk and its Newton may each take, and halvings of a Newton step.
_FOLD_NEWTON_ITERS = 20
# The fold solve starts from the pinned equilibrium rounded to this many decimals.
_FOLD_START_DECIMALS = 3
# The fold solve walks the pinned branch in steps of this fraction of its period 2 pi/q.
_WALK_STEP = 1.0 / 12.0
# Bound on the rounding of one force entry or Cholesky step, per unit of its scale.
_ROUND = 8.0 * np.finfo(float).eps
# Traveling wave when the neighbor-delay identity holds this tightly.
TAU_WAVE = 1e-4
# Give up and report "undecided" after this much integrated time.
DEFAULT_HORIZON = 1e5
# critical_torque certifies the pinned branch at (1 - this/2) times the fold,
# and starts its probes there at least this/2 times the fold above it.
FOLD_PROBE_RTOL = 1e-3
# The nearer probe lies at most this times the fold above it.
_PROBE_MAX_RTOL = 8e-3
# The threshold extrapolated from the probes' escape times agrees with the
# fold to this, relative: over 288 sine chains (q 2-5, gamma 0.1-1.5, eps
# 0.5-1.5) it lay between -1.5e-3 and +2.7e-3 of it.
FOLD_LAW_RTOL = 5e-3
# Positions beyond this magnitude abort the run as a blow-up.
BLOWUP_LIMIT = 1e8
# A torque probe has depinned once a site moves this far from its start.
_ESCAPE = 0.5


class BlowUpError(RuntimeError):
    """Integration left the physically meaningful region."""


class StepRefinementError(RuntimeError):
    """Classifications at successive step halvings kept disagreeing."""


class UnconfirmedFoldError(RuntimeError):
    """:func:`critical_torque` could not confirm the fold: its descent or
    its solve failed, a probe above it disagreed or was undecided at the
    horizon, or the probes' escape times missed the bottleneck law."""


@dataclass(frozen=True)
class ChainParams:
    """Chain length q, twist p >= 0 (as for the map), damping, gravity, torque."""

    q: int
    p: int
    gamma: float
    eps: float
    delta: float

    def __post_init__(self):
        for name in ("gamma", "eps", "delta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"chain {name} must be finite, got {getattr(self, name)}")
        if self.q < 2:
            raise ValueError("chain length q must be >= 2")
        if self.p < 0:
            raise ValueError(f"chain twist p must be >= 0, got {self.p}")
        if self.gamma <= 0:
            raise ValueError("damping gamma must be > 0 (the attractor "
                             "dichotomy needs dissipation)")
        if self.eps < 0:
            raise ValueError("eps must be >= 0")


@dataclass(frozen=True)
class ChainState:
    t: float
    pos: np.ndarray
    vel: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "pos", np.asarray(self.pos, dtype=float))
        object.__setattr__(self, "vel", np.asarray(self.vel, dtype=float))
        if not (np.all(np.isfinite(self.pos)) and np.all(np.isfinite(self.vel))):
            raise ValueError("chain state must be finite")


@dataclass(frozen=True)
class AttractorReport:
    kind: str  # "equilibrium" | "traveling_wave" | "undecided"
    mean_velocity: float
    wave_period: float | None
    delay_error: float | None  # max |z(t + T/q) - S z(t)| over the full state at one instant
    # the step the run that gave this report asked for: integrate shrinks it
    # to divide each CHECK_EVERY span; only _rerun's stretch steps at it undivided
    dt: float
    decided_by: str  # "trap" | "velocity" | "wave" | "horizon": the test that ended the run
    halvings: int = 0  # dt is the start step halved this many times
    rk4_steps: int = 0  # RK4 steps over every run that went into this report


@dataclass(frozen=True)
class Trajectory:
    """Decimated samples of one integration plus the exact final state;
    ``rows[n]``, positions over velocities, is the state at ``times[n]``."""

    times: np.ndarray
    rows: np.ndarray  # shape (n_samples, 2, q): the layout of _shifted
    final: ChainState
    steps: int  # RK4 steps taken


def twist_state(c: ChainParams) -> ChainState:
    """Uniformly twisted chain at rest: ``x_k = 2 pi p k / q``."""
    k = np.arange(c.q)
    return ChainState(0.0, 2.0 * math.pi * c.p * k / c.q, np.zeros(c.q))


def default_dt(c: ChainParams) -> float:
    """The start step: ``h * sqrt(eps + 4) = STEP_OMEGA``, capped at half of
    :func:`stability_limit`.

    ``sqrt(eps + 4)`` bounds the chain's linear frequencies, so the step
    resolves the fastest oscillation with about 8 steps per period.  The
    cap binds only at strong damping, where the overdamped real root
    ``-gamma/2 - sqrt(gamma^2/4 + eps)`` lies beyond ``-1.74 sqrt(eps + 4)``
    (``gamma > 3.48`` at eps = 0).  The step is coarse on purpose:
    :func:`classify_attractor` checks a wave by step halving, and
    equilibria, at which it stops and which :func:`critical_torque`
    follows, do not move with the step.
    """
    return min(STEP_OMEGA / math.sqrt(c.eps + 4.0), 0.5 * stability_limit(c))


def stability_limit(c: ChainParams) -> float:
    """Largest RK4 step that keeps every decaying mode of the chain,
    linearized anywhere, decaying.

    Damping is ``gamma`` times the identity, so the linearization splits
    into modes ``x'' + gamma x' + omega^2 x = 0``, each with roots
    ``lambda^2 + gamma lambda + omega^2 = 0``, where ``omega^2`` runs over
    the eigenvalues of the stiffness ``-Laplacian + eps diag(cos x_k)``,
    which lie in ``[-eps, eps + 4]``.  A mode with ``omega^2 < 0`` has one
    positive root, which grows in the chain itself and sets no limit, and
    one real root down to ``-r``, ``r = gamma/2 + sqrt(gamma^2/4 + eps)``.
    So the decaying roots fill the real interval ``[-r, 0]`` and the
    segment ``Re = -gamma/2`` up to the top root
    ``-gamma/2 + i sqrt(eps + 4 - gamma^2/4)``.  In the left half-plane
    RK4's stability region is star-shaped about 0 and meets every
    vertical line in one interval through the real axis, so the limit is
    the smaller of ``2.785/r`` and the step at which ``h`` times the top
    root leaves the region (checked against a scan of the whole locus by
    ``test_stability_limit_is_the_least_over_the_root_locus``).  It
    depends on ``gamma`` and ``eps`` alone, and is bisected once per pair.
    """
    return _stability_limit(c.gamma, c.eps)


@functools.lru_cache(maxsize=64)
def _stability_limit(gamma: float, eps: float) -> float:
    a = 0.5 * gamma
    top = complex(-a, math.sqrt(max(eps + 4.0 - a * a, 0.0)))
    # bisect along the ray through the top root: it leaves the star-shaped
    # region once, before |h top| = 3, where |R| > 1.1 all round
    inside, outside = 0.0, 3.0 / abs(top)
    for _ in range(60):
        mid = 0.5 * (inside + outside)
        if abs(_rk4_gain(mid * top)) <= 1.0:
            inside = mid
        else:
            outside = mid
    return min(_RK4_REAL_LIMIT / (a + math.sqrt(a * a + eps)), inside)


def _rk4_gain(z: complex) -> complex:
    """RK4's amplification factor ``R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24``."""
    return 1.0 + z * (1.0 + z * (0.5 + z * (1.0 / 6.0 + z / 24.0)))


@functools.lru_cache(maxsize=64)
def _coupling(q: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """The ring's Laplacian and the constant terms ``wrap`` by which the
    twisted boundary ``x_{k+q} = x_k + 2 pi p`` enters it: the coupling
    force on the sites is ``lap @ x + wrap``.  Both are read-only."""
    lap = -2.0 * np.eye(q) + np.roll(np.eye(q), 1, axis=0) + np.roll(np.eye(q), -1, axis=0)
    wrap = np.zeros(q)
    wrap[0] -= 2.0 * math.pi * p
    wrap[-1] += 2.0 * math.pi * p
    return _read_only(lap, wrap)


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.flags.writeable = False
    return arrays


@functools.lru_cache(maxsize=64)
def _rk4_matrices(q: int, p: int, gamma: float, eps: float, h: float):
    """Stage matrices ``(G2, G3, G4)`` and step matrix ``P`` of one RK4 step
    ``h`` of the chain ``(q, p, gamma, eps)``, read-only and built once per
    chain and step.  They do not depend on the torque, which enters the
    step through the work vector, so runs at every torque share them.

    On the work vector ``w = [x, v, s1, s2, s3, s4, 1, delta]`` (length
    ``6q + 2``, ``s_i = sin`` of stage i's x-argument) the x-argument of
    stage i is ``w @ G_i`` (stage 1's is ``x`` itself) and the step adds
    ``w @ P`` to ``[x, v]``.  ``P`` holds the increment rather than the
    new state so that ``x`` is not multiplied by a rounded ``1 + O(h^2)``
    coefficient: the update then rounds like ``x + h/6 (...)``.
    """
    basis = np.eye(6 * q + 2)
    x, v = basis[:, :q], basis[:, q:2 * q]
    s = [basis[:, (2 + i) * q:(3 + i) * q] for i in range(4)]
    lap, wrap = _coupling(q, p)
    const = np.outer(basis[:, -2], wrap) + np.outer(basis[:, -1], np.ones(q))

    def vdot(xs, vs, sines):
        # v' as a matrix on w, from the stage's x, v and sine matrices
        return xs @ lap + const - gamma * vs - eps * sines

    h2, h6 = 0.5 * h, h / 6.0
    k1v = vdot(x, v, s[0])
    k2x = v + h2 * k1v
    g2 = x + h2 * v
    k2v = vdot(g2, k2x, s[1])
    k3x = v + h2 * k2v
    g3 = x + h2 * k2x
    k3v = vdot(g3, k3x, s[2])
    k4x = v + h * k3v
    g4 = x + h * k3x
    k4v = vdot(g4, k4x, s[3])
    step = np.hstack([h6 * (v + 2.0 * (k2x + k3x) + k4x),
                      h6 * (k1v + 2.0 * (k2v + k3v) + k4v)])
    return _read_only(g2, g3, g4, step)


def integrate(s0: ChainState, c: ChainParams, dt: float, t_end: float,
              record_every: int = 0) -> Trajectory:
    """Fixed-step classical RK4 from ``s0.t`` to exactly ``s0.t + t_end``.

    ``dt`` is shrunk (never grown) to divide ``t_end`` evenly.
    ``record_every = k`` stores every k-th step (0 records only the
    endpoints).  Raises :class:`BlowUpError` on runaway positions.

    The right-hand side is linear in ``[x, v]`` apart from ``sin x``, so
    each RK4 stage is written as one matrix product on a work vector that
    holds the state, the stage sines and the constants (see
    :func:`_rk4_matrices`).  A step is then 9 direct C calls on length-q
    arrays: four ``ndarray.dot`` products through one bound method, four
    ``np.sin`` and one ``np.add``, each writing to an output passed by
    position.  At chain lengths of a few sites the cost of a step is the
    per-call overhead, not the arithmetic: at q = 3 one
    ``np.matmul(w, G, out=tmp)`` takes about 2.5 times as long as
    ``w.dot(G, tmp)``, which skips the generalized-ufunc set-up and the
    keyword parsing.  The runaway test runs after steps 1, 33, 65, ...,
    so a run raises within 32 steps of passing ``BLOWUP_LIMIT``.  The
    matrices are cached per chain and step, so a run cut into many short
    calls pays for them once.  The record is the trajectory's ``rows``, a
    view of the array the steps were written to.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if t_end < 0:
        raise ValueError("t_end must be >= 0")
    steps = max(1, math.ceil(t_end / dt - 1e-12)) if t_end > 0 else 0
    h = t_end / steps if steps else dt
    limit = stability_limit(c)
    if dt > limit * (1.0 + 1e-12):
        raise ValueError(f"dt={dt:g} exceeds the stability limit {limit:g}")
    g2, g3, g4, step = _rk4_matrices(c.q, c.p, c.gamma, c.eps, h)
    q = c.q
    w = np.empty(6 * q + 2)
    w[:q], w[q:2 * q], w[-2:] = s0.pos, s0.vel, (1.0, c.delta)
    x, z = w[:q], w[:2 * q]
    s1, s2, s3, s4 = (w[(2 + i) * q:(3 + i) * q] for i in range(4))
    # recorded step numbers: 0, every k-th step, and the last one if missed
    marks = np.arange(0, steps + 1, record_every) if record_every else np.zeros(1, int)
    if not record_every or marks[-1] != steps:
        marks = np.append(marks, steps)
    times = s0.t + marks * h
    rec = np.empty((len(marks), 2 * q))
    rec[0] = z
    row = 1
    tmp, new = np.empty(q), np.empty(2 * q)
    sin, add, dot, absolute, peak = np.sin, np.add, w.dot, np.abs, np.maximum.reduce
    for i in range(steps):
        sin(x, s1)
        dot(g2, tmp)
        sin(tmp, s2)
        dot(g3, tmp)
        sin(tmp, s3)
        dot(g4, tmp)
        sin(tmp, s4)
        dot(step, new)
        add(z, new, z)
        if (i & 31) == 0 and peak(absolute(x)) > BLOWUP_LIMIT:
            raise BlowUpError(f"|position| exceeded {BLOWUP_LIMIT:g} "
                              f"at t={s0.t + (i + 1) * h:g}")
        if record_every and (i + 1) % record_every == 0:
            rec[row] = z
            row += 1
    rec[-1] = z
    final = ChainState(float(times[-1]), w[:q].copy(), w[q:2 * q].copy())
    return Trajectory(times, rec.reshape(len(marks), 2, q), final, steps)


def classify_attractor(s0: ChainState, c: ChainParams,
                       horizon: float = DEFAULT_HORIZON) -> AttractorReport:
    """Integrate until the run settles, testing every ``CHECK_EVERY`` time
    units, and check the result by step halving.

    Equilibrium: the energy trap certificate of :func:`_trap` proves the
    run held in the well of a stable equilibrium, or every |velocity|
    stayed below ``TAU_EQ`` over the last ``CHECK_EVERY`` time units off a
    saddle (:func:`_rest_kind`).  Traveling wave: the run's return to the
    neighbor shift ``S z_ref`` of a state it kept guesses the lag ``T/q``
    (:func:`_return_time`), and the delay identity ``z(t + T/q) = S z(t)``
    that :func:`_try_wave` solves from it at ``z_ref`` holds to
    ``TAU_WAVE``.  Otherwise undecided at the horizon.  The report names
    the test that ended its run (``decided_by``) and counts the RK4 steps
    of every run of the check (``rk4_steps``).

    The check halves the step one run at a time, starting at ``h =
    default_dt(c)``, until a run agrees with the one at twice its step on
    the kind and, for waves, on T within ``PERIOD_STEP_RTOL`` relative.
    The finer run's report is returned, with its step ``h / 2**halvings``.
    The first run that settles to an equilibrium ends the check with its
    own report: RK4 leaves every equilibrium in place at any step, and a
    stable one stays stable at every step below :func:`stability_limit`,
    so a finer run started there could only agree.  Only the run at ``h``
    starts at ``s0``; after a wave each finer run starts on the attractor
    of the run at twice its step, where that run ended (:func:`_rerun`),
    and only an undecided run replays the transient from ``s0``.  So the
    check shows that the attractor persists at the finer step with the
    same period, not that ``s0``'s transient reaches it there.  Raises
    :class:`StepRefinementError` when no pair down to
    ``h / 2**MAX_HALVINGS`` agrees, and :class:`ValueError` when
    ``horizon`` is not finite and positive.
    """
    _check_horizon(horizon)
    coarse, end = _classify_attractor(s0, c, horizon, default_dt(c))
    steps, halvings = coarse.rk4_steps, 0
    while coarse.kind != "equilibrium":
        fine, end = _rerun(coarse, end, s0, c, horizon, 0.5 * coarse.dt)
        steps += fine.rk4_steps
        halvings += 1
        gap = (abs(fine.wave_period - coarse.wave_period) / fine.wave_period
               if fine.kind == coarse.kind and fine.wave_period is not None else 0.0)
        if fine.kind == "equilibrium" or (fine.kind == coarse.kind and gap <= PERIOD_STEP_RTOL):
            return replace(fine, halvings=halvings, rk4_steps=steps)
        if halvings == MAX_HALVINGS:
            raise StepRefinementError(
                f"no agreement after {MAX_HALVINGS} step halvings: {coarse.kind} "
                f"(T={coarse.wave_period}) at dt={coarse.dt:g}, {fine.kind} "
                f"(T={fine.wave_period}) at dt={fine.dt:g}")
        coarse = fine
    return coarse


def _rerun(prev: AttractorReport, end: ChainState, s0: ChainState, c: ChainParams,
           horizon: float, dt: float) -> tuple[AttractorReport, ChainState]:
    """One run of :func:`classify_attractor`'s check at step ``dt`` after a
    wave or an undecided run, reported by ``prev``, that ended at ``end``,
    together with the state it ended in.

    After a wave the run starts on the attractor: it settles at ``dt`` for
    ``CHECK_EVERY`` time units from ``end``, records ``prev``'s lag ``T/q``
    (good to that run's step error) and one step ``dt`` more from there,
    and goes straight to :func:`_try_wave` on that record, with the return
    put one such lag on; if that test fails the run goes on as
    :func:`_classify_attractor` from the settled state.  The run has no
    return of its own to wait for: run as :func:`_classify_attractor` from
    ``end``, the check of the q=5 wave at (q, p, gamma, eps, delta) = (5,
    2, 0.3, 0.8, 0.1) took 8644 RK4 steps instead of 5207.  After an
    undecided run it starts again from ``s0``."""
    if prev.kind == "undecided":
        return _classify_attractor(s0, c, horizon, dt)
    settle = integrate(end, c, dt, CHECK_EVERY)
    lag = prev.wave_period / c.q
    stretch = integrate(settle.final, c, dt, dt * (math.ceil(lag / dt) + 1), record_every=1)
    report, spent = _try_wave(settle.final, c, dt, stretch.times, stretch.rows,
                              settle.final.t + lag)
    spent += settle.steps + stretch.steps
    if report is None:
        report, state = _classify_attractor(settle.final, c, horizon, dt)
        return replace(report, rk4_steps=spent + report.rk4_steps), state
    return replace(report, rk4_steps=spent), settle.final


def _check_horizon(horizon: float) -> None:
    if not (math.isfinite(horizon) and horizon > 0):
        raise ValueError(f"horizon must be finite and > 0, got {horizon:g}")


def _spans(s0: ChainState, c: ChainParams, dt: float, horizon: float, record_every: int):
    """The run from ``s0`` at step ``dt`` cut into spans of ``CHECK_EVERY``
    time units, the last one cut short at ``horizon`` (but at least two
    steps long): for each span its :class:`Trajectory`, recorded every
    ``record_every`` steps, with the run's RK4 steps and time up to its
    end.  The run goes on for as long as the caller reads on."""
    state, steps, elapsed = s0, 0, 0.0
    while elapsed < horizon:
        span = min(CHECK_EVERY, max(horizon - elapsed, 2 * dt))
        traj = integrate(state, c, dt, span, record_every)
        state = traj.final
        steps += traj.steps
        elapsed += span
        yield traj, steps, elapsed


def _classify_attractor(s0: ChainState, c: ChainParams, horizon: float,
                        dt: float) -> tuple[AttractorReport, ChainState]:
    """:func:`classify_attractor` for one run at step ``dt``, together with
    the state the run ended in: for a trapped run the certified
    equilibrium at rest.

    After each span of :func:`_spans` the run tests, until one holds:
    every |velocity| below ``TAU_EQ`` (:func:`_rest_kind`); the energy trap
    certificate; a traveling wave.  For the last, an undecided check of a
    twisted chain under torque keeps its state as ``z_ref`` (without
    torque there is no wave, :func:`_shifted`), and once a later span
    records a return to ``S z_ref`` at ``t`` (:func:`_return_time`),
    :func:`_try_wave` tests ``z_ref`` from the return at ``t``, on the rows
    in which the run found it: the span's, after the one row carried from
    the span before.  No earlier row is kept.  A failed test, or a mean
    position two shifts ``2 pi p/q`` from ``z_ref``'s with no return
    (``z_ref`` off the wave), moves ``z_ref`` to the current state.  The
    report counts the RK4 steps of the spans and of every wave test, the
    failed ones included."""
    well = None
    ref, tail = None, None  # z_ref, and the last row but one of the span before
    tested = 0  # RK4 steps of the wave tests
    for traj, steps, elapsed in _spans(s0, c, dt, horizon, 1):
        state = traj.final
        if float(np.max(np.abs(traj.rows[1:, 1]))) < TAU_EQ:
            return AttractorReport(_rest_kind(state.pos, c), 0.0, None, None, dt, "velocity",
                                   rk4_steps=steps + tested), state
        well, trapped = _trap(state, c, well)
        if trapped:
            return (AttractorReport("equilibrium", 0.0, None, None, dt, "trap",
                                    rk4_steps=steps + tested),
                    ChainState(state.t, well.x, np.zeros(c.q)))

        times, rows = traj.times, traj.rows
        if tail is not None:
            times, rows = np.append(tail[0], times), np.concatenate([tail[1], rows])
        tail = times[-2:-1], rows[-2:-1]
        t = None if ref is None else _return_time(ref, c, times, rows)
        if t is not None:
            report, spent = _try_wave(ref, c, dt, times, rows, t)
            tested += spent
            if report is not None:
                return replace(report, rk4_steps=steps + tested), state
        if c.p and c.delta and (ref is None or t is not None
                    or abs(float(np.mean(state.pos - ref.pos))) > 4.0 * math.pi * c.p / c.q):
            ref, tail = state, None
    omega = float(state.pos[0] - s0.pos[0]) / max(elapsed, dt)
    return (AttractorReport("undecided", omega, None, None, dt, "horizon",
                            rk4_steps=steps + tested), state)


def _rest_kind(pos: np.ndarray, c: ChainParams) -> str:
    """The verdict on a run at rest at ``pos``: "equilibrium" where the
    Hessian ``eps diag(cos x) - lap`` has a Cholesky factor or ``eps = 0``
    (singular along uniform shifts), "undecided" on a saddle."""
    hess = c.eps * np.diag(np.cos(pos)) - _coupling(c.q, c.p)[0]
    return "equilibrium" if c.eps == 0 or _cholesky(hess) is not None else "undecided"


def _shifted(state: ChainState, c: ChainParams) -> np.ndarray:
    """``S state``, positions over velocities: each site's moved to its
    neighbor ``k + nb``, up to the ring seam ``x_{k+q} = x_k + 2 pi p``,
    for ``nb = -sign(delta)``: the way a wave runs.

    Over one period of a wave the energy ``E = sum v^2/2 + V`` of
    :func:`_well` falls by ``gamma`` times the integral of ``sum v^2``,
    and of ``V`` only the tilt ``-delta sum x`` changes, by ``-delta q``
    times each site's advance.  So each site advances the way the torque
    pushes it, by ``sign(delta) 2 pi p`` per period, taking on the state
    of its neighbor ``k - nb`` one lag later; and a chain without torque
    has no wave."""
    nb = -1 if c.delta > 0 else 1
    target = np.roll(np.stack([state.pos, state.vel]), nb, axis=1)
    target[0, 0 if nb > 0 else -1] -= nb * 2.0 * math.pi * c.p  # the site across the seam
    return target


def _return_time(ref: ChainState, c: ChainParams, times: np.ndarray,
                 rows: np.ndarray) -> float | None:
    """The time of the first of ``rows`` (states at ``times``, shape ``(n,
    2, q)``, neither end counted) at which the distance ``max|z - S z_ref|``
    to the neighbor shift of ``ref`` (:func:`_shifted`) has a local minimum
    within one step's motion: the run's return to ``S z_ref``, a lag
    ``T/q`` after ``ref`` on a traveling wave."""
    motion = np.max(np.abs(np.diff(rows, axis=0)), axis=(1, 2))
    dist = np.max(np.abs(rows - _shifted(ref, c)), axis=(1, 2))
    mid, reach = dist[1:-1], np.maximum(motion[:-1], motion[1:])
    hits = np.nonzero((mid < dist[:-2]) & (mid <= dist[2:]) & (mid <= reach))[0]
    return float(times[hits[0] + 1]) if len(hits) else None


def _try_wave(ref: ChainState, c: ChainParams, dt: float, times: np.ndarray,
              rows: np.ndarray, t_return: float) -> tuple[AttractorReport | None, int]:
    """Solve the delay identity ``z(t + tau) = S z(t)`` of a traveling wave
    for the lag ``tau = T/q`` at the instant ``t`` of ``ref``, from the
    run's return to ``S z_ref`` at ``t_return``; ``S`` is the neighbor
    shift of :func:`_shifted`.  The chain commutes with ``S``, so the
    identity then holds at every later instant, and ``x_k`` advances by
    ``sign(delta) 2 pi p`` per period.  Gauss-Newton in ``tau`` reads
    ``z(t + tau)`` off ``rows``, the states at ``times`` (laid out as in
    :class:`Trajectory`) that the run through ``ref`` recorded at most
    ``dt`` apart, by :func:`integrate` from the last row before it (one
    partial RK4 step within the rows); its slope is the vector field.  A
    lag outside ``[0.75, 1.3] (t_return - t)`` fails, and so does one
    before the first row, which no step forward reaches.  The largest
    entry of the final residual is the wave's ``delay_error``, which must
    be below ``TAU_WAVE``.  Returns the wave's report, if any, and the RK4
    steps spent."""
    lag = t_return - ref.t
    lap, wrap = _coupling(c.q, c.p)
    target = _shifted(ref, c)
    tau, steps = lag, 0
    for _ in range(50):
        i = int(np.searchsorted(times, ref.t + tau, side="right")) - 1
        step = integrate(ChainState(times[i], *rows[i]), c, dt, ref.t + tau - times[i])
        steps += step.steps
        x, v = step.final.pos, step.final.vel
        res = np.stack([x, v]) - target
        slope = np.stack([v, lap.dot(x) + wrap + c.delta - c.gamma * v - c.eps * np.sin(x)])
        dtau = float(np.sum(res * slope) / np.sum(slope * slope))
        tau -= dtau
        inside = times[0] <= ref.t + tau and 0.75 * lag <= tau <= 1.3 * lag
        if not inside or abs(dtau) <= 1e-13 * tau:
            break
    worst = float(np.max(np.abs(res)))
    if inside and worst < TAU_WAVE:
        T = c.q * tau
        return AttractorReport("traveling_wave", math.copysign(2.0 * math.pi * c.p, c.delta) / T,
                               T, worst, dt, "wave"), steps
    return None, steps


def _cholesky(a: np.ndarray) -> np.ndarray | None:
    """The lower Cholesky factor of ``a``; ``None`` when ``a`` is not
    positive definite."""
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return None


def _cholesky_solve(low: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``low @ low.T @ s = b`` by forward and back substitution."""
    s = b.copy()
    for i in range(len(s)):
        s[i] = (s[i] - low[i, :i].dot(s[:i])) / low[i, i]
    for i in reversed(range(len(s))):
        s[i] = (s[i] - low[i + 1:, i].dot(s[i + 1:])) / low[i, i]
    return s


@dataclass(frozen=True)
class _Well:
    """A stable equilibrium ``x`` of the chain, within ``rho`` of solving the
    equilibrium equations, whose potential's Hessian is at least ``lam``
    there: the data of the trap certificate, valid on the ball of radius
    ``r`` about ``x``."""

    x: np.ndarray
    lam: float
    r: float
    rho: float


def _trap(state: ChainState, c: ChainParams,
          well: _Well | None = None) -> tuple[_Well | None, bool]:
    """Energy trap certificate: whether the run from ``state`` provably
    converges to a stable equilibrium of the chain, and the well
    (:class:`_Well`) that shows it; the well is ``None`` when none is
    found.

    A given ``well`` is reused while ``state`` lies inside its ball, so
    that only the energy inequality of :func:`_holds` is evaluated;
    otherwise :func:`_well` runs Newton from the current positions.  Both
    are equally rigorous: the certificate's hypotheses concern only the
    well's ``(x, lam, r, rho)``, not where Newton started.
    """
    if well is None or np.linalg.norm(state.pos - well.x) >= well.r:
        well = _well(state.pos, c)
        if well is None:
            return None, False
    return well, _holds(state, c, well)


def _scale(x: np.ndarray, c: ChainParams, delta: float) -> float:
    """The size of the terms of the equilibrium equations at ``x``: their
    residual is converged once it is below ``1e-14`` of one plus this."""
    return 4.0 * float(np.max(np.abs(x))) + 2.0 * math.pi * c.p + abs(delta) + c.eps


def _equilibrium(pos: np.ndarray, c: ChainParams):
    """Newton on the equilibrium equations ``lap x + wrap + delta - eps sin x
    = 0`` from ``pos``, each step solved with the Cholesky factor of the
    Hessian ``H = eps diag(cos x) - lap`` of the potential.

    Returns ``(x, hess, low, rho)``: the stable equilibrium, ``H`` there and
    its lower Cholesky factor, and the residual's norm widened by a bound
    on its rounding; ``None`` when ``H`` stops being positive definite, an
    iterate moves more than 1 from ``pos`` on some site (it has left the
    well that ``pos`` lies in), or ``_NEWTON_ITERS`` steps do not
    converge.  :func:`_well` builds the trap certificate on it, and
    :func:`_fold` continues the pinned branch with it from the fold to
    the probe's start.
    """
    lap, wrap = _coupling(c.q, c.p)
    x = pos
    for _ in range(_NEWTON_ITERS):
        force = lap.dot(x) + wrap + c.delta - c.eps * np.sin(x)
        hess = c.eps * np.diag(np.cos(x)) - lap
        low = _cholesky(hess)
        if low is None:
            return None
        scale = _scale(x, c, c.delta)
        rho = math.sqrt(float(force @ force)) + _ROUND * math.sqrt(c.q) * scale
        if rho <= 1e-14 * (1.0 + scale):
            return x, hess, low, rho
        x = x + _cholesky_solve(low, force)
        if float(np.max(np.abs(x - pos))) > 1.0:
            return None
    return None


def _well(pos: np.ndarray, c: ChainParams) -> _Well | None:
    """The stable equilibrium ``x_e`` that Newton reaches from ``pos`` and the
    ball about it on which the trap certificate of :func:`_holds` holds;
    ``None`` when no certificate can be built.

    The damped chain has the Lyapunov function ``E = sum v^2/2 + V(x)``,
    ``V = -x.(lap x/2 + wrap) - eps sum cos x - delta sum x`` (see
    :func:`_coupling`), with ``dE/dt = -gamma sum v^2 <= 0``.  Newton on
    the equilibrium equations (:func:`_equilibrium`), started from
    ``pos``, gives ``x_e`` with a residual of norm ``rho``;
    ``lam > 0`` bounds the smallest eigenvalue of the Hessian
    ``H = -lap + eps diag(cos x_e)`` of ``V`` there from below, and
    ``r = lam/(2 eps)``.  As ``|cos a - cos b| <= |a - b|``,
    ``H >= lam - eps r = lam/2`` on the ball ``|x - x_e|_2 <= r``, so by
    Taylor's theorem ``V(x) >= V(x_e) - rho |x - x_e| + lam |x - x_e|^2/4``
    on the ball and ``V >= V(x_e) + lam r^2/4 - rho r`` on its sphere.
    ``V`` is strictly convex on the ball, so the ball holds exactly one
    equilibrium, within ``2 rho/lam`` of ``x_e``.  ``r <= 1/2`` (``lam`` is
    at most ``eps``, by the Rayleigh quotient of the constant vector), so
    a Newton iterate more than 1 from ``pos`` leads to no trap.

    ``rho`` is widened by a bound on its rounding.  The only LAPACK
    routine used is Cholesky's: with numpy 2.4 the first call of
    ``eigh`` grows the process by about 0.8 MB of resident memory, a
    first Cholesky call by none measurable.  Each Newton step solves with
    the Cholesky factor of ``H``, which also stops Newton where ``H`` is
    not positive definite.  ``lam`` starts from the Rayleigh quotient of
    the soft mode, found by inverse iteration from the constant vector,
    which bounds the smallest eigenvalue from above; shrunk by 1/64, it is
    a lower bound once ``H - lam I`` has a Cholesky factor too, less that
    factorization's rounding.  Degenerate chains get no well (at
    ``eps = 0`` or ``lam <= 0`` the ball is empty, or Newton does not
    converge); the velocity test decides those.
    """
    if c.eps <= 0.0:
        return None
    solved = _equilibrium(pos, c)
    if solved is None:
        return None
    x, hess, low, rho = solved
    mode = np.ones(c.q)
    for _ in range(3):
        mode = _cholesky_solve(low, mode)
        mode /= math.sqrt(float(mode @ mode))
    lam = (1.0 - 1.0 / 64.0) * float(mode @ hess @ mode)
    if _cholesky(hess - lam * np.eye(c.q)) is None:
        return None
    lam -= _ROUND * c.q * c.q * (4.0 + c.eps)
    if lam <= 0.0:
        return None
    return _Well(x, lam, lam / (2.0 * c.eps), rho)


def _holds(state: ChainState, c: ChainParams, well: _Well) -> bool:
    """The energy inequality of the trap certificate: ``state`` lies inside
    the ball of radius ``r`` about ``x_e`` (:func:`_well`) and
    ``E < V(x_e) + lam r^2/4 - rho r``.  Such a state never reaches the
    sphere, where ``V`` is at least that bound, since ``E`` never
    increases and ``V <= E``; by LaSalle's invariance principle the run
    then converges to the ball's one equilibrium.

    ``E - V(x_e)`` is evaluated without cancellation, from
    ``cos x - cos x_e = -2 sin((x + x_e)/2) sin((x - x_e)/2)``.
    """
    d = state.pos - well.x
    if math.sqrt(float(d @ d)) >= well.r:
        return False
    lap, wrap = _coupling(c.q, c.p)
    mid = state.pos + well.x
    excess = (0.5 * float(state.vel @ state.vel) - float(d @ (0.5 * lap.dot(mid) + wrap + c.delta))
              + 2.0 * c.eps * float(np.sin(0.5 * mid) @ np.sin(0.5 * d)))
    return excess < 0.25 * well.lam * well.r ** 2 - well.rho * well.r


@dataclass(frozen=True)
class TorqueProbe:
    """One of the two probes of :func:`critical_torque`: a run at torque
    ``delta`` from a pinned equilibrium at rest, until it settles or
    depins.  A depinned probe gives the time from its start to the first
    recorded row at which a site had moved more than ``_ESCAPE``."""

    delta: float
    outcome: str  # "equilibrium" | "depinned" | "undecided"
    decided_by: str  # "trap" | "velocity" | "escape" | "horizon": the test that ended the run
    rk4_steps: int
    escape_time: float | None = None  # None unless the probe depinned


@dataclass(frozen=True)
class CriticalTorque:
    """The critical torque, the fold of the pinned branch, and how
    :func:`critical_torque` reached it.

    ``dt`` is the start step :func:`default_dt` at which every run
    integrated, with no halving.  ``normal_form`` holds the constants
    ``(A, B)`` of the saddle-node ``gamma s' = A mu + B s^2`` on the
    fold's null vector, ``mu`` the nearer probe's distance above the fold
    that they chose, and ``probes`` the runs at ``fold + mu`` and ``fold
    + 4 mu`` that confirmed it, whose escape times extrapolate to the
    threshold ``delta_star``.  ``fold_iterations`` counts the steps of the
    fold's solve (:func:`_fold`: the walk's steps along the branch, halved
    ones included, and Newton steps).
    """

    critical_delta: float
    dt: float
    rk4_steps: int  # over the descent and both probes
    descent: AttractorReport  # the run without torque that found the pinned branch
    probes: tuple[TorqueProbe, TorqueProbe]
    fold_iterations: int
    normal_form: tuple[float, float]
    mu: float
    delta_star: float


def _settles_or_depins(s0: ChainState, c: ChainParams, horizon: float,
                       dt: float) -> TorqueProbe:
    """Fast pinned/depinned dichotomy for a state near the pinned branch:
    one probe of :func:`critical_torque`.

    After each span of :func:`_spans`, recorded every 8 steps, in this
    order: the verdict of :func:`_rest_kind` when all velocities stayed
    below ``TAU_EQ`` over the span (a run at rest off the branch gets it,
    not "depinned"); "depinned" when a site ends the span more than
    ``_ESCAPE`` (half a radian) from its start; "equilibrium" when the
    energy trap certificate of :func:`_trap` holds.  Warm-started from a
    settled pinned shape, the pinned-side transient stays well below the
    escape distance, while one slip event moves a site by a full site
    spacing; so the test decides after a single bottleneck passage
    instead of waiting out a whole wave period, which diverges at the
    depinning threshold, and the velocity and trap tests end a pinned run.
    Returns the probe's outcome, the test that decided it and its steps.
    A depinned probe adds its escape time from ``s0``, read off the span's
    rows, not its end: the first row with a site past ``_ESCAPE``, at most
    8 steps after the crossing.  That is the bottleneck passage whose law
    :func:`critical_torque` checks.
    """
    well = None
    for traj, steps, _ in _spans(s0, c, dt, horizon, 8):
        state = traj.final
        if float(np.max(np.abs(traj.rows[1:, 1]))) < TAU_EQ:
            return TorqueProbe(c.delta, _rest_kind(state.pos, c), "velocity", steps)
        if float(np.max(np.abs(state.pos - s0.pos))) > _ESCAPE:
            far = np.max(np.abs(traj.rows[:, 0] - s0.pos), axis=1) > _ESCAPE
            return TorqueProbe(c.delta, "depinned", "escape", steps,
                               float(traj.times[np.argmax(far)]) - s0.t)
        well, trapped = _trap(state, c, well)
        if trapped:
            return TorqueProbe(c.delta, "equilibrium", "trap", steps)
    return TorqueProbe(c.delta, "undecided", "horizon", steps)


def _fold_terms(x: np.ndarray, c: ChainParams, basis: np.ndarray):
    """The terms of :func:`_fold`'s extended system at positions ``x``:
    ``(delta, force, g, v, low, norm)``, or ``None`` where ``B^T H B`` is
    not positive definite, ``B`` being ``basis``.

    ``delta`` is the torque that balances the mean force at ``x`` and
    ``force`` the residual of the equilibrium equations with it; ``g`` and
    ``v`` solve the bordered system ``H v + g 1 = 0``, ``1.v = 1``, by the
    Cholesky factor ``low`` of ``B^T H B``, and ``norm`` is the norm of
    ``(force, g)``.
    """
    lap, wrap = _coupling(c.q, c.p)
    hess = c.eps * np.diag(np.cos(x)) - lap
    low = _cholesky(basis.T.dot(hess).dot(basis))
    if low is None:
        return None
    force = lap.dot(x) + wrap - c.eps * np.sin(x)
    delta = -float(np.mean(force))
    force += delta
    one = np.ones(c.q)
    v = (one - basis @ _cholesky_solve(low, basis.T @ hess @ one)) / c.q
    g = -float(np.mean(hess @ v))
    return delta, force, g, v, low, math.sqrt(float(force @ force) + g * g)


def _pinned(x: np.ndarray, c: ChainParams, basis: np.ndarray):
    """The pinned branch at the mean of ``x`` and its :func:`_fold_terms`,
    by Newton on ``B^T F = 0`` with the Cholesky factor of ``B^T H B``;
    ``None`` when that fails or ``_NEWTON_ITERS`` steps do not converge."""
    for _ in range(_NEWTON_ITERS):
        terms = _fold_terms(x, c, basis)
        if terms is None:
            return None
        delta, force, low = terms[0], terms[1], terms[4]
        if math.sqrt(float(force @ force)) <= 1e-14 * (1.0 + _scale(x, c, delta)):
            return x, terms
        x = x + basis @ _cholesky_solve(low, basis.T @ force)
    return None


def _fold(pos: np.ndarray, c: ChainParams
          ) -> tuple[tuple[float, np.ndarray, float, float] | None, int]:
    """The fold of the pinned branch through ``pos``, an equilibrium of
    the chain without torque: its torque ``delta_f``, the branch's stable
    equilibrium at ``delta_f (1 - FOLD_PROBE_RTOL/2)`` and the
    normal-form constants ``A`` and ``B`` of the fold, or ``None`` when the
    solve fails, together with the steps the solve took.

    The sites' forces sum to ``q delta - eps sum sin x`` (the coupling sums
    to zero over the ring), so on the branch ``delta = eps mean(sin x)``,
    and the other equations, ``B^T (lap x + wrap - eps sin x) = 0`` for the
    basis ``B`` of columns ``e_{k+1} - e_k`` of the site vectors that sum
    to zero, leave it one free direction: the mean position ``s``.  The
    branch ends at a fold, where the Hessian ``H = eps diag(cos x) - lap``
    of the potential is singular with a null vector that does not sum to
    zero.  The bordered system ``H v + g 1 = 0``, ``1.v = 1`` then has
    ``g = 0``, and Newton solves the extended system ``(B^T F, g) = 0`` in
    ``x``, ``F`` being the force (a minimally extended system with the
    bordered test function of Griewank and Reddien, 1984; see Govaerts,
    *Numerical Methods for Bifurcations of Dynamical Equilibria*, 2000, and
    for the full extended system Moore and Spence, 1980).  ``q v`` is the
    branch's tangent ``dx/ds``, and ``g = -v.H v`` is ``-1/q`` times the
    slope of ``delta`` against ``s``: negative on the stable branch, zero
    at the fold.  By the symmetry of ``H`` its gradient is
    ``eps sin(x) v^2``, and ``kappa = (eps sin(x) v^2).v`` gives the
    branch's curvature, ``delta = delta_f - q^2 kappa (s - s_f)^2 / 2``
    near the fold.  On ``x = x_f + s v`` the slow motion past the fold at
    ``delta_f + mu`` then follows the saddle-node ``gamma s' = A mu + B
    s^2``, with ``A = (1.v)/|v|^2`` and ``B = kappa/(2 |v|^2)`` (Strogatz,
    *Nonlinear Dynamics and Chaos*, 4.3), which :func:`critical_torque`
    sizes its probes by.  ``H`` is positive definite on the vectors that
    sum to zero along the stable branch and through the fold, so every
    solve uses the Cholesky factor of ``B^T H B``, and no other
    factorization.

    The solve starts on the branch at ``pos`` rounded to
    ``_FOLD_START_DECIMALS`` decimals, whose last digits, set by the run's
    step, would otherwise reach those of the fold.  Relabelling the sites
    ``k -> k + m`` and shifting them by ``-2 pi n`` raises the mean by
    ``2 pi (m p - n q)/q``, so ``delta(s)`` is ``2 pi/q``-periodic
    (``gcd(p, q) = 1``).  The solve walks uphill, the way ``-sign(g)``, in
    steps of ``_WALK_STEP`` of that period along the tangent, each put back
    on the branch by :func:`_pinned` or else halved, until ``g`` changes
    sign.  For sine forcing ``delta(s)`` has one maximum per period, so the
    walk ends at the tongue edge ``delta_max``; a general forcing can have
    several, and must revisit this.  Newton then starts from the end with
    the smaller ``|g|``, each step halved until the norm of ``(F, g)``
    drops, and ``kappa`` must stay positive.  The walk and Newton each fail
    after ``_FOLD_NEWTON_ITERS`` steps.  Newton has converged when a whole
    step no longer lowers the norm and the norm is below ``1e-14`` of one
    plus the equations' scale, the bound at which :func:`_equilibrium`
    stops.  The quadratic model then puts the branch's equilibrium at
    ``delta_f (1 - FOLD_PROBE_RTOL/2)`` at
    ``x_f - sqrt(FOLD_PROBE_RTOL |delta_f| / kappa) v``, and
    :func:`_equilibrium` continues the branch there from that prediction,
    to a strict minimum of the potential (``H`` has a Cholesky factor),
    asymptotically stable under damping (:func:`_well`), or fails.
    """
    basis = np.eye(c.q, c.q - 1, -1) - np.eye(c.q, c.q - 1)
    branch = _pinned(np.round(pos, _FOLD_START_DECIMALS), c, basis)
    if branch is None:
        return None, 0
    x, terms = branch
    # (g, v) = terms[2:4]; uphill is the way -sign(g) in s, along the
    # tangent q v, and a step is _WALK_STEP times 2 pi/q
    ds = -math.copysign(_WALK_STEP * 2.0 * math.pi, terms[2])
    for walked in range(1, _FOLD_NEWTON_ITERS + 1):
        ahead = _pinned(x + ds * terms[3], c, basis)
        if ahead is None:
            ds *= 0.5
        elif ds * ahead[1][2] < 0.0:
            x, terms = ahead
        else:  # g changed sign: Newton starts from the end nearer the fold
            x, terms = min((x, terms), ahead, key=lambda end: abs(end[1][2]))
            break
    else:
        return None, walked
    for steps in range(walked, walked + _FOLD_NEWTON_ITERS):
        delta, force, g, v, low, norm = terms
        slope = c.eps * np.sin(x) * v * v
        kappa = float(slope @ v)
        if not kappa > 0.0:
            return None, steps
        step = basis @ _cholesky_solve(low, basis.T @ force)
        step -= (g + float(slope @ step)) / kappa * v
        for _ in range(_FOLD_NEWTON_ITERS):
            terms = _fold_terms(x + step, c, basis)
            if terms is not None and terms[-1] < norm:
                break
            if norm <= 1e-14 * (1.0 + _scale(x, c, delta)):
                guess = x - math.sqrt(FOLD_PROBE_RTOL * abs(delta) / kappa) * v
                below = _equilibrium(guess,
                                     replace(c, delta=delta * (1.0 - 0.5 * FOLD_PROBE_RTOL)))
                a = 1.0 / float(v @ v)  # 1.v = 1
                return (None if below is None else (delta, below[0], a, 0.5 * kappa * a)), steps
            step *= 0.5
        else:
            return None, steps + 1
        x = x + step
    return None, walked + _FOLD_NEWTON_ITERS


def critical_torque(c: ChainParams, horizon: float = DEFAULT_HORIZON) -> CriticalTorque:
    """The torque at which the pinned branch ends: its fold, stable just
    below it and confirmed above it by two probes that depin as the
    saddle-node's bottleneck predicts.

    The chain fixes the torque by itself (``c.delta`` is not read).  The
    descent runs from :func:`twist_state` without torque, where no wave
    exists, to a stable equilibrium (the trap certificate) or to rest (the
    twisted q=2 start ``(0, pi)`` is a saddle on the branch's curve).
    :func:`_fold` walks the branch from there to the fold, solves for it,
    and continues the branch to its equilibrium at ``fold (1 -
    FOLD_PROBE_RTOL/2)``, a strict minimum of the potential: the pinned
    side, certified without a run.  Two probes above the fold check the
    dynamics.

    Past ``fold + mu`` a run crawls through the bottleneck the fold
    leaves, ``gamma s' = A mu + B s^2`` with :func:`_fold`'s ``A`` and
    ``B``, in the time ``pi gamma / sqrt(A B mu)`` (a run from the pinned
    equilibrium, part way in, takes a little over half of it).  ``mu`` is
    chosen to make that time two ``CHECK_EVERY`` spans, within
    ``[FOLD_PROBE_RTOL/2, _PROBE_MAX_RTOL]`` times the fold: small folds,
    and the bench and CI chains, take the upper end.  One probe runs at
    ``fold + mu`` and one at ``fold + 4 mu``, each from rest at the
    certified equilibrium (the chain is underdamped and hysteretic), and
    each must depin by :func:`_settles_or_depins`.  By the law, ``t^-2``
    of an escape time ``t`` is linear in the torque and vanishes at the
    threshold, so the line through the two probes' values must cross zero
    at a ``delta_star`` within ``FOLD_LAW_RTOL`` of the fold; a far probe
    that escapes no sooner than the near one fails.  One escape above the
    fold would show only that the chain depins there; the law shows that
    its dynamics depin at the fold.

    Returns a :class:`CriticalTorque`.  Raises
    :class:`UnconfirmedFoldError` when the descent is undecided at the
    horizon, the fold solve fails, a probe disagrees or is undecided at
    the horizon, or the escape times miss the law; and
    :class:`ValueError` when ``horizon`` is not finite and positive.
    """
    _check_horizon(horizon)
    dt = default_dt(c)
    descent, settled = _classify_attractor(twist_state(c), replace(c, delta=0.0), horizon, dt)
    if descent.decided_by == "horizon":
        raise UnconfirmedFoldError(f"the descent at zero torque did not settle within horizon "
                                   f"{horizon:g}; raise the horizon")
    fold, fold_iterations = _fold(settled.pos, c)
    if fold is None:
        raise UnconfirmedFoldError(f"the fold solve failed ({fold_iterations} steps)")
    crit, below, a, b = fold
    mu = (math.pi * c.gamma / (2.0 * CHECK_EVERY)) ** 2 / (a * b)
    mu = min(max(mu, 0.5 * FOLD_PROBE_RTOL * abs(crit)), _PROBE_MAX_RTOL * abs(crit))
    start = ChainState(0.0, below, np.zeros(c.q))
    probes = []
    for delta in (crit + mu, crit + 4.0 * mu):
        probe = _settles_or_depins(start, replace(c, delta=delta), horizon, dt)
        if probe.outcome == "undecided":
            raise UnconfirmedFoldError(f"probe undecided at delta={delta:g} within horizon "
                                       f"{horizon:g}; raise the horizon")
        if probe.outcome != "depinned":
            raise UnconfirmedFoldError(f"probe at delta={delta:g} disagrees with the fold "
                                       f"{crit:g}: {probe.outcome}, not depinned")
        probes.append(probe)
    near, far = probes
    slow, fast = near.escape_time ** -2, far.escape_time ** -2
    star = near.delta - slow * (far.delta - near.delta) / (fast - slow) if fast > slow else math.nan
    if not abs(star - crit) <= FOLD_LAW_RTOL * abs(crit):
        raise UnconfirmedFoldError(
            f"probes at delta={near.delta:g} and {far.delta:g} escaped at t={near.escape_time:g} "
            f"and {far.escape_time:g}, off the bottleneck law through the fold {crit:g}"
            + (f" (threshold {star:g})" if fast > slow else ""))
    return CriticalTorque(crit, dt, descent.rk4_steps + near.rk4_steps + far.rk4_steps,
                          descent, (near, far), fold_iterations, (a, b), mu, star)
