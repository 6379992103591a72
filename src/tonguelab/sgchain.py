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
short and the bisection logic on top needs deterministic
reproducibility.  The step is chosen, not set:

* **Start step.**  :func:`default_dt` takes ``h * omega_max = 0.8`` with
  ``omega_max = sqrt(eps + 4)`` the chain's highest linear frequency,
  capped at half of RK4's stability limit for the linearized chain
  (:func:`stability_limit`, which also bounds every ``dt`` that
  :func:`integrate` accepts).
* **Checked classification.**  :func:`classify_attractor` compares runs
  at a step and at half of it, from ``h`` down, until such a pair agrees
  on the kind and, for a traveling wave, on the period within
  ``PERIOD_STEP_RTOL``; it reports the finer run, its step and the
  number of halvings from ``h`` (step doubling, as in Hairer, Norsett and
  Wanner, *Solving ODEs I*, II.4).  After a pair of waves disagrees it
  skips to the first halving at which RK4's ``h^4`` error law predicts
  agreement.
* **Bisection at the start step.**  An equilibrium of the chain makes
  every RK4 stage vanish, so it is a fixed point of the RK4 step for any
  ``h``: the pinned branch that :func:`critical_torque` follows does not
  move with the step.

A chain has only a few sites, so a step written site by site is
dominated by the fixed cost of each numpy call, not by arithmetic.
:func:`integrate` therefore writes each RK4 stage as one matrix product
on a work vector holding the state, the stage sines and the constants:
9 numpy calls per step whatever q is.
"""

from __future__ import annotations

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
# Equilibrium when every |velocity| stays below this over a window.
TAU_EQ = 1e-8
# Traveling wave when the neighbor-delay identity holds this tightly.
TAU_WAVE = 1e-4
# Give up and report "undecided" after this much integrated time.
DEFAULT_HORIZON = 1e5
# Positions beyond this magnitude abort the run as a blow-up.
BLOWUP_LIMIT = 1e8
# A torque probe has depinned once a site moves this far from its start.
_ESCAPE = 0.5


class BlowUpError(RuntimeError):
    """Integration left the physically meaningful region."""


class StepRefinementError(RuntimeError):
    """Classifications at successive step halvings kept disagreeing."""


@dataclass(frozen=True)
class ChainParams:
    """Chain length q, twist p, damping, gravity, and torque."""

    q: int
    p: int
    gamma: float
    eps: float
    delta: float

    def __post_init__(self):
        if self.q < 2:
            raise ValueError("chain length q must be >= 2")
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
    delay_error: float | None
    dt: float  # the RK4 step of the run that gave this report
    halvings: int = 0  # dt is the start step halved this many times


@dataclass(frozen=True)
class Trajectory:
    """Decimated samples of one integration plus the exact final state."""

    times: np.ndarray
    pos: np.ndarray  # shape (n_samples, q)
    vel: np.ndarray
    final: ChainState


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
    :func:`classify_attractor` checks its result by step halving, and
    :func:`critical_torque` follows equilibria, which do not move with the
    step.
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
    root leaves the region
    (``test_stability_limit_is_the_least_over_the_root_locus`` checks
    this against a scan of the whole locus).
    """
    a = 0.5 * c.gamma
    top = complex(-a, math.sqrt(max(c.eps + 4.0 - a * a, 0.0)))
    # bisect along the ray through the top root: it leaves the star-shaped
    # region once, before |h top| = 3, where |R| > 1.1 all round
    inside, outside = 0.0, 3.0 / abs(top)
    for _ in range(60):
        mid = 0.5 * (inside + outside)
        if abs(_rk4_gain(mid * top)) <= 1.0:
            inside = mid
        else:
            outside = mid
    return min(_RK4_REAL_LIMIT / (a + math.sqrt(a * a + c.eps)), inside)


def _rk4_gain(z: complex) -> complex:
    """RK4's amplification factor ``R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24``."""
    return 1.0 + z * (1.0 + z * (0.5 + z * (1.0 / 6.0 + z / 24.0)))


def _rk4_matrices(c: ChainParams, h: float):
    """Stage matrices ``(G2, G3, G4)`` and step matrix ``P`` of one RK4 step.

    On the work vector ``w = [x, v, s1, s2, s3, s4, 1, delta]`` (length
    ``6q + 2``, ``s_i = sin`` of stage i's x-argument) the x-argument of
    stage i is ``w @ G_i`` (stage 1's is ``x`` itself) and the step adds
    ``w @ P`` to ``[x, v]``.  ``P`` holds the increment rather than the
    new state so that ``x`` is not multiplied by a rounded ``1 + O(h^2)``
    coefficient: the update then rounds like ``x + h/6 (...)``.
    """
    q = c.q
    basis = np.eye(6 * q + 2)
    x, v = basis[:, :q], basis[:, q:2 * q]
    s = [basis[:, (2 + i) * q:(3 + i) * q] for i in range(4)]
    lap = -2.0 * np.eye(q) + np.roll(np.eye(q), 1, axis=0) + np.roll(np.eye(q), -1, axis=0)
    # the twisted boundary x_{k+q} = x_k + 2 pi p as constant terms
    wrap = np.zeros(q)
    wrap[0] -= 2.0 * math.pi * c.p
    wrap[-1] += 2.0 * math.pi * c.p
    const = np.outer(basis[:, -2], wrap) + np.outer(basis[:, -1], np.ones(q))

    def vdot(xs, vs, sines):
        # v' as a matrix on w, from the stage's x, v and sine matrices
        return xs @ lap + const - c.gamma * vs - c.eps * sines

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
    return g2, g3, g4, step


def integrate(s0: ChainState, c: ChainParams, dt: float, t_end: float,
              record_every: int = 0) -> Trajectory:
    """Fixed-step classical RK4 from ``s0.t`` to exactly ``s0.t + t_end``.

    ``dt`` is shrunk (never grown) to divide ``t_end`` evenly.
    ``record_every = k`` stores every k-th step (0 records only the
    endpoints).  Raises :class:`BlowUpError` on runaway positions.

    The right-hand side is linear in ``[x, v]`` apart from ``sin x``, so
    each RK4 stage is written as one matrix product on a work vector that
    holds the state, the stage sines and the constants (see
    :func:`_rk4_matrices`).  A step is then 9 numpy calls on length-q
    arrays: at chain lengths of a few sites the cost of a step is the
    per-call overhead, not the arithmetic.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if dt > stability_limit(c) * (1.0 + 1e-12):
        raise ValueError(f"dt={dt:g} exceeds the stability limit {stability_limit(c):g}")
    if t_end < 0:
        raise ValueError("t_end must be >= 0")
    steps = max(1, math.ceil(t_end / dt - 1e-12)) if t_end > 0 else 0
    h = t_end / steps if steps else dt
    q = c.q
    g2, g3, g4, step = _rk4_matrices(c, h)
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
    sin, matmul = np.sin, np.matmul
    for i in range(steps):
        sin(x, out=s1)
        matmul(w, g2, out=tmp)
        sin(tmp, out=s2)
        matmul(w, g3, out=tmp)
        sin(tmp, out=s3)
        matmul(w, g4, out=tmp)
        sin(tmp, out=s4)
        matmul(w, step, out=new)
        z += new
        if (i & 31) == 0 and np.max(np.abs(x)) > BLOWUP_LIMIT:
            raise BlowUpError(f"|position| exceeded {BLOWUP_LIMIT:g} "
                              f"at t={s0.t + (i + 1) * h:g}")
        if record_every and (i + 1) % record_every == 0:
            rec[row] = z
            row += 1
    rec[-1] = z
    final = ChainState(float(times[-1]), w[:q].copy(), w[q:2 * q].copy())
    return Trajectory(times, rec[:, :q], rec[:, q:], final)


def _hermite(traj: Trajectory):
    """Cubic Hermite interpolant of the recorded ``(pos, vel)`` rows: ``at(t)``
    gives ``(x, x')`` for every site at every time, each of shape ``(len(t), q)``."""
    times = traj.times

    def at(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        i = np.clip(np.searchsorted(times, t, side="right") - 1, 0, len(times) - 2)
        h = (times[i + 1] - times[i])[:, None]
        s = (t - times[i])[:, None] / h
        x0, x1 = traj.pos[i], traj.pos[i + 1]
        m0, m1 = h * traj.vel[i], h * traj.vel[i + 1]
        c2 = 3.0 * (x1 - x0) - 2.0 * m0 - m1
        c3 = 2.0 * (x0 - x1) + m0 + m1
        return x0 + s * (m0 + s * (c2 + s * c3)), (m0 + s * (2.0 * c2 + 3.0 * s * c3)) / h

    return at


def _refine_period(at, ts: np.ndarray, t_guess: float, rotation: float) -> float | None:
    """Gauss-Newton in T on the mismatch ``x(t + T) - x(t) - rotation``
    over the times ``ts``, its slope in T being ``v(t + T)``; ``None``
    when T leaves ``[0.75, 1.3] * t_guess``."""
    target, T = at(ts)[0] + rotation, t_guess
    for _ in range(50):
        x, v = at(ts + T)
        step = float(np.sum((x - target) * v) / np.sum(v * v))
        T -= step
        if not 0.75 * t_guess <= T <= 1.3 * t_guess:
            return None
        if abs(step) <= 1e-13 * T:
            break
    return T


def classify_attractor(s0: ChainState, c: ChainParams,
                       horizon: float = DEFAULT_HORIZON) -> AttractorReport:
    """Integrate in growing windows until the run settles, and check the
    result by step halving.

    Equilibrium: every |velocity| below ``TAU_EQ`` throughout the last
    window.  Traveling wave: site 0 advances by full turns of 2 pi p at a
    steady interval (that interval is the period T, robust even for the
    creeping waves just above depinning) and the delay identity
    ``x_k(t) = x_{k+-1}(t + T/q)`` holds to ``TAU_WAVE``.  Otherwise
    undecided at the horizon.

    The check compares pairs of runs from ``s0`` at a step and at half of
    it, starting at ``h = default_dt(c)``, until a pair agrees on the kind
    and, for waves, on T within ``PERIOD_STEP_RTOL`` relative.  The finer
    run's report is returned, with its step ``h / 2**halvings``.  RK4's
    error falls like ``h^4``, so the gap between a pair estimates the
    coarse run's error and the finer run's is about a fifteenth of it.
    The same law predicts the next pair: after two waves disagree by a
    relative gap ``g``, the check skips to the first halving at which
    ``g / 16**skip`` meets the tolerance (the q=5, p=2, eps 0.8 wave of
    the tests has ``g = 2e-5`` at ``h`` and agrees at ``h/8, h/16``); after
    a change of kind it halves once.  Raises :class:`StepRefinementError`
    when no pair down to ``h / 2**MAX_HALVINGS`` agrees.
    """
    start = default_dt(c)
    depth = 0  # the coarse run of the pair is at start / 2**depth
    coarse = _classify_attractor(s0, c, horizon, start)[0]
    while True:
        fine = _classify_attractor(s0, c, horizon, 0.5 * coarse.dt)[0]
        same = fine.kind == coarse.kind
        gap = (abs(fine.wave_period - coarse.wave_period) / fine.wave_period
               if same and fine.wave_period is not None else 0.0)
        if same and gap <= PERIOD_STEP_RTOL:
            return replace(fine, halvings=depth + 1)
        if depth + 1 == MAX_HALVINGS:
            raise StepRefinementError(
                f"no agreement after {MAX_HALVINGS} step halvings: {coarse.kind} "
                f"(T={coarse.wave_period}) at dt={coarse.dt:g}, {fine.kind} "
                f"(T={fine.wave_period}) at dt={fine.dt:g}")
        skip = 1
        while same and depth + skip + 1 < MAX_HALVINGS and gap / 16.0 ** skip > PERIOD_STEP_RTOL:
            skip += 1
        depth += skip
        coarse = fine if skip == 1 else _classify_attractor(s0, c, horizon, start / 2 ** depth)[0]


def _classify_attractor(s0: ChainState, c: ChainParams, horizon: float,
                        dt: float) -> tuple[AttractorReport, ChainState]:
    """:func:`classify_attractor` together with the state its run ended in."""
    state = s0
    elapsed = 0.0
    window = 50.0
    ref = float(s0.pos[0])
    turns = 2.0 * math.pi * max(c.p, 1)
    crossings: list[float] = []
    last_turn = 0
    while elapsed < horizon:
        window = min(window, max(horizon - elapsed, 2 * dt))
        traj = integrate(state, c, dt, window, record_every=1)
        state = traj.final
        elapsed += window

        if float(np.max(np.abs(traj.vel[1:]))) < TAU_EQ:
            return AttractorReport("equilibrium", 0.0, None, None, dt), state

        # full-turn crossings of site 0
        adv = np.floor((traj.pos[:, 0] - ref) / turns).astype(int)
        for i in np.nonzero(np.diff(adv) != 0)[0]:
            k_new = int(adv[i + 1])
            level = ref + turns * (k_new if k_new > last_turn else last_turn)
            x0a, x0b = traj.pos[i, 0], traj.pos[i + 1, 0]
            frac = (level - x0a) / (x0b - x0a) if x0b != x0a else 0.5
            crossings.append(float(traj.times[i] + frac * (traj.times[i + 1] - traj.times[i])))
            last_turn = k_new
        if len(crossings) >= 3:
            t_a = crossings[-2] - crossings[-3]
            t_b = crossings[-1] - crossings[-2]
            if t_a > 0 and t_b > 0 and abs(t_a - t_b) < 0.02 * t_b:
                sign = 1.0 if state.pos[0] >= ref else -1.0
                report = _try_wave(state, c, dt, t_b, sign)
                if report is not None:
                    return report, state
                crossings = crossings[-1:]
        window = min(window * 2.0, 3200.0)
    omega = (float(state.pos[0]) - ref) / max(elapsed, dt)
    return AttractorReport("undecided", omega, None, None, dt), state


def _try_wave(state: ChainState, c: ChainParams, dt: float,
              t_guess: float, sign: float) -> AttractorReport | None:
    """Record a dense stretch, read it through :func:`_hermite`, refine the
    period T from ``t_guess`` (:func:`_refine_period`) and test the delay
    identity ``x_k(t) = x_{k+-1}(t + T/q)`` for either direction of travel,
    up to the ring seam ``x_{k+q} = x_k + 2 pi p``, against ``TAU_WAVE``."""
    if c.p == 0 or not 0 < t_guess < 2e5:
        return None
    rotation = 2.0 * math.pi * c.p
    at = _hermite(integrate(state, c, dt, 1.6 * t_guess + 10.0, record_every=1))
    ts = state.t + np.linspace(0.0, 0.25 * t_guess, 257)
    T = _refine_period(at, ts[::8], t_guess, sign * rotation)
    if T is None:
        return None
    now, later = at(ts)[0], at(ts + T / c.q)[0]
    worst = math.inf
    for nb in (-1, +1):  # the wave may run either way around the ring
        # the site whose neighbor wraps around the ring is one turn off
        seam = nb * rotation * (np.arange(c.q) == (c.q - 1 if nb > 0 else 0))
        worst = min(worst, float(np.max(np.abs(now - np.roll(later, -nb, axis=1) - seam))))
    if worst < TAU_WAVE:
        return AttractorReport("traveling_wave", sign * rotation / T, T, worst, dt)
    return None


class InvalidBracketError(RuntimeError):
    def __init__(self, lo: float, hi: float, message: str):
        super().__init__(f"{message} (bracket [{lo:g}, {hi:g}])")
        self.lo = lo
        self.hi = hi


def _settles_or_depins(s0: ChainState, c: ChainParams, horizon: float,
                       dt: float) -> tuple[str, ChainState]:
    """Fast pinned/depinned dichotomy for a state near the pinned branch.

    "equilibrium" when all velocities drop below ``TAU_EQ`` over a
    window; "depinned" when any site travels more than ``_ESCAPE`` (half
    a radian) from its start.  Warm-started from a settled pinned shape,
    the pinned-side transient stays well below that, while one slip
    event moves a site by a full site spacing; so the test decides after
    a single bottleneck passage instead of waiting out a whole wave
    period, which diverges at the depinning threshold.  Returns the
    outcome together with the final state.
    """
    ref = s0.pos.copy()
    state = s0
    elapsed = 0.0
    window = 50.0
    while elapsed < horizon:
        window = min(window, max(horizon - elapsed, 2 * dt))
        traj = integrate(state, c, dt, window, record_every=8)
        state = traj.final
        elapsed += window
        if float(np.max(np.abs(traj.vel[1:]))) < TAU_EQ:
            return "equilibrium", state
        if float(np.max(np.abs(state.pos - ref))) > _ESCAPE:
            return "depinned", state
        window = min(window * 2.0, 4000.0)
    return "undecided", state


def critical_torque(c: ChainParams, bracket: tuple[float, float],
                    rel_tol: float = 1e-3,
                    horizon: float = DEFAULT_HORIZON) -> float:
    """Bisect the torque between pinned and running behavior.

    The bracket ends are validated with the full attractor classifier
    (equilibrium at ``bracket[0]``, traveling wave at ``bracket[1]``).
    Interior points use the pinned/depinned dichotomy instead: close to
    the threshold the wave period diverges, so waiting for a full period
    there would turn each probe into an hours-long run, while escape by a
    full turn decides "no equilibrium" just as rigorously given the
    attractor dichotomy.  Each probe restarts from the last settled
    equilibrium so the continuation follows the pinned branch; the first
    is the state the classification at ``bracket[0]`` settled in.

    Every run uses the start step :func:`default_dt`, with no halving
    check.  At an equilibrium of the chain every RK4 stage is zero, so
    each equilibrium is a fixed point of the RK4 step at any ``h``, and a
    stable one stays stable at every ``h`` below :func:`stability_limit`
    (its modes are roots on the locus that limit covers).  The pinned
    branch, and the torque at which it ends, therefore do not move with
    the step.  The bracket ends need only their kind, not a wave period.
    """
    lo, hi = bracket
    if not lo < hi:
        raise InvalidBracketError(lo, hi, "bracket must satisfy lo < hi")
    dt = default_dt(c)
    rep_lo, settled = _classify_attractor(twist_state(c), replace(c, delta=lo), horizon, dt)
    if rep_lo.kind != "equilibrium":
        raise InvalidBracketError(lo, hi, f"no equilibrium at delta={lo:g} "
                                          f"(got {rep_lo.kind})")
    eq_state = ChainState(0.0, settled.pos, np.zeros(c.q))
    rep_hi = _classify_attractor(eq_state, replace(c, delta=hi), horizon, dt)[0]
    if rep_hi.kind != "traveling_wave":
        raise InvalidBracketError(lo, hi, f"no traveling wave at delta={hi:g} "
                                          f"(got {rep_hi.kind})")
    while (hi - lo) > rel_tol * max(abs(hi), abs(lo), 1e-12):
        mid = 0.5 * (lo + hi)
        cm = replace(c, delta=mid)
        outcome, final = _settles_or_depins(eq_state, cm, horizon, dt)
        if outcome == "equilibrium":
            lo = mid
            eq_state = ChainState(0.0, final.pos, np.zeros(c.q))
        elif outcome == "depinned":
            hi = mid
        else:
            raise RuntimeError(f"undecided at delta={mid:g} within horizon "
                               f"{horizon:g}; raise the horizon")
    return 0.5 * (lo + hi)
