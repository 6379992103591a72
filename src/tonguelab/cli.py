"""Command-line front end.

Subcommands map one-to-one onto the library: ``orbit`` (every p/q orbit
at a drift, from the roots of the drift profile), ``profile`` (drift
profile over x0), ``tongue`` (width sweep over eps), ``series`` (eps
expansion), ``chain`` (sine-Gordon runs), and ``fit`` (power-law fit of a
width CSV).  One table, :data:`COMMANDS`, gives each subcommand its
runner, help text, output formats and the config keys it reads.  A
subcommand accepts those keys, and no others, as flags and as
``key=value`` lines of a ``--config`` file (flags win); every output
carries the tool version and the resolved values of exactly those keys.
A list value may start with a negative number: ``--bracket -0.02,0.1``.

``chain`` has no step option: :mod:`tonguelab.sgchain` chooses the RK4
step and checks a classification by step halving.  Its JSON ``meta``
carries ``diagnostics``: the step the result was obtained at (``dt``) and
how many times the start step was halved to reach it (``halvings``; 0
when the run at the start step settles to an equilibrium, which ends
the check, and for ``--bracket``, whose probes run at the start step).
A classification is ``undecided`` at the horizon or at rest on a saddle;
a wave's ``delay_error`` is the largest entry of ``z(t + T/q) - S z(t)``
over positions and velocities at one instant, ``S`` moving each site to
its neighbor.  It adds the test that ended the run it reports
(``decided_by``: ``trap`` for the energy trap certificate, ``velocity``
for velocities below ``TAU_EQ``, ``wave`` for the delay identity,
``horizon`` at the horizon) and the RK4 steps of every run of the
halving check (``rk4_steps``).  ``--bracket lo,hi`` reports the critical
torque of :func:`~tonguelab.sgchain.critical_torque` as
``critical_delta``: the fold of the pinned branch, certified stable just
below it and confirmed by two probes above it, at ``fold + mu`` and
``fold + 4 mu``, whose escape times follow the saddle-node's bottleneck
law.  ``lo,hi`` is only the range the torque must lie in: one outside it,
or a fold that cannot be confirmed, is a numerical failure (exit 1).  It
adds the deciding test and RK4 steps of the descent, the run without
torque that finds the pinned branch (``descent``), the RK4 steps of the
descent and the probes (``rk4_steps``), the steps of the fold's solve
(``fold_newton_iters``), the fold's normal-form constants ``A`` and
``B`` and the ``mu`` they chose, each probe (``probes``: its torque,
outcome, deciding test, RK4 steps and escape time) and the extrapolated
threshold (``delta_star``); the payload keeps ``critical_delta`` alone.
``--t-end`` and ``--format`` shape the trajectory that ``--out`` writes,
so ``chain`` takes them only with ``--out``; for a whole-number
``--t-end`` (200 time units by default) the trajectory's rows are one
time unit apart.  These guards, like the ones of ``--bracket``, look at
which options were given, by flag or by ``--config``, not at their
values: an option given at its default value is still one the run would
not read.  The values
are checked before any run: :class:`~tonguelab.sgchain.ChainParams`
checks the chain's parameters and ``--horizon`` must be finite and
positive, both before the guards, then ``--t-end`` must be finite and
positive and ``--bracket`` two finite values ``lo < hi``; each error
names its parameter.  ``tongue`` likewise checks its ``--eps`` list,
every value finite and >= 0 (and > 0 for ``--format svg``, a log-log
plot), before it solves anything, ``series`` its ``--order`` (>= 1), and
``fit`` every eps and width it reads, each finite.  ``tongue --format
svg`` leaves a sample of width 0 (a forcing without x-dependence) out of
the plot and names it on stderr; it exits 1 only when no positive width
is left to plot.

The parser is built once per process, on the first :func:`make_parser`
or :func:`run` call, and every later run parses with it.  Importing this
module and building the parser load the standard library only: each
runner imports its route's modules (and numpy with them) when it runs,
:mod:`~tonguelab.svgfig` only for SVG output, so a run loads its own
route and no other, and ``--help`` or a usage error found while parsing
loads none.

Exit codes: 0 success, 1 numerical failure (diagnostics on stderr),
2 usage error.  Outside input is checked where it enters, and only
those checks raise :class:`UsageError`: a flag or ``--config`` value of
the wrong type, a map or chain parameter that
:class:`~tonguelab.cylmap.MapParams` or
:class:`~tonguelab.sgchain.ChainParams` rejects, and the checks named
above.  A ``ValueError`` raised inside a route is a numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
import time
from collections.abc import Callable
from contextlib import nullcontext, suppress
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING

from . import __version__

if TYPE_CHECKING:
    from .cylmap import MapParams
    from .sgchain import ChainParams
    from .trigpoly import TrigPoly

_USAGE_ERROR = 2
_NUMERIC_ERROR = 1

_F_SHORTHAND = re.compile(r"^(sin|cos)\s*:?\s*(\d+)?\s*x?$")


class UsageError(Exception):
    pass


def parse_f(spec: str) -> TrigPoly:
    """Parse the forcing term: ``sin``/``cos`` (optionally ``sin 2x``)
    or an explicit coefficient object ``{"cos":[...],"sin":[...]}``."""
    from .trigpoly import TrigPoly

    spec = spec.strip()
    m = _F_SHORTHAND.match(spec)
    if m:
        k = int(m.group(2) or 1)
        if k < 1:
            raise UsageError(f"--f {spec!r} needs a harmonic k >= 1")
        return TrigPoly.sine(k) if m.group(1) == "sin" else TrigPoly.cosine(k)
    if spec.startswith("{"):
        try:
            return TrigPoly.from_json(spec)
        except (TypeError, ValueError) as exc:  # bad JSON, or entries that are not numbers
            raise UsageError(f"bad coefficient object for --f: {exc}") from exc
    raise UsageError(f"cannot parse --f {spec!r}: use sin, cos, 'sin 2x', or a "
                     '{"cos":[...],"sin":[...]} object')


@dataclass
class RunConfig:
    """Fully resolved run configuration; every output carries its to_dict,
    which holds the subcommand and the keys it reads."""

    subcommand: str
    f: str = "sin"
    q: int = 1
    p: int = 0
    eps: list[float] = field(default_factory=lambda: [0.1])
    delta: float = 0.0
    order: int = 4
    grid: int = 64
    gamma: float = 0.5
    horizon: float = 1e5
    format: str = "csv"
    out: str = ""
    report: str = ""
    input: str = ""
    bracket: list[float] = field(default_factory=list)
    t_end: float = 200.0

    def __post_init__(self):
        # the keys given by flag or by --config, at whatever value; a record
        # of the run, not a key of its own
        self.given: set[str] = set()

    def to_dict(self) -> dict:
        return {"subcommand": self.subcommand,
                **{key: getattr(self, key) for key in COMMANDS[self.subcommand].keys}}

    def one_eps(self) -> float:
        """The eps of a subcommand that runs at a single strength."""
        if len(self.eps) != 1:
            raise UsageError(f"{self.subcommand} takes one eps value, got {len(self.eps)}")
        return self.eps[0]

    def map_params(self, eps: float = 0.0) -> MapParams:
        """The map of ``orbit``, ``profile``, ``tongue``, ``series`` and ``fit``
        (only ``orbit`` reads a drift); a p/q orbit needs ``gcd(p, q) = 1``,
        so a reducible one is a usage error, as is any value that
        :class:`~tonguelab.cylmap.MapParams` rejects."""
        from .cylmap import MapParams

        try:
            m = MapParams(eps=eps, delta=self.delta, f=parse_f(self.f), p=self.p, q=self.q)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        if not m.coprime():
            raise UsageError(f"{self.subcommand} requires gcd(p, q) = 1, got p={m.p}, q={m.q}")
        return m

    def chain_params(self) -> ChainParams:
        """The chain of ``chain``; a value that
        :class:`~tonguelab.sgchain.ChainParams` rejects is a usage error."""
        from .sgchain import ChainParams

        try:
            return ChainParams(q=self.q, p=self.p, gamma=self.gamma,
                               eps=self.one_eps(), delta=self.delta)
        except ValueError as exc:
            raise UsageError(str(exc)) from None


def _parse_float_list(text: str) -> list[float]:
    try:
        values = [float(tok) for tok in str(text).split(",") if tok.strip()]
    except ValueError as exc:
        raise UsageError(f"bad number list {text!r}") from exc
    if not values:
        raise UsageError(f"empty number list {text!r}")
    return values


def read_config_file(path: str) -> dict:
    """Parse ``key=value`` lines; '#' starts a comment."""
    out: dict = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key=value")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


def build_config(args: argparse.Namespace) -> RunConfig:
    """Merge defaults, config file, and flags (flags win); a key that the
    subcommand does not read is a usage error."""
    cmd = COMMANDS[args.subcommand]
    cfg = RunConfig(subcommand=args.subcommand)
    file_values = read_config_file(args.config) if args.config else {}
    flag_values = {key: getattr(args, key, None) for key in cmd.keys}
    for key, value in [*file_values.items(), *flag_values.items()]:
        if value is None:
            continue
        if key not in cmd.keys:
            raise UsageError(f"unknown config key {key!r} for {args.subcommand}")
        kind = type(getattr(cfg, key))  # the type of the field's default
        try:
            setattr(cfg, key, _parse_float_list(value) if kind is list else kind(value))
        except ValueError:
            raise UsageError(f"bad value {value!r} for --{key.replace('_', '-')}") from None
        cfg.given.add(key)
    if "format" in cmd.keys and cfg.format not in cmd.formats:
        raise UsageError(f"{args.subcommand} --format must be {'/'.join(cmd.formats)}, "
                         f"not {cfg.format!r}")
    return cfg


def _meta(cfg: RunConfig, t_start: float, **extra) -> dict:
    return {"tool": "tonguelab", "version": __version__, "config": cfg.to_dict(),
            "wallclock_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "elapsed_s": round(time.time() - t_start, 3), **extra}


def _svg_meta(cfg: RunConfig) -> dict:
    # no wall-clock here: SVG output is byte-deterministic for equal input
    return {"tool": "tonguelab", "version": __version__,
            "config": json.dumps(cfg.to_dict(), sort_keys=True)}


def _open_out(path: str):
    return open(path, "w", encoding="utf-8", newline="\n") if path else nullcontext(sys.stdout)


def _write_csv(cfg: RunConfig, t0: float, header: str, rows, path: str) -> None:
    meta = _meta(cfg, t0)
    with _open_out(path) as fh:
        fh.write(f"# tonguelab {meta['version']}\n")
        fh.write(f"# config: {json.dumps(meta['config'], sort_keys=True)}\n")
        fh.write(f"# wallclock: {meta['wallclock_utc']} elapsed_s={meta['elapsed_s']}\n")
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row) + "\n")


def _write_json(cfg: RunConfig, t0: float, payload: dict, path: str, **meta) -> None:
    # one line, in one write: without indent, json.dumps runs the C encoder
    with _open_out(path) as fh:
        fh.write(json.dumps({"meta": _meta(cfg, t0, **meta), **payload}) + "\n")


# -- subcommand runners ---------------------------------------------------

def _run_orbit(cfg: RunConfig, t0: float) -> int:
    from .tongue import orbits_at

    orbits, sample, grid = orbits_at(cfg.map_params(eps=cfg.one_eps()), cfg.grid)
    _write_json(cfg, t0, {
        "orbits": [{"kind": o.kind, "residual": {"R": o.residual.R, "S": o.residual.S},
                    "states": [{"x": s.x, "y": s.y} for s in o.states]} for o in orbits],
        "profile": {"grid": grid, "delta_min": sample.delta_min, "delta_max": sample.delta_max},
    }, cfg.out)
    return 0


def _run_profile(cfg: RunConfig, t0: float) -> int:
    from .orbits import continue_in_x

    m = cfg.map_params(eps=cfg.one_eps())
    pts, iterations = continue_in_x(m.eps, m, cfg.grid)
    x0, delta, y0 = pts[:3].tolist()
    if cfg.format == "svg":
        from .svgfig import emit_svg

        dataset = {"x0": x0, "delta": delta, "xlabel": "x0", "ylabel": "delta"}
        emit_svg(dataset, "profile", cfg.out or "profile.svg", _svg_meta(cfg))
    elif cfg.format == "json":
        _write_json(cfg, t0, {"profile": [
            {"x0": x, "delta": d, "y0": y, "iterations": n}
            for x, d, y, n in zip(x0, delta, y0, iterations.tolist())]}, cfg.out)
    else:
        _write_csv(cfg, t0, "x0,delta,y0", zip(x0, delta, y0), cfg.out)
    return 0


def _run_tongue(cfg: RunConfig, t0: float) -> int:
    from .orbits import ContinuationError
    from .tongue import InsufficientDataError, fit_exponent, sweep

    m = cfg.map_params()
    if not all(math.isfinite(eps) and eps >= 0.0 for eps in cfg.eps):
        raise UsageError("--eps needs finite values >= 0, got "
                         + ",".join(f"{eps:g}" for eps in cfg.eps))
    if cfg.format == "svg" and 0.0 in cfg.eps:
        raise UsageError("--format svg plots the widths log-log, so --eps needs values > 0")
    result = sweep(m, sorted(cfg.eps), grid=cfg.grid)
    for failure in result.failures:
        print(f"tonguelab: eps={failure.eps:g} failed: {failure.reason}", file=sys.stderr)
    samples = result.samples
    if cfg.format == "svg":
        from .svgfig import emit_svg

        plotted = [s for s in samples if s.width > 0.0]
        for s in samples:
            if s.width <= 0.0:
                print(f"tonguelab: eps={s.eps:g} left out of the log-log plot: width {s.width:g}",
                      file=sys.stderr)
        if not plotted:
            raise ContinuationError(0.0, 0.0, "no tongue sample with a positive width to plot")
        dataset = {"eps": [s.eps for s in plotted], "width": [s.width for s in plotted],
                   "xlabel": "eps", "ylabel": "width"}
        with suppress(InsufficientDataError):
            fit = fit_exponent(plotted)
            dataset.update(slope=fit.exponent, intercept=fit.log_prefactor)
        emit_svg(dataset, "loglog", cfg.out or "tongue.svg", _svg_meta(cfg))
    elif cfg.format == "json":
        _write_json(cfg, t0, {"samples": [asdict(s) for s in samples],
                              "failures": [asdict(f) for f in result.failures]}, cfg.out)
    else:
        _write_csv(cfg, t0, "eps,width,delta_max,delta_min,x_argmax,x_argmin",
                   [(s.eps, s.width, s.delta_max, s.delta_min, s.x_argmax, s.x_argmin)
                    for s in samples], cfg.out)
    return 0 if samples else 1


def _run_series(cfg: RunConfig, t0: float) -> int:
    from .series import expand, verify_first_order, verify_periodicity

    m = cfg.map_params()
    if cfg.order < 1:
        raise UsageError(f"--order must be >= 1, got {cfg.order}")
    sol = expand(m, cfg.order)
    first = verify_first_order(sol)
    payload = dict(sol.to_dict())
    payload["first_order_check"] = {"delta1_error": first.delta1_error, "y1_error": first.y1_error}
    passed = True
    if sol.r is not None:
        per = verify_periodicity(sol)
        payload["periodicity_check"] = {
            "shift_residual": per.shift_residual, "norm": per.norm,
            "support": sorted(per.support), "support_multiples_of_q": per.support_multiples_of_q,
            "residual_tol": per.residual_tol, "passed": per.passed}
        passed = per.passed
    _write_json(cfg, t0, payload, cfg.out)
    if not passed:
        print(f"tonguelab: numerical failure: D_{sol.r} fails its periodicity check",
              file=sys.stderr)
    return 0 if passed else _NUMERIC_ERROR


def _run_chain(cfg: RunConfig, t0: float) -> int:
    from .sgchain import classify_attractor, critical_torque, integrate, twist_state

    c = cfg.chain_params()
    if not (math.isfinite(cfg.horizon) and cfg.horizon > 0):
        raise UsageError(f"--horizon must be finite and > 0, got {cfg.horizon:g}")
    report: dict = {"kind": None, "mean_velocity": None, "T": None,
                    "delay_error": None, "critical_delta": None}

    def given(*keys: str) -> list[str]:
        # the flags of those keys that were given, even at their default values
        return [f"--{key.replace('_', '-')}" for key in keys if key in cfg.given]

    if cfg.bracket:
        dropped = given("out", "t_end", "format", "delta")
        if dropped:
            raise UsageError("--bracket searches the drift itself and writes no trajectory, "
                             f"so it takes no {', '.join(dropped)}")
        if len(cfg.bracket) != 2 or not all(map(math.isfinite, cfg.bracket)) \
                or not cfg.bracket[0] < cfg.bracket[1]:
            raise UsageError("--bracket needs two finite values lo,hi with lo < hi, got "
                             + ",".join(f"{v:g}" for v in cfg.bracket))
        torque = critical_torque(c, horizon=cfg.horizon)
        if not cfg.bracket[0] < torque.critical_delta < cfg.bracket[1]:
            raise RuntimeError(f"critical torque {torque.critical_delta!r} outside the bracket "
                               + ",".join(f"{v:g}" for v in cfg.bracket))
        report["critical_delta"] = torque.critical_delta
        # critical_torque probes at the start step, without halvings
        step = {"dt": torque.dt, "halvings": 0, "rk4_steps": torque.rk4_steps,
                "descent": {"decided_by": torque.descent.decided_by,
                            "rk4_steps": torque.descent.rk4_steps},
                "fold_newton_iters": torque.fold_iterations,
                "A": torque.normal_form[0], "B": torque.normal_form[1], "mu": torque.mu,
                "probes": [asdict(probe) for probe in torque.probes],
                "delta_star": torque.delta_star}
    else:
        # --t-end and --format only shape the trajectory --out writes
        dropped = given("t_end", "format")
        if dropped and not cfg.out:
            raise UsageError("without --out chain writes no trajectory, "
                             f"so it takes no {', '.join(dropped)}")
        if not (math.isfinite(cfg.t_end) and cfg.t_end > 0):
            raise UsageError(f"--t-end must be finite and > 0, got {cfg.t_end:g}")
        rep = classify_attractor(twist_state(c), c, horizon=cfg.horizon)
        report.update({"kind": rep.kind, "mean_velocity": rep.mean_velocity,
                       "T": rep.wave_period, "delay_error": rep.delay_error})
        step = {"dt": rep.dt, "halvings": rep.halvings, "decided_by": rep.decided_by,
                "rk4_steps": rep.rk4_steps}
        if cfg.out:
            # n steps of 1/n per time unit, never coarser than the checked step
            n = math.ceil(1.0 / rep.dt)
            traj = integrate(twist_state(c), c, 1.0 / n, cfg.t_end, record_every=n)
            if cfg.format == "svg":
                from .svgfig import emit_svg

                emit_svg({"t": traj.times.tolist(), "x": traj.rows[:, 0].T.tolist()},
                         "trajectory", cfg.out, _svg_meta(cfg))
            else:
                import numpy as np

                header = ",".join(["t", *(f"{v}_{k}" for v in "xv" for k in range(c.q))])
                rows = np.column_stack([traj.times, traj.rows[:, 0], traj.rows[:, 1]]).tolist()
                _write_csv(cfg, t0, header, rows, cfg.out)
    _write_json(cfg, t0, report, cfg.report, diagnostics=step)
    return 0


def _run_fit(cfg: RunConfig, t0: float) -> int:
    from .series import expand
    from .tongue import TongueSample, fit_exponent

    if not cfg.input:
        raise UsageError("fit requires --input CSV (eps,width,... rows)")
    samples = []
    with open(cfg.input, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#") or line.startswith("eps"):
                continue
            # fit_exponent reads only eps and width, the first two columns
            try:
                eps, width = (float(v) for v in line.split(",")[:2])
            except ValueError:
                raise UsageError(f"{cfg.input}:{lineno}: expected eps,width,... numbers, "
                                 f"got {line!r}") from None
            if not (math.isfinite(eps) and math.isfinite(width)):
                raise UsageError(f"{cfg.input}:{lineno}: eps and width must be finite, "
                                 f"got {line!r}")
            samples.append(TongueSample(eps, width, *[math.nan] * 4))
    fit = fit_exponent(samples)
    expected_r = None
    # r is q for the sine; D_n depends on x only through harmonics that are
    # multiples of q, which every forcing's D_n can hold by order q; expand
    # raises ValueError on a forcing whose jet overflows
    with suppress(ValueError):
        expected_r = expand(cfg.map_params(), cfg.q).r
    _write_json(cfg, t0, {"exponent": fit.exponent, "residual": fit.residual,
                          "expected_r": expected_r, "log_prefactor": fit.log_prefactor,
                          "eps_range": list(fit.eps_range)}, cfg.out)
    return 0


# -- the subcommand table ------------------------------------------------

@dataclass(frozen=True)
class Subcommand:
    """A subcommand's runner, help, config keys (each also a flag) and formats."""

    run: Callable[[RunConfig, float], int]
    help: str
    keys: tuple[str, ...]
    formats: tuple[str, ...] = ()


COMMANDS = {
    "orbit": Subcommand(_run_orbit, "all p/q orbits at fixed drift, from the roots of the "
                        "drift profile; the profile's range is reported with them (JSON)",
                        ("f", "q", "p", "eps", "delta", "grid", "out")),
    "profile": Subcommand(_run_profile, "drift profile over x0 at fixed eps",
                          ("f", "q", "p", "eps", "grid", "format", "out"),
                          ("csv", "json", "svg")),
    "tongue": Subcommand(_run_tongue, "tongue width sweep over an eps list",
                         ("f", "q", "p", "eps", "grid", "format", "out"),
                         ("csv", "json", "svg")),
    "series": Subcommand(_run_series, "eps-series expansion of the drift profile (JSON)",
                         ("f", "q", "p", "order", "out")),
    "chain": Subcommand(_run_chain, "classify the twisted sine-Gordon chain's attractor, "
                        "its RK4 step chosen and checked by step halving, or measure its "
                        "critical torque within --bracket, at the start step with two probes; "
                        "the JSON meta reports the step",
                        ("q", "p", "eps", "delta", "gamma", "horizon", "bracket", "report",
                         "t_end", "format", "out"), ("csv", "svg")),
    "fit": Subcommand(_run_fit, "power-law fit of a width CSV, beside the exponent "
                      "expected_r that the eps-series to order q predicts (JSON)",
                      ("f", "q", "p", "input", "out")),
}

# Flag help per config key; the flag is the key with '_' written '-'.
_HELP = {
    "f": "forcing term: sin, cos, 'sin 2x', or {\"cos\":[...],\"sin\":[...]} (default sin)",
    "q": "orbit period / chain length (default 1)",
    "p": "winding number / chain twist, >= 0 (default 0)",
    "eps": "perturbation strength; tongue takes a comma list (default 0.1)",
    "delta": "drift / torque (default 0)",
    "order": "series truncation order (default 4)",
    "grid": "x0 grid size, at least 8q (default 64)",
    "gamma": "chain damping (default 0.5)",
    "horizon": "chain classification horizon (default 1e5)",
    "format": "output format (default csv):",
    "out": "output path (default: stdout)",
    "bracket": "lo,hi, finite with lo < hi: measure the critical torque, the fold of the "
               "pinned branch confirmed by two probes above it, instead of classifying, and "
               "check that it lies strictly between lo and hi",
    "report": "path for the JSON report (default: stdout)",
    "t_end": "trajectory length in time units, finite and > 0 (default 200)",
    "input": "width CSV produced by the tongue command",
}


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built on the first call; each later
    call, like each :func:`run` in the same process, gets the same one."""
    parser = argparse.ArgumentParser(
        prog="tonguelab",
        description="Periodic orbits and Arnold tongues of drifted standard "
                    "maps, plus the damped sine-Gordon chain.")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="subcommand", required=True)
    for name, cmd in COMMANDS.items():
        # no abbreviations: --f would otherwise stand for --format where --f is not read
        sp = subs.add_parser(name, help=cmd.help, description=cmd.help, allow_abbrev=False)
        sp.add_argument("--config", help="key=value file of the keys below; flags override it")
        for key in cmd.keys:
            help_ = f"{_HELP[key]} {', '.join(cmd.formats)}" if key == "format" else _HELP[key]
            sp.add_argument("--" + key.replace("_", "-"), dest=key, help=help_)
    return parser


def run(argv: list[str] | None = None) -> int:
    """Entry point returning the process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse takes a list value that starts with a negative number for an
    # option: join it to its flag, as in the '=' form
    lists = {f"--{key.replace('_', '-')}" for key, value in vars(RunConfig("")).items()
             if isinstance(value, list)}
    for i in reversed(range(1, len(argv))):
        if argv[i - 1] in lists and re.match(r"-\.?\d", argv[i]):
            argv[i - 1:i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    args = make_parser().parse_args(argv)
    t0 = time.time()
    try:
        cfg = build_config(args)
        return COMMANDS[cfg.subcommand].run(cfg, t0)
    except UsageError as exc:
        print(f"tonguelab: usage error: {exc}", file=sys.stderr)
        return _USAGE_ERROR
    except (RuntimeError, ValueError) as exc:
        print(f"tonguelab: numerical failure: {exc}", file=sys.stderr)
        return _NUMERIC_ERROR
    except OSError as exc:
        print(f"tonguelab: {exc}", file=sys.stderr)
        return _NUMERIC_ERROR


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
