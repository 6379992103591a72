import argparse
import json
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import pytest

import tonguelab
from tonguelab import cli, series, sgchain
from tonguelab.cylmap import MapParams
from tonguelab.tongue import width_at
from tonguelab.trigpoly import TrigPoly

from test_sgchain import confirmed_torque

SAMPLE_KEYS = {"eps", "width", "delta_max", "delta_min", "x_argmax", "x_argmin"}


def run_json(capsys, argv):
    """Exit code and parsed stdout of one CLI run."""
    rc = cli.run(argv)
    return rc, json.loads(capsys.readouterr().out)


def csv_rows(text):
    return [line.split(",") for line in text.splitlines() if not line.startswith("#")]


def test_tongue_json(capsys):
    rc, out = run_json(capsys, ["tongue", "--q", "3", "--p", "1", "--eps", "0.1,0.2",
                                "--grid", "24", "--format", "json"])
    assert rc == 0
    assert out["meta"]["config"]["subcommand"] == "tongue"
    assert out["failures"] == []
    assert [s["eps"] for s in out["samples"]] == [0.1, 0.2]
    for s in out["samples"]:
        assert set(s) == SAMPLE_KEYS
        assert s["width"] == pytest.approx(s["delta_max"] - s["delta_min"], rel=1e-12)


def test_tongue_without_samples_exits_1(capsys):
    rc = cli.run(["tongue", "--q", "2", "--p", "1", "--f", '{"cos":[0],"sin":[0,50]}',
                  "--eps", "3", "--grid", "16"])
    assert rc == 1
    captured = capsys.readouterr()
    assert "eps=3 failed" in captured.err
    assert csv_rows(captured.out) == ["eps,width,delta_max,delta_min,x_argmax,x_argmin".split(",")]


def test_partly_failing_tongue_sweep(capsys):
    """At this strong forcing eps=3 fails on the grid and eps=0.1 does
    not: the sweep reports the one failure on stderr, keeps the other
    sample as that eps gives it alone, and exits 0."""
    argv = ["tongue", "--q", "3", "--p", "1", "--grid", "24", "--f", '{"cos":[0],"sin":[50]}',
            "--format", "json", "--eps"]
    rc = cli.run(argv + ["0.1,3"])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.err == ("tonguelab: eps=3 failed: "
                            "continuation failed at x0=0.000000, eps=3\n")
    out = json.loads(captured.out)
    assert out["failures"] == [{"eps": 3.0,
                                "reason": "continuation failed at x0=0.000000, eps=3"}]
    rc, alone = run_json(capsys, argv + ["0.1"])
    assert rc == 0 and out["samples"] == alone["samples"]
    (sample,) = out["samples"]
    for name, value in (("width", 3.9660809024873545), ("delta_max", 1.9830404512436788),
                        ("delta_min", -1.9830404512436757)):
        assert sample[name] == pytest.approx(value, rel=1e-12), name


def test_tongue_svg_leaves_out_zero_widths(tmp_path, capsys):
    """A width of 0 has no place on a log-log plot: the sample is named on
    stderr and the others are plotted.  At eps = 5e-324 every Newton
    residual is below the floor at the seed, so the profile is flat."""
    out = tmp_path / "tongue.svg"
    rc = cli.run(["tongue", "--q", "3", "--p", "1", "--eps", "5e-324,0.1", "--grid", "24",
                  "--format", "svg", "--out", str(out)])
    assert rc == 0
    assert capsys.readouterr().err == (
        "tonguelab: eps=4.94066e-324 left out of the log-log plot: width 0\n")
    assert out.read_text().count("<circle") == 1


def test_tongue_svg_without_a_positive_width_exits_1(tmp_path, capsys):
    """A forcing without x-dependence gives width 0 at every eps (its CSV
    says so); with nothing left to plot the SVG run is a numerical
    failure."""
    out = tmp_path / "tongue.svg"
    rc = cli.run(["tongue", "--q", "3", "--p", "1", "--eps", "0.1", "--f", '{"cos":[1]}',
                  "--format", "svg", "--out", str(out)])
    assert rc == 1 and not out.exists()
    assert capsys.readouterr().err == (
        "tonguelab: eps=0.1 left out of the log-log plot: width 0\n"
        "tonguelab: numerical failure: no tongue sample with a positive width to plot\n")
    rc = cli.run(["tongue", "--q", "3", "--p", "1", "--eps", "0.1", "--f", '{"cos":[1]}'])
    assert rc == 0
    assert csv_rows(capsys.readouterr().out)[1][1] == "0"


@pytest.mark.parametrize("eps", ["nan", "-0.1,0.1", "0.1,inf"])
def test_malformed_tongue_eps_is_usage_error(capsys, eps):
    """A malformed eps is rejected where it enters, before any profile is
    solved: exit 2 with a usage error naming --eps, not a per-eps failure."""
    rc = cli.run(["tongue", "--q", "3", "--p", "1", f"--eps={eps}"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.startswith("tonguelab: usage error: --eps")
    assert "failed" not in captured.err and "Traceback" not in captured.err


def test_profile_json(capsys):
    rc, out = run_json(capsys, ["profile", "--q", "3", "--p", "1", "--eps", "0.2",
                                "--grid", "24", "--format", "json"])
    assert rc == 0
    profile = out["profile"]
    assert len(profile) == 24
    assert all(set(pt) == {"x0", "delta", "y0", "iterations"} for pt in profile)
    deltas = [pt["delta"] for pt in profile]
    assert max(deltas) == pytest.approx(-min(deltas), rel=1e-6)


def test_profile_csv_rows_are_the_json_rows(capsys):
    argv = ["profile", "--q", "3", "--p", "1", "--eps", "0.2", "--grid", "24"]
    rc, out = run_json(capsys, [*argv, "--format", "json"])
    assert rc == 0
    assert all(type(pt["iterations"]) is int for pt in out["profile"])
    assert cli.run([*argv, "--format", "csv"]) == 0
    header, *rows = csv_rows(capsys.readouterr().out)
    assert header == ["x0", "delta", "y0"]
    assert [[float(v) for v in row] for row in rows] == [
        [pt["x0"], pt["delta"], pt["y0"]] for pt in out["profile"]]


@pytest.mark.parametrize("spec", ['{"sin": 5}', '{"cos": {"a": 1}}', '{"cos": [0, "x"]}'])
def test_malformed_coefficient_object_is_usage_error(capsys, spec):
    rc = cli.run(["series", "--q", "3", "--p", "1", "--order", "2", "--f", spec])
    assert rc == 2
    assert capsys.readouterr().err.startswith(
        "tonguelab: usage error: bad coefficient object for --f")


def test_profile_svg(tmp_path):
    out = tmp_path / "profile.svg"
    argv = ["profile", "--q", "3", "--p", "1", "--eps", "0.2", "--grid", "24",
            "--format", "svg", "--out", str(out)]
    assert cli.run(argv) == 0
    first = out.read_bytes()
    assert first.startswith(b"<svg") and first.endswith(b"</svg>\n")
    assert cli.run(argv) == 0
    assert out.read_bytes() == first


@pytest.mark.parametrize("cmd", ["profile", "tongue", "orbit", "series"])
def test_reducible_is_usage_error(capsys, cmd):
    # each subcommand gets only the flags it reads: series reads no eps or grid
    extra = [] if cmd == "series" else ["--eps", "0.1", "--grid", "32"]
    assert cli.run([cmd, "--q", "4", "--p", "2", *extra]) == 2
    assert "gcd(p, q) = 1" in capsys.readouterr().err


def test_orbit(capsys):
    rc, out = run_json(capsys, ["orbit", "--q", "3", "--p", "1", "--eps", "0.2",
                                "--grid", "8"])
    assert rc == 0
    assert sorted(o["kind"] for o in out["orbits"]) == ["center", "saddle"]
    for o in out["orbits"]:
        assert len(o["states"]) == 3
        assert max(abs(o["residual"]["R"]), abs(o["residual"]["S"])) < 1e-12


def test_orbit_at_zero_eps(capsys):
    rc, out = run_json(capsys, ["orbit", "--q", "3", "--p", "1", "--eps", "0"])
    assert rc == 0
    assert len(out["orbits"]) == 64
    assert {o["kind"] for o in out["orbits"]} == {"parabolic"}
    rc, out = run_json(capsys, ["orbit", "--q", "3", "--p", "1", "--eps", "0",
                                "--delta", "0.01"])
    assert rc == 0 and out["orbits"] == []


def test_orbit_outside_the_tongue(capsys):
    rc, out = run_json(capsys, ["orbit", "--q", "3", "--p", "1", "--eps", "0.2",
                                "--delta", "5e-4"])
    assert rc == 0
    assert out["orbits"] == []
    profile = out["profile"]
    assert profile["grid"] == 64
    assert profile["delta_min"] < 0 < profile["delta_max"] < 5e-4


def test_orbit_profile_failure_exits_1(capsys):
    rc = cli.run(["orbit", "--q", "3", "--p", "1", "--f", '{"cos":[0],"sin":[50]}',
                  "--eps", "3"])
    assert rc == 1
    assert "x0=0" in capsys.readouterr().err


def test_series(capsys):
    rc, out = run_json(capsys, ["series", "--q", "3", "--p", "1", "--order", "4"])
    assert rc == 0
    assert out["r"] == 3
    assert len(out["Delta"]) == len(out["Y"]) == 5
    assert max(out["first_order_check"].values()) < 1e-10
    assert out["periodicity_check"]["support_multiples_of_q"]
    assert out["periodicity_check"]["passed"]


def test_series_failed_periodicity_check_exits_1(capsys, monkeypatch):
    """The JSON is still written, with the failed check in it."""
    check = series.verify_periodicity
    monkeypatch.setattr(series, "verify_periodicity",
                        lambda sol: replace(check(sol), support_multiples_of_q=False))
    rc = cli.run(["series", "--q", "3", "--p", "1", "--order", "4"])
    captured = capsys.readouterr()
    assert rc == 1 and "D_3 fails its periodicity check" in captured.err
    assert json.loads(captured.out)["periodicity_check"]["passed"] is False


def test_fit_on_tongue_csv(tmp_path, capsys):
    widths = tmp_path / "widths.csv"
    assert cli.run(["tongue", "--q", "2", "--p", "1", "--eps", "0.05,0.1,0.15,0.2,0.25,0.3",
                    "--grid", "16", "--out", str(widths)]) == 0
    rows = csv_rows(widths.read_text())
    assert rows[0] == "eps,width,delta_max,delta_min,x_argmax,x_argmin".split(",")
    assert len(rows) == 7 and all(len(r) == 6 for r in rows)
    rc, out = run_json(capsys, ["fit", "--q", "2", "--p", "1", "--input", str(widths)])
    assert rc == 0
    assert out["expected_r"] == 2
    assert out["exponent"] == pytest.approx(2.0, abs=0.1)
    assert out["eps_range"] == [0.05, 0.3]


def test_fit_expands_to_order_q(tmp_path, capsys):
    """The sine's leading index is q, so fit expands the series to order q,
    which it works out itself: the order is no option of fit."""
    widths = tmp_path / "widths.csv"
    assert cli.run(["tongue", "--q", "5", "--p", "1", "--eps", "0.1,0.15,0.2,0.25,0.3,0.35",
                    "--grid", "40", "--out", str(widths)]) == 0
    rc, out = run_json(capsys, ["fit", "--q", "5", "--p", "1", "--input", str(widths)])
    assert rc == 0
    assert out["expected_r"] == 5
    assert out["exponent"] == pytest.approx(5.0, abs=0.5)
    with pytest.raises(SystemExit) as exc:
        cli.run(["fit", "--q", "5", "--p", "1", "--input", str(widths), "--order", "5"])
    assert exc.value.code == 2


def test_fit_without_input_is_usage_error(capsys):
    assert cli.run(["fit"]) == 2
    assert "--input" in capsys.readouterr().err


def test_fit_needs_eps_and_width_per_row(tmp_path, capsys):
    widths = tmp_path / "widths.csv"
    rows = [f"{e},{1e-3 * e ** 2}" for e in (0.1, 0.2, 0.3, 0.4, 0.5)]
    widths.write_text("\n".join(rows) + "\n")
    rc, out = run_json(capsys, ["fit", "--q", "2", "--p", "1", "--input", str(widths)])
    assert rc == 0 and out["exponent"] == pytest.approx(2.0)
    widths.write_text("\n".join(rows + ["0.6"]) + "\n")
    assert cli.run(["fit", "--q", "2", "--p", "1", "--input", str(widths)]) == 2
    assert f"{widths}:6: " in capsys.readouterr().err


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("column", ["eps", "width"])
def test_fit_rejects_non_finite_rows(tmp_path, capsys, value, column):
    """A non-finite eps or width is a usage error that names its line,
    not a NaN exponent or a row dropped without a word."""
    widths = tmp_path / "widths.csv"
    rows = [f"{e},{1e-3 * e ** 2}" for e in (0.1, 0.2, 0.3, 0.4, 0.5)]
    rows[2] = f"{value},0.3" if column == "eps" else f"0.3,{value}"
    widths.write_text("\n".join(rows) + "\n")
    rc = cli.run(["fit", "--q", "2", "--p", "1", "--input", str(widths)])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert f"{widths}:3: eps and width must be finite" in captured.err


@pytest.mark.parametrize("cmd", ["orbit", "profile", "chain"])
@pytest.mark.parametrize("eps", ["", ","])
def test_empty_eps_is_usage_error(capsys, cmd, eps):
    assert cli.run([cmd, "--q", "3", "--p", "1", "--eps", eps]) == 2
    assert "empty number list" in capsys.readouterr().err


def test_chain_classification(capsys):
    rc, out = run_json(capsys, ["chain", "--q", "2", "--p", "1", "--eps", "0.6",
                                "--delta", "0.005"])
    assert rc == 0
    assert out["kind"] == "equilibrium"
    assert out["critical_delta"] is None
    assert set(out) == {"meta", "kind", "mean_velocity", "T", "delay_error", "critical_delta"}


def test_chain_at_rest_on_a_saddle_is_undecided(capsys):
    """The q=2 twisted start (0, pi) at zero torque is an equilibrium that
    the run never leaves, but an unstable one."""
    rc, out = run_json(capsys, ["chain", "--q", "2", "--p", "1", "--eps", "0.6",
                                "--delta", "0"])
    assert rc == 0
    assert (out["kind"], out["meta"]["diagnostics"]["decided_by"]) == ("undecided", "velocity")


def test_chain_reports_its_step(capsys):
    """The JSON meta says at which RK4 step the result was obtained and how
    many halvings the check took; the torque probes run at the start step,
    and the critical torque is the Newton tongue edge to 1e-9."""
    chain = sgchain.ChainParams(q=3, p=1, gamma=0.5, eps=0.6, delta=0.012)
    rc, out = run_json(capsys, ["chain", "--q", "3", "--p", "1", "--eps", "0.6",
                                "--delta", "0.012"])
    assert rc == 0 and out["kind"] == "traveling_wave"
    step = out["meta"]["diagnostics"]
    assert step["halvings"] >= 1
    assert step["dt"] == sgchain.default_dt(chain) / 2 ** step["halvings"]
    rc, out = run_json(capsys, ["chain", "--q", "2", "--p", "1", "--eps", "0.6",
                                "--gamma", "0.25", "--bracket", "0.01,0.1"])
    edge = width_at(MapParams(0.0, 0.0, TrigPoly.sine(), 1, 2), 0.6, 64).delta_max
    assert rc == 0 and out["critical_delta"] == pytest.approx(edge, rel=1e-9, abs=0.0)
    pinning = sgchain.ChainParams(q=2, p=1, gamma=0.25, eps=0.6, delta=0.0)
    diag = out["meta"]["diagnostics"]
    assert (diag["dt"], diag["halvings"]) == (sgchain.default_dt(pinning), 0)


def test_bracket_reports_how_it_decided(capsys):
    """The diagnostics count the RK4 steps, name the test that stopped the
    descent and give its steps, and give the fold solve's steps,
    the fold's normal form ``A``, ``B``, the nearer probe's distance ``mu``
    above it that they chose, each probe's torque, outcome, deciding test,
    escape time and steps, and the threshold ``delta_star`` that the
    escape times extrapolate to, as the record critical_torque returns.
    The payload keeps the fold alone."""
    rc, out = run_json(capsys, ["chain", "--q", "2", "--p", "1", "--eps", "0.6",
                                "--gamma", "0.25", "--bracket", "0.01,0.1"])
    assert rc == 0
    pinning = sgchain.ChainParams(q=2, p=1, gamma=0.25, eps=0.6, delta=0.0)
    torque = confirmed_torque(pinning)
    assert out["critical_delta"] == torque.critical_delta
    assert {k: v for k, v in out.items() if k != "meta"} == {
        "kind": None, "mean_velocity": None, "T": None, "delay_error": None,
        "critical_delta": torque.critical_delta}
    diag = out["meta"]["diagnostics"]
    assert set(diag) == {"dt", "halvings", "rk4_steps", "descent", "fold_newton_iters", "A", "B",
                         "mu", "probes", "delta_star"}
    assert diag["rk4_steps"] == torque.rk4_steps
    assert diag["descent"] == {"decided_by": "velocity", "rk4_steps": 135}
    assert diag["fold_newton_iters"] == torque.fold_iterations > 0
    assert (diag["A"], diag["B"]) == torque.normal_form
    assert (diag["mu"], diag["delta_star"]) == (torque.mu, torque.delta_star)
    near, far = diag["probes"]
    for reported, probe in zip(diag["probes"], torque.probes):
        assert reported == {"delta": probe.delta, "outcome": "depinned", "decided_by": "escape",
                            "rk4_steps": probe.rk4_steps, "escape_time": probe.escape_time}
    assert far["escape_time"] < near["escape_time"]


@pytest.mark.parametrize("bracket", ["0.01,0.02", "0.05,0.1"])
def test_a_bracket_that_excludes_the_torque_exits_1(capsys, bracket):
    """The chain fixes its critical torque by itself; --bracket is the range
    it must fall in, and a torque outside it is a numerical failure that
    names the torque and writes no JSON."""
    pinning = sgchain.ChainParams(q=2, p=1, gamma=0.25, eps=0.6, delta=0.0)
    crit = sgchain.critical_torque(pinning).critical_delta
    assert cli.run(["chain", "--q", "2", "--p", "1", "--eps", "0.6", "--gamma", "0.25",
                    "--bracket", bracket]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"tonguelab: numerical failure: critical torque {crit!r} outside "
                            f"the bracket {bracket}\n")


def test_a_negative_list_value_reads_with_a_space_as_with_equals(tmp_path, capsys):
    """argparse alone takes '-0.02,0.1' for an option: the space form of a
    list value that starts with a negative number gives the payload of the
    '=' form and of a config file.  --eps is joined the same way, and a
    --bracket with no value stays a usage error."""
    base = ["chain", "--q", "2", "--p", "1", "--eps", "0.6", "--gamma", "0.25"]
    config = tmp_path / "run.cfg"
    config.write_text("bracket=-0.02,0.1\n")
    payloads = []
    for given in (["--bracket", "-0.02,0.1"], ["--bracket=-0.02,0.1"],
                  ["--config", str(config)]):
        rc, out = run_json(capsys, base + given)
        assert rc == 0
        del out["meta"]["wallclock_utc"], out["meta"]["elapsed_s"]
        payloads.append(out)
    assert payloads[0] == payloads[1] == payloads[2]
    assert payloads[0]["meta"]["config"]["bracket"] == [-0.02, 0.1]
    tongue = ["tongue", "--q", "3", "--p", "1"]
    for given in (["--eps", "-0.1,0.2"], ["--eps=-0.1,0.2"]):
        assert cli.run(tongue + given) == 2
        assert "--eps needs finite values >= 0, got -0.1,0.2" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        cli.run(base + ["--bracket"])
    assert exc.value.code == 2
    assert "argument --bracket: expected one argument" in capsys.readouterr().err


def test_bracket_reports_an_unconfirmed_fold(capsys, monkeypatch):
    """A fold solve that runs out of Newton steps, or a near probe that
    settles, leaves the fold unconfirmed: a numerical failure, exit 1,
    that names which of them happened and the probe's torque."""
    argv = ["chain", "--q", "2", "--p", "1", "--eps", "0.6", "--gamma", "0.25",
            "--bracket", "0.01,0.1"]
    with monkeypatch.context() as m:
        m.setattr(sgchain, "_FOLD_NEWTON_ITERS", 1)
        assert cli.run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "tonguelab: numerical failure: the fold solve failed (1 steps)\n"
    monkeypatch.setattr(sgchain, "_settles_or_depins", lambda s0, chain, horizon, dt:
                        sgchain.TorqueProbe(chain.delta, "equilibrium", "velocity", 0))
    assert cli.run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("tonguelab: numerical failure: probe at delta=0.0450255 ")
    assert err.endswith("disagrees with the fold 0.0446682: equilibrium, not depinned\n")


def test_chain_halving_failure_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(sgchain, "PERIOD_STEP_RTOL", 0.0)
    monkeypatch.setattr(sgchain, "MAX_HALVINGS", 1)
    rc = cli.run(["chain", "--q", "5", "--p", "2", "--eps", "0.8", "--gamma", "0.3",
                  "--delta", "0.1"])
    assert rc == 1
    assert "step halvings" in capsys.readouterr().err


def test_chain_step_is_not_an_option(tmp_path, capsys):
    """sgchain chooses and checks the step, so neither --dt nor a dt key exists."""
    with pytest.raises(SystemExit) as exc:
        cli.run(["chain", "--q", "2", "--p", "1", "--eps", "0.6", "--dt", "0.01"])
    assert exc.value.code == 2
    assert "--dt" in capsys.readouterr().err
    config = tmp_path / "run.cfg"
    config.write_text("q=2\np=1\neps=0.6\ndt=0.01\n")
    assert cli.run(["chain", "--config", str(config)]) == 2
    assert "unknown config key 'dt'" in capsys.readouterr().err


def test_jobs_flag_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.run(["profile", "--q", "3", "--p", "1", "--eps", "0.2", "--jobs", "2"])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


def test_jobs_config_key_rejected(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("q=3\np=1\njobs=2\n")
    assert cli.run(["profile", "--config", str(config)]) == 2
    assert "jobs" in capsys.readouterr().err


def test_config_keys_take_their_field_types(tmp_path):
    """Each subcommand's own keys; together they cover every RunConfig field."""
    names = {f.name for f in fields(cli.RunConfig) if f.name != "subcommand"}
    assert set().union(*(cmd.keys for cmd in cli.COMMANDS.values())) == names
    config = tmp_path / "run.cfg"
    for sub, cmd in cli.COMMANDS.items():
        # a format must be one the subcommand writes
        config.write_text("".join(f"{name}={'csv' if name == 'format' else 3}\n"
                                  for name in cmd.keys))
        cfg = cli.build_config(argparse.Namespace(subcommand=sub, config=str(config)))
        default = cli.RunConfig(subcommand=sub)
        for name in cmd.keys:
            value = getattr(cfg, name)
            assert type(value) is type(getattr(default, name)), (sub, name)
            if isinstance(value, list):
                assert value == [3.0], (sub, name)


# Runs argv (or only builds the parser, for None) in a fresh interpreter
# and prints the exit code and every module loaded by then.
_FRESH_RUN = """
import io, json, sys
from contextlib import redirect_stderr, redirect_stdout
sys.path.insert(0, sys.argv[1])
import tonguelab.cli as cli
argv = json.loads(sys.argv[2])
rc = None
with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
    if argv is None:
        cli.make_parser()
    else:
        try:
            rc = cli.run(argv)
        except SystemExit as exc:
            rc = exc.code
print(json.dumps({"rc": rc, "modules": sorted(sys.modules)}))
"""

# The modules that only a run loads: every tonguelab module but the package and cli.
ROUTES = {"tonguelab.cylmap", "tonguelab.orbits", "tonguelab.series", "tonguelab.sgchain",
          "tonguelab.svgfig", "tonguelab.tongue", "tonguelab.trigpoly"}


def fresh_run(argv):
    """Exit code and loaded modules of ``cli.run(argv)`` in a fresh
    interpreter that imports this checkout's tonguelab."""
    src = str(Path(tonguelab.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", _FRESH_RUN, src, json.dumps(argv)],
                         capture_output=True, text=True, check=True).stdout
    result = json.loads(out)
    return result["rc"], set(result["modules"])


def test_cli_import_leaves_out_scipy():
    _, modules = fresh_run(None)
    assert "scipy" not in modules


def test_cli_import_and_parser_load_no_route():
    _, modules = fresh_run(None)
    assert "numpy" not in modules
    assert {m for m in modules if m.startswith("tonguelab")} == {"tonguelab", "tonguelab.cli"}


@pytest.mark.parametrize("argv, loads", [
    (["series", "--q", "3", "--p", "1", "--order", "4"],
     {"tonguelab.series", "tonguelab.cylmap", "tonguelab.trigpoly"}),
    (["chain", "--q", "2", "--p", "1", "--eps", "0.6", "--delta", "0.005"],
     {"tonguelab.sgchain"}),
    (["tongue", "--q", "3", "--p", "1", "--eps", "0.1", "--grid", "24"],
     {"tonguelab.tongue", "tonguelab.orbits", "tonguelab.cylmap", "tonguelab.trigpoly"}),
])
def test_a_run_loads_only_its_route(argv, loads):
    rc, modules = fresh_run(argv)
    assert rc == 0 and "numpy" in modules
    assert modules & ROUTES == loads


@pytest.mark.parametrize("argv", [["series", "--q", "x"],
                                  ["chain", "--q", "2", "--format", "xml"],
                                  ["tongue", "--order", "3"]])
def test_usage_error_found_while_parsing_loads_no_numpy(argv):
    rc, modules = fresh_run(argv)
    assert rc == 2
    assert "numpy" not in modules and not modules & ROUTES


def exit_code(argv):
    """Exit code of one CLI run, whether argparse or cli.run sets it."""
    try:
        return cli.run(argv)
    except SystemExit as exc:
        return exc.code


def test_each_subcommand_accepts_its_table_row():
    actions = cli.make_parser()._actions
    subs = next(a for a in actions if isinstance(a, argparse._SubParsersAction)).choices
    assert list(subs) == list(cli.COMMANDS)
    for name, sp in subs.items():
        dests = [a.dest for a in sp._actions if a.option_strings and a.dest != "help"]
        assert dests == ["config", *cli.COMMANDS[name].keys], name
        assert bool(cli.COMMANDS[name].formats) == ("format" in cli.COMMANDS[name].keys), name


@pytest.mark.parametrize("argv", [["chain", "--f", "cos"], ["series", "--eps", "0.1"],
                                  ["orbit", "--format", "csv"], ["chain", "--format", "json"]],
                         ids=" ".join)
def test_unread_flag_is_usage_error(capsys, argv):
    assert exit_code([*argv, "--q", "3", "--p", "1"]) == 2
    assert argv[1] in capsys.readouterr().err


@pytest.mark.parametrize("cmd", list(cli.COMMANDS))
def test_unread_config_key_is_usage_error(tmp_path, capsys, cmd):
    key = next(f.name for f in fields(cli.RunConfig)
               if f.name not in cli.COMMANDS[cmd].keys and f.name != "subcommand")
    config = tmp_path / "run.cfg"
    config.write_text(f"q=3\np=1\n{key}=1\n")
    assert cli.run([cmd, "--config", str(config)]) == 2
    assert f"unknown config key {key!r}" in capsys.readouterr().err


def test_config_format_must_be_written_by_the_subcommand(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("q=2\np=1\neps=0.6\nformat=json\n")
    assert cli.run(["chain", "--config", str(config)]) == 2
    assert "chain --format must be csv/svg, not 'json'" in capsys.readouterr().err


@pytest.fixture
def widths_csv(tmp_path):
    path = tmp_path / "widths.csv"
    path.write_text("".join(f"{e},{1e-3 * e ** 2}\n" for e in (0.1, 0.2, 0.3, 0.4, 0.5)))
    return path


# One small run of every subcommand that writes JSON; fit's input is
# added from the widths_csv fixture.
JSON_RUNS = pytest.mark.parametrize("argv", [
    ["orbit", "--q", "3", "--p", "1", "--eps", "0.2", "--grid", "8"],
    ["profile", "--q", "3", "--p", "1", "--eps", "0.2", "--grid", "24", "--format", "json"],
    ["tongue", "--q", "3", "--p", "1", "--eps", "0.1", "--grid", "24", "--format", "json"],
    ["series", "--q", "3", "--p", "1", "--order", "2"],
    ["chain", "--q", "2", "--p", "1", "--eps", "0.6", "--delta", "0.005"],
    ["fit", "--q", "2", "--p", "1"]], ids=lambda argv: argv[0])


@JSON_RUNS
def test_meta_config_is_the_table_row(capsys, widths_csv, argv):
    if argv[0] == "fit":
        argv = [*argv, "--input", str(widths_csv)]
    rc, out = run_json(capsys, argv)
    assert rc == 0
    assert list(out["meta"]["config"]) == ["subcommand", *cli.COMMANDS[argv[0]].keys]


@JSON_RUNS
def test_json_is_one_line(capsys, widths_csv, argv):
    """Every JSON output is one line, the C encoder's, that parses back."""
    if argv[0] == "fit":
        argv = [*argv, "--input", str(widths_csv)]
    assert cli.run(argv) == 0
    text = capsys.readouterr().out
    assert text.endswith("\n") and text.count("\n") == 1
    assert set(json.loads(text)) > {"meta"}


def test_csv_and_svg_record_the_table_row(tmp_path, capsys):
    assert cli.run(["tongue", "--q", "3", "--p", "1", "--eps", "0.1", "--grid", "24"]) == 0
    header = next(line for line in capsys.readouterr().out.splitlines()
                  if line.startswith("# config: "))
    assert set(json.loads(header[len("# config: "):])) == {"subcommand",
                                                           *cli.COMMANDS["tongue"].keys}
    svg = tmp_path / "profile.svg"
    assert cli.run(["profile", "--q", "3", "--p", "1", "--eps", "0.2", "--grid", "24",
                    "--format", "svg", "--out", str(svg)]) == 0
    line = next(line for line in svg.read_text().splitlines() if line.startswith("config="))
    assert set(json.loads(line[len("config="):])) == {"subcommand", *cli.COMMANDS["profile"].keys}


@pytest.mark.parametrize("cmd", ["orbit", "profile", "chain"])
def test_single_eps_subcommand_rejects_a_list(capsys, cmd):
    assert cli.run([cmd, "--q", "3", "--p", "1", "--eps", "0.1,0.2"]) == 2
    assert f"{cmd} takes one eps value, got 2" in capsys.readouterr().err


def test_tongue_grid_below_eight_q_is_raised(capsys):
    rc = cli.run(["tongue", "--q", "5", "--p", "1", "--eps", "0.2", "--grid", "24"])
    captured = capsys.readouterr()
    assert rc == 0 and captured.err == ""
    assert len(csv_rows(captured.out)) == 2


def test_profile_grid_below_eight_q_is_raised(capsys):
    """profile shares the 8q floor of tongue and orbit, without doubling it."""
    rc = cli.run(["profile", "--q", "5", "--p", "1", "--eps", "0.2", "--grid", "24"])
    captured = capsys.readouterr()
    assert rc == 0 and captured.err == ""
    assert len(csv_rows(captured.out)) == 1 + 40


@pytest.mark.parametrize("flag,value", [("--out", "t.csv"), ("--t-end", "20"),
                                        ("--delta", "0.3"), ("--format", "svg")])
def test_bracket_rejects_what_it_drops(tmp_path, capsys, flag, value):
    """--bracket writes no trajectory and searches the drift itself."""
    if flag == "--out":
        value = str(tmp_path / value)
    rc = cli.run(["chain", "--q", "2", "--p", "1", "--eps", "0.6", "--bracket", "0.01,0.1",
                  flag, value])
    assert rc == 2
    assert f"takes no {flag}" in capsys.readouterr().err
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("argv", [
    ["--delta", "0.005", "--format", "csv"],
    ["--delta", "0.005", "--t-end", "0"],
    ["--bracket", "0.01,0.1", "--delta", "0"],
    ["--bracket", "0.01,0.1", "--format", "csv"],
], ids=["format-csv", "t-end-0", "bracket-delta-0", "bracket-format-csv"])
def test_an_option_at_its_default_is_still_given(capsys, argv):
    """The guards look at which options were given, not at their values."""
    rc = cli.run(["chain", "--q", "2", "--p", "1", "--eps", "0.6", *argv])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert f"takes no {argv[2]}" in captured.err


def test_a_config_file_option_at_its_default_is_still_given(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("q=2\np=1\neps=0.6\nbracket=0.01,0.1\ndelta=0\n")
    assert cli.run(["chain", "--config", str(config)]) == 2
    assert "takes no --delta" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [["--t-end", "5"], ["--format", "svg"],
                                   ["--t-end", "5", "--format", "svg"]])
def test_chain_without_out_rejects_trajectory_options(capsys, extra):
    """--t-end and --format shape the trajectory that only --out writes."""
    rc = cli.run(["chain", "--q", "2", "--p", "1", "--eps", "0.6", "--delta", "0.005", *extra])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert f"takes no {', '.join(extra[::2])}" in captured.err


@pytest.mark.parametrize("extra,name", [
    (["--eps", "nan"], "eps"),
    (["--p", "-2", "--eps", "0.6"], "twist p"),
    (["--eps", "0.6", "--gamma", "inf"], "gamma"),
    (["--eps", "0.6", "--gamma", "nan"], "gamma"),
    (["--eps", "0.6", "--delta", "inf"], "delta"),
    (["--eps", "0.6", "--horizon", "nan"], "horizon"),
    (["--eps", "0.6", "--horizon", "-5"], "horizon"),
    (["--eps", "0.6", "--delta", "0.005", "--out", "t.csv", "--t-end", "-3"], "--t-end"),
    (["--eps", "0.6", "--delta", "0.005", "--out", "t.csv", "--t-end", "nan"], "--t-end"),
    (["--eps", "0.6", "--delta", "0.005", "--out", "t.csv", "--t-end", "0"], "--t-end"),
    (["--eps", "0.6", "--bracket", "0.01,nan"], "--bracket"),
    (["--eps", "0.6", "--bracket", "0.1,0.01"], "--bracket"),
], ids=["eps-nan", "p-negative", "gamma-inf", "gamma-nan", "delta-inf", "horizon-nan",
        "horizon-negative", "t-end-negative", "t-end-nan", "t-end-0", "bracket-nan",
        "bracket-reversed"])
def test_malformed_chain_input_is_usage_error(tmp_path, capsys, monkeypatch, extra, name):
    """Each chain parameter is checked where it enters, before any run: the
    error names it, exits 2 and writes nothing."""
    monkeypatch.chdir(tmp_path)
    rc = cli.run(["chain", "--q", "2", "--p", "1", *extra])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == "" and not (tmp_path / "t.csv").exists()
    assert captured.err.startswith("tonguelab: usage error: ")
    assert name in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("delta,kind,decided_by", [("0.005", "equilibrium", "trap"),
                                                   ("0.012", "traveling_wave", "wave")])
def test_chain_reports_what_decided(capsys, delta, kind, decided_by):
    """A classification's diagnostics name the test that ended the run it
    reports and count the RK4 steps of every run: the equilibrium's one
    run at the start step, the wave's runs at h and h/2."""
    rc, out = run_json(capsys, ["chain", "--q", "3", "--p", "1", "--eps", "0.6",
                                "--delta", delta])
    assert rc == 0 and out["kind"] == kind
    diag = out["meta"]["diagnostics"]
    assert set(diag) == {"dt", "halvings", "decided_by", "rk4_steps"}
    assert diag["decided_by"] == decided_by
    start = sgchain.default_dt(sgchain.ChainParams(q=3, p=1, gamma=0.5, eps=0.6, delta=0.0))
    # the equilibrium ends the check at h, the wave is confirmed at h/2:
    # one 50-unit window at h, and for the wave one more at h/2
    halvings, windows = (0, 1) if kind == "equilibrium" else (1, 3)
    assert diag["halvings"] == halvings
    assert diag["rk4_steps"] >= windows * 50.0 / start


def test_chain_trajectory_csv(tmp_path, capsys):
    traj, report = tmp_path / "t.csv", tmp_path / "r.json"
    assert cli.run(["chain", "--q", "2", "--p", "1", "--eps", "0.6", "--delta", "0.005",
                    "--out", str(traj), "--t-end", "20", "--report", str(report)]) == 0
    assert capsys.readouterr().out == ""
    rows = csv_rows(traj.read_text())
    assert rows[0] == ["t", "x_0", "x_1", "v_0", "v_1"]
    values = [[float(v) for v in row] for row in rows[1:]]
    start = sgchain.twist_state(sgchain.ChainParams(q=2, p=1, gamma=0.5, eps=0.6, delta=0.005))
    assert values[0] == [0.0, *start.pos, *start.vel]
    out = json.loads(report.read_text())
    assert out["kind"] == "equilibrium"
    times = [row[0] for row in values]
    gaps = [b - a for a, b in zip(times, times[1:])]
    assert times[-1] == 20.0 and len(gaps) == 20
    assert all(abs(g - 1.0) <= 1e-9 for g in gaps)


def test_chain_trajectory_svg_is_deterministic(tmp_path):
    out = tmp_path / "t.svg"
    argv = ["chain", "--q", "2", "--p", "1", "--eps", "0.6", "--delta", "0.005",
            "--format", "svg", "--out", str(out), "--t-end", "20",
            "--report", str(tmp_path / "r.json")]
    assert cli.run(argv) == 0
    first = out.read_bytes()
    assert first.startswith(b"<svg") and first.endswith(b"</svg>\n")
    assert cli.run(argv) == 0
    assert out.read_bytes() == first


@pytest.mark.parametrize("argv,name", [
    (["orbit", "--q", "x"], "--q"),
    (["profile", "--q", "3", "--p", "1", "--grid", "2.5"], "--grid"),
    (["orbit", "--q", "3", "--p", "1", "--delta", "nan"], "finite"),
    (["profile", "--q", "0"], "q must be >= 1"),
    (["orbit", "--q", "3", "--p", "1", "--eps", "-0.2"], "eps must be >= 0"),
    (["series", "--q", "3", "--p", "1", "--order", "0"], "--order"),
    (["series", "--q", "3", "--p", "1", "--f", "sin 0x"], "--f"),
    (["tongue", "--q", "3", "--p", "1", "--eps", "0,0.1", "--format", "svg"], "--eps"),
], ids=["type-q", "type-grid", "delta-nan", "q-0", "eps-negative", "order-0", "f-sin-0x",
        "svg-eps-0"])
def test_outside_input_is_usage_error(tmp_path, capsys, monkeypatch, argv, name):
    """Each value is rejected where it enters, before any route runs."""
    monkeypatch.chdir(tmp_path)
    rc = cli.run(argv)
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == "" and not list(tmp_path.iterdir())
    assert captured.err.startswith("tonguelab: usage error: ") and name in captured.err


def test_value_error_inside_a_route_is_a_numerical_failure(capsys, monkeypatch):
    """Only a UsageError exits 2: a ValueError raised by the library while a
    route runs is a numerical failure."""
    def fail(*args, **kwargs):
        raise ValueError("singular collocation system")

    monkeypatch.setattr(series, "expand", fail)
    rc = cli.run(["series", "--q", "3", "--p", "1", "--order", "2"])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err == "tonguelab: numerical failure: singular collocation system\n"


def test_one_parser_serves_every_run(capsys, monkeypatch):
    """Runs in one process share the parser and give what a fresh parser
    gives: a flag of one run does not leak into the next."""
    assert cli.make_parser() is cli.make_parser()
    runs = [["tongue", "--q", "3", "--p", "1", "--eps", "0.1,0.2", "--grid", "32",
             "--format", "json"],
            ["tongue", "--q", "3", "--p", "1", "--eps", "0.1,0.2", "--format", "json"],
            ["series", "--q", "3", "--p", "1", "--order", "3"],
            ["chain", "--q", "2", "--p", "1", "--eps", "0.6", "--delta", "0.005"]]

    def outputs():
        out = [run_json(capsys, argv) for argv in runs]
        for _, payload in out:
            payload["config"] = payload.pop("meta")["config"]
        return out

    shared = outputs()
    assert [payload["config"].get("grid") for _, payload in shared] == [32, 64, None, None]
    monkeypatch.setattr(cli, "make_parser", cli.make_parser.__wrapped__)
    assert cli.make_parser() is not cli.make_parser()
    assert outputs() == shared
