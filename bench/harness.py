"""Timed and traced passes over one workload's job list.

Jobs run in this process through ``tonguelab.cli.run(argv)``, one after
another (a closed loop with one client and one thread).  The end-to-end
metrics come from untraced passes only; a traced run alternates untraced
and traced passes so that the tracing overhead is measured in the same
process.  Every job execution is checked, whether traced or not.

Times are reported at a fixed reference CPU speed.  The shared host gives
this process a speed that drifts by up to 2x within minutes, so a fixed
calibration kernel is timed before, during and after every job, and each
job's wall time is scaled by ``CAL_REF_S`` over the mean kernel time.
Set-up subprocesses are scaled the same way by a fixed yardstick
subprocess run before and after each of them.  The raw wall times are
kept in the report.
"""

from __future__ import annotations

import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy
import tonguelab
from tonguelab import cli

import checks
from jobs import SMOKE
from tracer import Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

# Cold set-up: a fresh interpreter imports the CLI and builds its parser,
# then prints the wall clock so interpreter teardown is not counted.
SETUP_CODE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
              "import tonguelab.cli as c; c.make_parser(); print(repr(time.time()))")
SETUP_PACKAGES = ("numpy", "scipy", "tonguelab")
SETUP_RUNS = 7
# The set-up yardstick: a fresh interpreter that imports numpy only.  It
# does the same kind of work as the set-up (spawning, loading extension
# modules, unmarshalling) and none of it depends on this repository.
YARDSTICK_CODE = "import time, numpy; print(repr(time.time()))"
# The reference speed: the yardstick takes this long ...
YARDSTICK_REF_S = 0.12
# ... and the calibration kernel this long.
CAL_REF_S = 3.0e-3
_CAL_X = np.arange(8.0)
PROBE_PERIOD_S = 0.1


def calibrate() -> float:
    """Seconds taken by a fixed mix of small numpy calls and interpreter
    work, the same kind of work as the lab's per-step code."""
    t0 = perf_counter()
    acc = 0.0
    for i in range(600):
        acc += float(np.cos(_CAL_X * i) @ _CAL_X)
        for k in range(40):
            acc += k * 0.5
    return perf_counter() - t0


def at_reference_speed(wall: float, kernel_times: list[float], ref_s: float) -> float:
    """``wall`` scaled to a host where the kernel measured around it by
    ``kernel_times`` takes ``ref_s``."""
    return wall * ref_s / statistics.fmean(kernel_times)


def children_cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


class SpeedProbe:
    """Times the calibration kernel every ``PROBE_PERIOD_S`` while a job
    runs (from a SIGALRM handler, between bytecodes of the main thread),
    so a long job is scaled by the speed it actually got.  ``spent`` is
    the time taken by the probes themselves.

    A sample must time the host, not the job: other Python threads of the
    job compete with the kernel for the GIL, and worker processes for the
    CPUs, so scaling by such a sample would make the job look faster.  A
    sample taken while another Python thread is alive is dropped, and so
    are all samples of a job that ran child processes."""

    def __init__(self):
        self.samples: list[float] = []
        self.dropped = 0
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        alone = threading.active_count() == 1
        kernel = calibrate()
        if alone and threading.active_count() == 1:
            self.samples.append(kernel)
        else:
            self.dropped += 1
        self.spent += perf_counter() - t0

    def __enter__(self) -> "SpeedProbe":
        self._children_cpu = children_cpu_s()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if children_cpu_s() > self._children_cpu:
            self.dropped += len(self.samples)
            self.samples.clear()


def cold_start(*args: str) -> tuple[float, str]:
    """Seconds from spawning ``python *args`` until it prints the wall
    clock, and its stderr."""
    t0 = time.time()
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=120, check=True)
    return float(proc.stdout.split()[-1]) - t0, proc.stderr


def cold_setup() -> tuple[float, dict[str, float]]:
    """Seconds from spawning a fresh interpreter until the parser exists,
    and the ``-X importtime`` self time (ms) of each package in it."""
    seconds, stderr = cold_start("-X", "importtime", "-c", SETUP_CODE, str(SRC))
    per_pkg = dict.fromkeys(SETUP_PACKAGES, 0.0)
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[0].startswith("import time:"):
            continue
        try:
            self_us = int(parts[0].split(":")[1])
        except ValueError:  # the header line
            continue
        top = parts[2].strip().split(".")[0]
        if top in per_pkg:
            per_pkg[top] += self_us / 1e3
    return seconds, per_pkg


def run_job(job, out_dir: Path) -> tuple[float, checks.Output]:
    """Run one CLI job in-process; returns its wall time and its output."""
    argv = job.argv(out_dir)
    svg_path = job.svg_path(out_dir) if job.svg else None
    if svg_path is not None and svg_path.exists():
        svg_path.unlink()
    stdout, stderr = io.StringIO(), io.StringIO()
    error = ""
    t0 = perf_counter()
    try:
        with redirect_stdout(stdout), redirect_stderr(stderr):
            rc = cli.run(argv)
    except SystemExit as exc:  # argparse rejects the argv
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a crashing job is a failed job, not a crashed benchmark
        rc, error = -1, f"{type(exc).__name__}: {exc}"
    seconds = perf_counter() - t0
    out = checks.Output(rc, error=error or stderr.getvalue().strip()[-300:])
    if rc == 0:
        if svg_path is not None:
            out.svg = svg_path.read_bytes() if svg_path.exists() else None
        else:
            try:
                out.payload = json.loads(stdout.getvalue())
            except ValueError:
                out.payload = None
    return seconds, out


class Run:
    """Job executions of one benchmark run and their verdicts."""

    def __init__(self, jobs, ctx: dict, reference: dict | None, out_dir: Path):
        self.jobs, self.ctx, self.reference, self.out_dir = jobs, ctx, reference, out_dir
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.job_cmds: list[str] = []
        self.first: dict[str, bytes] = {}
        self.pass_s: list[float] = []
        self.wall_pass_s: list[float] = []
        self.traced_pass_s: list[float] = []
        self.job_s: dict[str, list[float]] = {job.id: [] for job in jobs}
        self.slowest_s: list[float] = []
        self.probe_samples = 0
        self.dropped_samples = 0

    def run_pass(self, tracer: Tracer | None = None) -> None:
        """Run the job list once.  Job times are scaled to the reference
        speed measured around and during each job; a pass takes the sum of
        its job times."""
        results = []
        cal = calibrate()
        for job in self.jobs:
            if tracer is not None:
                tracer.job = len(self.job_cmds)
            self.job_cmds.append(job.cmd)
            probe = SpeedProbe()
            # traced passes are not probed: the probes would land inside spans
            with probe if tracer is None else nullcontext():
                wall, out = run_job(job, self.out_dir)
            wall -= probe.spent
            after = calibrate()
            self.probe_samples += len(probe.samples)
            self.dropped_samples += probe.dropped
            results.append((at_reference_speed(wall, [cal, after] + probe.samples, CAL_REF_S),
                            wall, out))
            cal = after
        if tracer is None:
            self.pass_s.append(sum(r[0] for r in results))
            self.wall_pass_s.append(sum(r[1] for r in results))
            for job, (seconds, _, _) in zip(self.jobs, results):
                self.job_s[job.id].append(seconds)
            self.slowest_s.append(max(r[0] for r in results))
        else:  # raw wall time, compared with wall_pass_s for the tracing overhead
            self.traced_pass_s.append(sum(r[1] for r in results))
        for job, (_, _, out) in zip(self.jobs, results):
            self._verdict(job, out)

    def _verdict(self, job, out: checks.Output) -> None:
        fails = checks.check(job, out, self.ctx, self.reference)
        if out.rc == 0:
            sig = checks.signature(out)
            if self.first.setdefault(job.id, sig) != sig:
                fails.append("output differs from the first pass")
        self.attempted += 1
        if fails:
            self.failed += 1
            self.failures += [f"{job.id}: {msg}" for msg in fails]


def git_rev() -> str:
    # the ceiling keeps git from looking for a repository above the checkout
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def env_info() -> dict:
    return {"git_rev": git_rev(), "tonguelab": tonguelab.__version__,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "blas_threads": {k: v for k, v in sorted(os.environ.items())
                             if k.endswith("_NUM_THREADS")}}


def measure_setup() -> tuple[list[float], list[float], list[dict[str, float]]]:
    """``SETUP_RUNS`` cold set-ups, each between two yardstick runs.
    Returns the set-up times at the reference speed, the raw wall times
    and the per-package import times."""
    cold_setup()  # compiles the .pyc files and warms the file cache
    yard = cold_start("-c", YARDSTICK_CODE)[0]
    scaled, walls, per_pkgs = [], [], []
    for _ in range(SETUP_RUNS):
        wall, per_pkg = cold_setup()
        after = cold_start("-c", YARDSTICK_CODE)[0]
        scaled.append(at_reference_speed(wall, [yard, after], YARDSTICK_REF_S))
        walls.append(wall)
        per_pkgs.append(per_pkg)
        yard = after
    return scaled, walls, per_pkgs


def measure(jobs, seconds: float, trace: bool, seed: int) -> tuple[dict, dict]:
    """One benchmark run.  Returns the result object (the last stdout
    line) and a report with the details behind it."""
    out_dir = OUT / "svg"
    out_dir.mkdir(parents=True, exist_ok=True)
    setup_s, setup_wall, setup_pkgs = measure_setup()

    for job in SMOKE:  # warm-up: first-call costs are paid before timing
        run_job(job, out_dir)
    run = Run(jobs, checks.cross_context(jobs),
              checks.load_reference() if seed == 0 else None, out_dir)
    tracer = Tracer() if trace else None
    start = perf_counter()
    longest = 0.0
    while True:  # stop before a pass (or traced pair) that would overrun
        t0 = perf_counter()
        run.run_pass()
        if tracer is not None:
            with tracer.installed():
                run.run_pass(tracer)
        longest = max(longest, perf_counter() - t0)
        if perf_counter() - start + longest > seconds:
            break

    metrics: dict[str, float] = {}
    if not trace:
        metrics = {
            "setup_s": statistics.median(setup_s),
            "pass_s": statistics.median(run.pass_s),
            # the median job, each job timed by its median over the passes
            "job_ms_p50": 1e3 * statistics.median(statistics.median(t)
                                                  for t in run.job_s.values()),
            "slowest_job_s": statistics.median(run.slowest_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        for pkg in SETUP_PACKAGES:
            metrics[f"setup.{pkg}_ms"] = statistics.median(p[pkg] for p in setup_pkgs)
        metrics.update(layer_metrics(tracer, run.job_cmds, len(run.traced_pass_s)))
        metrics["trace.overhead_frac"] = (statistics.median(run.traced_pass_s)
                                          / statistics.median(run.wall_pass_s) - 1.0)
        metrics["probe.dropped_samples"] = run.dropped_samples
        metrics["failed_frac"] = run.failed / run.attempted
    result = {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
              "metrics": {k: {"value": float(v), "unit": UNITS[k]} for k, v in metrics.items()}}
    report = {"env": env_info(), "seed": seed, "trace": trace,
              "passes": len(run.pass_s), "traced_passes": len(run.traced_pass_s),
              "pass_s": run.pass_s, "traced_pass_s": run.traced_pass_s,
              "wall_pass_s": run.wall_pass_s, "setup_s": setup_s,
              "wall_setup_s": setup_wall, "job_s": run.job_s,
              "failed_frac": run.failed / run.attempted,
              "probe_samples": run.probe_samples, "dropped_samples": run.dropped_samples,
              "failures": run.failures, "jobs": [job.argv(out_dir) for job in jobs],
              "tracer": tracer, "job_cmds": run.job_cmds}
    return result, report
