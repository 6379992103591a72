"""Tests of the benchmark harness on the tiny smoke job list.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import importlib
import inspect
import json
import subprocess
import sys
import threading
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import harness  # noqa: E402
from jobs import JITTER, SMOKE, WORKLOADS, jittered  # noqa: E402
from tracer import LAYERS, METHODS, Tracer  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _bindings() -> dict:
    """Every function reachable as a tonguelab module attribute or a traced
    method, keyed by where it is looked up."""
    out = {}
    for modname, mod in list(sys.modules.items()):
        if modname == "tonguelab" or modname.startswith("tonguelab."):
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj):
                    out[(modname, attr)] = obj
    for layer, cls_name, meth in METHODS:
        cls = getattr(importlib.import_module(f"tonguelab.{layer}"), cls_name)
        out[(cls_name, meth)] = cls.__dict__[meth]
    return out


@pytest.fixture(scope="module", autouse=True)
def one_setup_run():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "SETUP_RUNS", 1)
        yield


@pytest.fixture(scope="module")
def untraced():
    return harness.measure(SMOKE, 0.0, False, 0)


@pytest.fixture(scope="module")
def traced():
    before = _bindings()
    result, report = harness.measure(SMOKE, 0.0, True, 0)
    return before, result, report


def test_end_to_end_metrics_are_the_spec_list(untraced):
    result, report = untraced
    assert report["failures"] == []
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(SMOKE)
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_per_layer_metrics_are_the_spec_list(traced):
    _, result, report = traced
    assert result["correct"], report["failures"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in SPEC["per_layer"])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["failed_frac"] == 0.0
    # each smoke job reaches its layer
    for name in ("tongue.width_at.calls", "orbits.fixed_delta.calls", "series.expand.calls",
                 "sgchain.rk4_steps", "svgfig.bytes", "trigpoly.eval.calls"):
        assert metrics[name] > 0, name
    # self times partition the time of the root spans, the cli.run calls
    tracer = report["tracer"]
    run_ms = 1e3 * sum(st[1] for (job, i), st in tracer.stats.items()
                       if tracer.names[i] == "cli.run") / report["traced_passes"]
    layer_total = sum(metrics[f"layer.{layer}.self_ms"] for layer in LAYERS)
    assert layer_total == pytest.approx(run_ms, rel=1e-9)


def test_tracing_wrappers_are_gone_after_the_traced_run(traced):
    before, _, _ = traced
    after = _bindings()
    assert after == before
    assert not any(hasattr(fn, "__wrapped__") for fn in after.values())


def test_tracer_restores_originals_when_a_job_raises():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with Tracer().installed():
            assert _bindings() != before
            raise RuntimeError("job crashed")
    assert _bindings() == before


def test_wrong_reference_is_counted_in_failed_frac(monkeypatch):
    reference = checks.load_reference()
    reference["smoke-series"]["r"] += 1
    monkeypatch.setattr(checks, "load_reference", lambda: reference)
    result, report = harness.measure(SMOKE, 0.0, True, 0)
    passes = report["passes"] + report["traced_passes"]
    assert result["failed"] == passes  # smoke-series fails in every pass
    assert result["metrics"]["failed_frac"]["value"] == pytest.approx(1 / len(SMOKE))
    assert not result["correct"]
    assert all(msg.startswith("smoke-series: r=") for msg in report["failures"])


@pytest.mark.parametrize("seed", [1, 2, 7])
def test_seed_jitter_stays_in_range_and_seed_zero_is_exact(seed):
    def edge(job):  # stands in for the Newton tongue edge, ~ eps^2 at q = 2
        return job.eps[0] ** 2

    for name, jobs in WORKLOADS.items():
        assert jittered(jobs, 0, edge) == list(jobs)
        for base, job in zip(jobs, jittered(jobs, seed, edge)):
            for a, b in zip(job.eps, base.eps):
                assert JITTER[0] <= a / b <= JITTER[1]
            if base.delta:
                assert JITTER[0] <= job.delta / base.delta <= JITTER[1]
            if base.bracket:
                scale = edge(job) / edge(base)
                assert job.bracket == pytest.approx(tuple(b * scale for b in base.bracket))
        assert jittered(jobs, seed, edge) == jittered(jobs, seed, edge)


def _busy(seconds: float) -> None:
    t0 = harness.perf_counter()
    while harness.perf_counter() - t0 < seconds:
        sum(range(1000))


def test_speed_samples_of_a_single_threaded_job_are_kept():
    with harness.SpeedProbe() as probe:
        _busy(0.35)
    assert len(probe.samples) >= 2 and probe.dropped == 0


def test_speed_samples_taken_beside_the_jobs_own_threads_are_dropped():
    """Threads of the job compete with the probes for the GIL; scaling by
    those slowed probes would make the job look faster."""
    stop = threading.Event()

    def spin():
        while not stop.is_set():
            pass

    spinner = threading.Thread(target=spin)
    with harness.SpeedProbe() as probe:
        spinner.start()
        _busy(0.35)
        stop.set()
        spinner.join()
    assert probe.samples == [] and probe.dropped >= 2


def test_speed_samples_of_a_job_with_child_processes_are_dropped():
    code = "import time\nt = time.time()\nwhile time.time() - t < 0.35: pass"
    with harness.SpeedProbe() as probe:
        subprocess.run([sys.executable, "-c", code], check=True)
        _busy(0.1)
    assert probe.samples == [] and probe.dropped >= 1
