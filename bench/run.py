"""tonguelab benchmark: one workload, one run.

    python3 bench/run.py --workload tongue --seed 0 --seconds 22 --trace 0

Runs the workload's CLI jobs for ``--seconds``, checks every output, prints
the metrics as a table and, as the last line, one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer ones.  Details (the
environment, per-pass times, failure messages) go to ``bench/out/``.
See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def use_checkout_sources() -> bool:
    """Import tonguelab from this checkout's ``src/`` with one BLAS thread
    (set before numpy loads; set-up subprocesses inherit it)."""
    if not (SRC / "tonguelab" / "cli.py").is_file():
        print(f"bench: no tonguelab sources under {SRC}", file=sys.stderr)
        return False
    for var in BLAS_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    return True


def main(argv=None) -> int:
    args = parse_args(argv)
    if not use_checkout_sources():
        return 2

    import checks
    import harness
    from jobs import WORKLOADS, jittered

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    jobs = jittered(WORKLOADS[args.workload], args.seed, checks.tongue_edge)
    result, report = harness.measure(jobs, args.seconds, bool(args.trace), args.seed)

    harness.OUT.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tracer = report.pop("tracer")
    if tracer is not None:
        tracer.save(harness.OUT / f"spans-{args.workload}.npz", report["job_cmds"])
    with open(harness.OUT / f"result-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump({**report, "result": result}, fh, indent=1)

    print(f"# env {json.dumps(report['env'], sort_keys=True)}")
    print(f"# {args.workload}: {report['passes']} untraced / {report['traced_passes']} "
          f"traced passes, {result['failed']} of {result['attempted']} job executions failed")
    if report["wall_pass_s"]:
        print(f"# pass_s wall clock {statistics.median(report['wall_pass_s']):.4f} s, at the "
              f"reference speed {statistics.median(report['pass_s']):.4f} s; set-up wall clock "
              f"{statistics.median(report['wall_setup_s']):.4f} s; {report['dropped_samples']} of "
              f"{report['probe_samples'] + report['dropped_samples']} in-job speed samples dropped")
    for msg in report["failures"][:20]:
        print(f"# FAIL {msg}")
    for name, m in result["metrics"].items():
        print(f"{name:40s} {m['value']:14.6g} {m['unit']}")
    if tracer is not None:
        total = sum(m["value"] for k, m in result["metrics"].items() if k.startswith("layer."))
        shares = sorted(((m["value"] / total, k.split(".")[1])
                         for k, m in result["metrics"].items() if k.startswith("layer.")),
                        reverse=True)
        print("# self-time share: " + ", ".join(f"{layer} {s:.1%}" for s, layer in shares))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
