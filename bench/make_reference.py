"""Write ``reference.json``: the seed-0 fingerprint of every benchmark job.

    python3 bench/make_reference.py

Run it only on a commit whose results are trusted (the fingerprints were
taken from the seed commit).  It refuses to write when any job fails its
invariants or cross-route checks.
"""

from __future__ import annotations

import json
import sys

from run import use_checkout_sources


def main() -> int:
    if not use_checkout_sources():
        return 2
    import checks
    import harness
    from jobs import SMOKE, WORKLOADS

    harness.OUT.joinpath("svg").mkdir(parents=True, exist_ok=True)
    jobs = [job for w in WORKLOADS.values() for job in w] + list(SMOKE)
    ctx = checks.cross_context(jobs)
    fingerprints, bad = {}, []
    for job in jobs:
        seconds, out = harness.run_job(job, harness.OUT / "svg")
        fails = checks.check(job, out, ctx, None)
        print(f"{job.id:28s} {seconds:7.3f}s {'FAIL ' + '; '.join(fails) if fails else 'ok'}")
        bad += fails
        if not fails:
            fingerprints[job.id] = checks.fingerprint(job, out)
    if bad:
        return 1
    with open(checks.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump({"about": "seed-0 fingerprints; tolerances are stated in checks.py",
                   "env": harness.env_info(), "jobs": fingerprints}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
