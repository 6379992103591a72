"""Workload job lists and the seed jitter.

Every job is one ``tonguelab`` CLI invocation.  Each workload loads one
route of the lab and leaves the others idle, so that a gain on one route
that costs another shows up as a regression on the other workload:

* ``tongue`` - the implicit ``(delta, y0)`` Newton route (sweeps, profiles);
* ``orbit``  - fixed-delta multistart Newton, mostly failing starts;
* ``series`` - the eps-series expansion, no Newton solve at all;
* ``chain``  - RK4 integration of the damped sine-Gordon chain.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from pathlib import Path

# Seed jitter range: every job's eps and delta are scaled by a factor drawn
# from it.  It is narrow enough that the inside/outside orbit deltas and the
# chain classification deltas stay on their side of the tongue edge.
JITTER = (0.97, 1.03)


@dataclass(frozen=True)
class Job:
    """One CLI job plus what its correctness check needs to know."""

    id: str
    cmd: str
    q: int
    p: int = 1
    eps: tuple[float, ...] = ()
    delta: float | None = None
    grid: int | None = None
    order: int | None = None
    f: str | None = None
    gamma: float | None = None
    bracket: tuple[float, float] | None = None
    svg: bool = False
    # orbit: "inside" / "outside" the tongue; chain classification: the kind
    expect: str = ""
    # tongue: compare the smallest-eps width with the eps-series prediction
    cross_series: bool = False

    def argv(self, out_dir: Path) -> list[str]:
        a = [self.cmd, "--q", str(self.q), "--p", str(self.p)]
        if self.eps:
            a += ["--eps", ",".join(repr(e) for e in self.eps)]
        if self.delta is not None:
            a += ["--delta", repr(self.delta)]
        for flag, value in (("--grid", self.grid), ("--order", self.order),
                            ("--f", self.f), ("--gamma", self.gamma)):
            if value is not None:
                a += [flag, str(value)]
        if self.bracket is not None:
            a += ["--bracket", ",".join(repr(b) for b in self.bracket)]
        if self.svg:
            a += ["--format", "svg", "--out", str(self.svg_path(out_dir))]
        elif self.cmd in ("tongue", "profile"):
            a += ["--format", "json"]
        return a

    def svg_path(self, out_dir: Path) -> Path:
        return out_dir / f"{self.id}.svg"


def _tongue(q, p, eps, cross=False):
    return Job(f"tongue-q{q}p{p}", "tongue", q, p, eps=eps, grid=64, cross_series=cross)


def _orbit(name, q, eps, delta, expect):
    return Job(f"orbit-{name}", "orbit", q, 1, eps=(eps,), delta=delta, expect=expect)


def _series(q, p, order, f=None):
    suffix = "-sin2x" if f else ""
    return Job(f"series-q{q}p{p}n{order}{suffix}", "series", q, p, order=order, f=f)


WORKLOADS: dict[str, tuple[Job, ...]] = {
    "tongue": (
        _tongue(3, 1, (0.05, 0.1, 0.15, 0.2, 0.3, 0.4), cross=True),
        _tongue(5, 1, (0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4), cross=True),
        _tongue(5, 2, (0.2, 0.3, 0.4)),
        # q=7 eps 0.3 is not yet in the asymptotic regime (series ratio 0.78),
        # so it gets no cross-route check
        _tongue(7, 1, (0.3, 0.4, 0.5)),
        Job("profile-q5p1", "profile", 5, 1, eps=(0.2,), grid=64),
        Job("profile-q7p2-svg", "profile", 7, 2, eps=(0.4,), grid=128, svg=True),
    ),
    "orbit": (
        _orbit("q3-d0", 3, 0.2, 0.0, "inside"),
        # the q=3, eps=0.2 tongue edge sits at delta ~ 3.3e-4
        _orbit("q3-inside", 3, 0.2, 2e-4, "inside"),
        _orbit("q3-outside", 3, 0.2, 5e-4, "outside"),
        _orbit("q5-d0", 5, 0.3, 0.0, "inside"),
    ),
    "series": (
        _series(3, 1, 6),
        _series(5, 1, 8),
        _series(7, 1, 10),
        _series(9, 2, 10),
        _series(7, 1, 14),
        _series(5, 2, 8, f="sin 2x"),
    ),
    "chain": (
        # gamma 0.25 settles the probes twice as fast as the default 0.5 and
        # gives the same critical torque; it keeps one pass near 8 s
        Job("chain-critical-q2", "chain", 2, 1, eps=(0.6,), gamma=0.25,
            bracket=(0.01, 0.1)),
        Job("chain-equilibrium-q3", "chain", 3, 1, eps=(0.6,), delta=0.005,
            expect="equilibrium"),
        Job("chain-wave-q3", "chain", 3, 1, eps=(0.6,), delta=0.012,
            expect="traveling_wave"),
    ),
}

# One tiny job per subcommand: the warm-up before timing, and the tests' job list.
SMOKE: tuple[Job, ...] = (
    Job("smoke-tongue", "tongue", 3, 1, eps=(0.1, 0.2), grid=24),
    Job("smoke-profile-svg", "profile", 3, 1, eps=(0.2,), grid=24, svg=True),
    Job("smoke-orbit", "orbit", 3, 1, eps=(0.2,), delta=0.0, grid=8, expect="inside"),
    Job("smoke-series", "series", 3, 1, order=4),
    Job("smoke-chain", "chain", 2, 1, eps=(0.6,), delta=0.005, expect="equilibrium"),
)


def jittered(jobs, seed: int, edge) -> list[Job]:
    """Seed 0 runs the listed values; any other seed scales each job's eps
    and delta by its own factor drawn from :data:`JITTER`.

    A critical-torque job's bracket is scaled with ``edge(job)``, the Newton
    tongue edge at the job's eps, so every seed bisects the same positions
    relative to the threshold: the probes near the threshold take most of
    the job's time, and without this their cost would change with the seed.
    """
    if seed == 0:
        return list(jobs)
    rng = random.Random(seed)
    out = []
    for job in jobs:
        f_eps, f_delta = (rng.uniform(*JITTER) for _ in range(2))
        new = replace(job, eps=tuple(e * f_eps for e in job.eps),
                      delta=None if job.delta is None else job.delta * f_delta)
        if job.bracket is not None:
            scale = edge(new) / edge(job)
            new = replace(new, bracket=(job.bracket[0] * scale, job.bracket[1] * scale))
        out.append(new)
    return out
