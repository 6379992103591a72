"""Correctness of one job execution.

Three kinds of check, each a list of failure messages (empty = pass):

* fingerprints - seed-0 results stored in ``reference.json`` (written by
  ``make_reference.py`` from the seed commit), compared with the stated
  tolerances below, so an ulp-level change is not a failure;
* invariants - route-independent facts that hold for every seed;
* cross-route checks - the same drift limit measured two ways.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

from tonguelab.cylmap import MapParams
from tonguelab.series import expand, predicted_width
from tonguelab.tongue import width_at
from tonguelab.trigpoly import TrigPoly

REFERENCE = Path(__file__).with_name("reference.json")

# Drift values (widths, tongue edges, profile extremes): |a - b| <= RTOL |b| + ATOL.
# ATOL sits ten times above the Newton residual floor TAU_NEWTON = 1e-12.
DRIFT_RTOL, DRIFT_ATOL = 1e-6, 1e-11
# Series coefficients, per order: max |a - b| <= COEFF_RTOL (1 + max |b|).
COEFF_RTOL = 1e-9
# Critical torque against its reference: two bisection tolerances (rel_tol 1e-3).
CRITICAL_RTOL = 2e-3
# Chain critical torque against the Newton tongue edge delta_max (ROADMAP aim 3).
CHAIN_VS_NEWTON_RTOL = 1e-3
# Newton width / series-predicted width at the smallest eps of a sweep.
SERIES_RATIO_TOL = 0.02
# Traveling-wave period against its reference.
PERIOD_RTOL = 1e-4
# SVG polyline coordinates are printed with 4 decimals.
SVG_PX_TOL = 0.05
# Orbit residuals and series self-checks.
RESIDUAL_TOL = 1e-10
# Traveling wave delay identity (sgchain.TAU_WAVE).
DELAY_TOL = 1e-4

_POLYLINE = re.compile(rb'<polyline points="([^"]*)"')


@dataclass
class Output:
    """What one job left behind: exit code, parsed stdout JSON, SVG bytes."""

    rc: int
    payload: dict | None = None
    svg: bytes | None = None
    error: str = ""


def signature(out: Output) -> bytes:
    """Bytes that must repeat exactly across passes: the SVG, or the JSON
    payload without its ``meta`` block (which holds wall-clock values)."""
    if out.svg is not None:
        return out.svg
    body = {k: v for k, v in (out.payload or {}).items() if k != "meta"}
    return json.dumps(body, sort_keys=True).encode()


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)["jobs"]


def _sine_map(job) -> MapParams:
    return MapParams(0.0, 0.0, TrigPoly.sine(), job.p, job.q)


def tongue_edge(job) -> float:
    """Newton tongue edge ``delta_max`` at the job's (first) eps."""
    return width_at(_sine_map(job), job.eps[0], 64).delta_max


def cross_context(jobs) -> dict:
    """Values from a second route, computed once before timing starts."""
    ctx = {}
    for job in jobs:
        if job.cross_series:
            ctx[job.id] = predicted_width(expand(_sine_map(job), job.q), min(job.eps))
        elif job.bracket is not None:
            ctx[job.id] = tongue_edge(job)
    return ctx


def _svg_points(svg: bytes) -> list[float]:
    match = _POLYLINE.search(svg)
    if match is None:
        return []
    return [float(v) for pair in match.group(1).split() for v in pair.split(b",")]


def fingerprint(job, out: Output) -> dict:
    """The result values a faster implementation must reproduce."""
    d = out.payload or {}
    if job.cmd == "tongue":
        s = d["samples"]
        return {key: [x[key] for x in s]
                for key in ("eps", "width", "delta_max", "delta_min")}
    if job.cmd == "profile":
        if job.svg:
            return {"points": _svg_points(out.svg)}
        deltas = [x["delta"] for x in d["profile"]]
        return {"delta_max": max(deltas), "delta_min": min(deltas)}
    if job.cmd == "orbit":
        return {"kinds": sorted(o["kind"] for o in d["orbits"])}
    if job.cmd == "series":
        return {"r": d["r"], "Delta": d["Delta"], "Y": d["Y"]}
    if job.bracket is not None:
        return {"critical_delta": d["critical_delta"]}
    return {"kind": d["kind"], "T": d["T"]}


def _close(a: float, b: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(a - b) <= rtol * abs(b) + atol


def _coeff_error(got: dict, ref: dict) -> float:
    """Max coefficient difference relative to 1 + the reference's size."""
    worst = 0.0
    for key in ("cos", "sin"):
        a, b = got[key], ref[key]
        n = max(len(a), len(b))
        a = a + [0.0] * (n - len(a))
        b = b + [0.0] * (n - len(b))
        scale = 1.0 + max((abs(v) for v in b), default=0.0)
        worst = max(worst, max((abs(x - y) for x, y in zip(a, b)), default=0.0) / scale)
    return worst


def compare(job, got: dict, ref: dict) -> list[str]:
    """Fingerprint against its seed-0 reference, with the stated tolerances."""
    fails = []
    if job.cmd == "tongue":
        if got["eps"] != ref["eps"]:
            return [f"eps list {got['eps']} != reference {ref['eps']}"]
        for key in ("width", "delta_max", "delta_min"):
            for e, a, b in zip(got["eps"], got[key], ref[key]):
                if not _close(a, b, DRIFT_RTOL, DRIFT_ATOL):
                    fails.append(f"{key} at eps={e}: {a!r} vs reference {b!r}")
    elif job.cmd == "profile" and job.svg:
        a, b = got["points"], ref["points"]
        if len(a) != len(b) or any(abs(x - y) > SVG_PX_TOL for x, y in zip(a, b)):
            fails.append("SVG polyline differs from the reference")
    elif job.cmd == "profile":
        for key in ("delta_max", "delta_min"):
            if not _close(got[key], ref[key], DRIFT_RTOL, DRIFT_ATOL):
                fails.append(f"profile {key} {got[key]!r} vs reference {ref[key]!r}")
    elif job.cmd == "orbit":
        if got["kinds"] != ref["kinds"]:
            fails.append(f"orbit kinds {got['kinds']} vs reference {ref['kinds']}")
    elif job.cmd == "series":
        if got["r"] != ref["r"]:
            fails.append(f"r={got['r']} vs reference {ref['r']}")
        for key in ("Delta", "Y"):
            if len(got[key]) != len(ref[key]):
                fails.append(f"{key} has {len(got[key])} orders, reference {len(ref[key])}")
                continue
            for n, (a, b) in enumerate(zip(got[key], ref[key])):
                err = _coeff_error(a, b)
                if err > COEFF_RTOL:
                    fails.append(f"{key}_{n} differs from the reference by {err:.3g}")
    elif job.bracket is not None:
        if not _close(got["critical_delta"], ref["critical_delta"], CRITICAL_RTOL):
            fails.append(f"critical torque {got['critical_delta']!r} vs reference "
                         f"{ref['critical_delta']!r}")
    else:
        if got["kind"] != ref["kind"]:
            fails.append(f"chain kind {got['kind']} vs reference {ref['kind']}")
        elif ref["T"] is not None and not _close(got["T"], ref["T"], PERIOD_RTOL):
            fails.append(f"wave period {got['T']!r} vs reference {ref['T']!r}")
    return fails


def invariants(job, out: Output, ctx: dict) -> list[str]:
    """Route-independent facts and cross-route agreement, for any seed."""
    d = out.payload
    fails = []
    if job.cmd == "tongue":
        samples, failures = d["samples"], d["failures"]
        if failures:
            fails.append(f"sweep failures: {failures}")
        if [s["eps"] for s in samples] != sorted(job.eps):
            fails.append("samples do not cover the eps list")
        for s in samples:
            w = s["width"]
            if not w > 0 or not _close(s["delta_max"] - s["delta_min"], w, 1e-12):
                fails.append(f"eps={s['eps']}: width {w!r} is not delta_max - delta_min > 0")
            # sine forcing is odd, so the tongue is symmetric about delta = 0
            if abs(s["delta_max"] + s["delta_min"]) > DRIFT_RTOL * w + DRIFT_ATOL:
                fails.append(f"eps={s['eps']}: delta_max != -delta_min")
        widths = [s["width"] for s in samples]
        if any(b <= a for a, b in zip(widths, widths[1:])):
            fails.append("widths do not grow with eps")
        if job.cross_series and samples:
            ratio = samples[0]["width"] / ctx[job.id]
            if abs(ratio - 1.0) > SERIES_RATIO_TOL:
                fails.append(f"Newton/series width ratio {ratio:.5f} at eps={samples[0]['eps']}")
    elif job.cmd == "profile" and job.svg:
        svg = out.svg or b""
        if not (svg.startswith(b"<svg") and svg.endswith(b"</svg>\n")):
            fails.append("malformed SVG")
        elif len(_svg_points(svg)) != 2 * job.grid:
            fails.append(f"SVG profile has {len(_svg_points(svg)) // 2} points, grid {job.grid}")
    elif job.cmd == "profile":
        deltas = [x["delta"] for x in d["profile"]]
        if len(deltas) != job.grid:
            fails.append(f"profile has {len(deltas)} points, grid {job.grid}")
        elif abs(max(deltas) + min(deltas)) > DRIFT_RTOL * (max(deltas) - min(deltas)) + DRIFT_ATOL:
            fails.append("profile extremes are not symmetric")
    elif job.cmd == "orbit":
        kinds = sorted(o["kind"] for o in d["orbits"])
        want = ["center", "saddle"] if job.expect == "inside" else []
        if kinds != want:
            fails.append(f"{job.expect} delta gave orbits {kinds}, expected {want}")
        for o in d["orbits"]:
            if len(o["states"]) != job.q:
                fails.append(f"orbit with {len(o['states'])} states, q={job.q}")
            if max(abs(o["residual"]["R"]), abs(o["residual"]["S"])) > RESIDUAL_TOL:
                fails.append(f"orbit residual {o['residual']}")
    elif job.cmd == "series":
        if d["r"] != job.q:  # sine forcing: the first x-dependent order is q
            fails.append(f"r={d['r']}, expected q={job.q}")
        if not len(d["Delta"]) == len(d["Y"]) == job.order + 1:
            fails.append("series truncated at the wrong order")
        first = d["first_order_check"]
        if max(first["delta1_error"], first["y1_error"]) > RESIDUAL_TOL:
            fails.append(f"first-order check failed: {first}")
        per = d.get("periodicity_check")
        if per is None or not per["support_multiples_of_q"] \
                or per["shift_residual"] > RESIDUAL_TOL * per["norm"]:
            fails.append(f"periodicity check failed: {per}")
    elif job.bracket is not None:
        crit = d["critical_delta"]
        lo, hi = job.bracket
        if not lo < crit < hi:
            fails.append(f"critical torque {crit!r} outside the bracket")
        elif not _close(crit, ctx[job.id], CHAIN_VS_NEWTON_RTOL):
            fails.append(f"critical torque {crit!r} vs Newton delta_max {ctx[job.id]!r}")
    else:
        if d["kind"] != job.expect:
            fails.append(f"chain kind {d['kind']}, expected {job.expect}")
        elif d["kind"] == "traveling_wave":
            turn = 2.0 * math.pi * job.p
            if not d["delay_error"] < DELAY_TOL:
                fails.append(f"delay identity error {d['delay_error']!r}")
            if not (d["T"] > 0 and _close(abs(d["mean_velocity"]) * d["T"], turn, 1e-9)):
                fails.append("mean velocity is not one turn per period")
    return fails


def check(job, out: Output, ctx: dict, reference: dict | None) -> list[str]:
    """All checks for one job execution; ``reference`` is given for seed 0."""
    if out.rc != 0:
        return [f"exit code {out.rc}: {out.error}".rstrip(": ")]
    if out.payload is None and out.svg is None:
        return ["no output"]
    try:
        fails = invariants(job, out, ctx)
        if reference is not None:
            if job.id not in reference:
                fails.append("no reference fingerprint")
            else:
                fails += compare(job, fingerprint(job, out), reference[job.id])
    except (KeyError, TypeError, ValueError) as exc:
        fails = [f"malformed output: {exc!r}"]
    return fails
