"""Spans around the public functions of each ``tonguelab`` module.

The tracer wraps functions from outside the package and rebinds every
name under which the package looks them up (``from .x import y`` copies
included), so no tracing code lives in ``src/``.  Spans are kept in
memory as (name, start, end, parent span, job) and written out at the
end; self times and counts are accumulated while they are recorded.
Counts come from call arguments and return values only.
"""

from __future__ import annotations

import importlib
import inspect
import math
import sys
from array import array
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps
from time import perf_counter

import numpy as np

LAYERS = ("cli", "tongue", "orbits", "cylmap", "trigpoly", "series", "sgchain", "svgfig")

# Per-step helpers: their time belongs to the calling cylmap function, and a
# span per map step would multiply the span count by q.
UNTRACED = {"cylmap.step", "cylmap.tangent_step"}

# Methods on hot paths that cross a layer boundary.
METHODS = (("trigpoly", "TrigPoly", "eval"), ("trigpoly", "TrigPoly", "derivative"),
           ("series", "EpsSeries", "mul"))


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _map_steps(args, kwargs, result):
    return {"cylmap.map_steps": _arg(args, kwargs, 2, "n")}


def _solve_delta_y(args, kwargs, result):
    return {"newton_iters": result.iterations, "unconverged": not result.converged}


def _fixed_delta(args, kwargs, result):
    return {"fixed_delta.found": result is not None}


def _width_at(args, kwargs, result):
    # width_at runs its own continuation unless it gets a full seed profile
    seeds, grid = _arg(args, kwargs, 3, "seeds"), _arg(args, kwargs, 2, "grid")
    unseeded = _arg(args, kwargs, 1, "eps") != 0.0 and (seeds is None or len(seeds) != grid)
    return {"width_at.unseeded": unseeded}


def _render_svg(args, kwargs, result):
    return {"svg.bytes": len(result.encode("utf-8"))}


def _integrate(args, kwargs, result):
    # the same step count sgchain.integrate derives from its arguments
    dt, t_end = _arg(args, kwargs, 2, "dt"), _arg(args, kwargs, 3, "t_end")
    steps = max(1, math.ceil(t_end / dt - 1e-12)) if t_end > 0 else 0
    return {"rk4_steps": steps, "recorded_rows": len(result.times)}


def _expand(args, kwargs, result):
    return {"series.orders": _arg(args, kwargs, 1, "order")}


HOOKS = {
    "cylmap.remainders": _map_steps,
    "cylmap.iterate": _map_steps,
    "orbits.solve_delta_y": _solve_delta_y,
    "orbits.solve_orbit_fixed_delta": _fixed_delta,
    "tongue.width_at": _width_at,
    "svgfig.render_svg": _render_svg,
    "sgchain.integrate": _integrate,
    "series.expand": _expand,
}


class Tracer:
    """In-memory span recorder; :meth:`installed` wraps the package."""

    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.job = -1
        self._stack: list[list] = []
        # (job, name id) -> [calls, inclusive s, self s, layer-self s]; self
        # excludes every child span, layer-self only spans of other layers
        self.stats = defaultdict(lambda: [0, 0.0, 0.0, 0.0])
        self.counts = defaultdict(float)  # (job, key) -> value
        self.edges = defaultdict(int)  # (job, name id, parent name id) -> calls

    def _wrap(self, name: str, layer: str, fn):
        if name not in self.names:
            self.names.append(name)
            self.layer_of.append(layer)
        nid = self.names.index(name)
        hook = HOOKS.get(name)
        stack, layer_of = self._stack, self.layer_of
        stats, counts, edges = self.stats, self.counts, self.edges
        starts, ends = self.span_start, self.span_end

        @wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            idx = len(starts)
            self.span_name.append(nid)
            self.span_parent.append(parent[0] if parent else -1)
            self.span_job.append(self.job)
            frame = [idx, 0.0, 0.0, nid]
            stack.append(frame)
            t0 = perf_counter()
            starts.append(t0)
            ends.append(t0)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                counts[(self.job, f"{name}.raised.{type(exc).__name__}")] += 1
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                ends[idx] = t1
                dur = t1 - t0
                st = stats[(self.job, nid)]
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[1]
                st[3] += dur - frame[2]
                if parent is not None:
                    parent[1] += dur
                    parent[2] += dur if layer_of[parent[3]] != layer else frame[2]
                    edges[(self.job, nid, parent[3])] += 1
            if hook is not None:
                for key, value in hook(args, kwargs, result).items():
                    counts[(self.job, key)] += value
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every traced function for the duration of the block, then
        put every original back."""
        restore = []
        try:
            wrapped = {}  # id(original) -> (original, wrapper)
            for layer in LAYERS:
                mod = importlib.import_module(f"tonguelab.{layer}")
                for attr, obj in vars(mod).items():
                    name = f"{layer}.{attr}"
                    if (attr.startswith("_") or not inspect.isfunction(obj)
                            or obj.__module__ != mod.__name__ or name in UNTRACED):
                        continue
                    wrapped[id(obj)] = (obj, self._wrap(name, layer, obj))
            for modname, mod in list(sys.modules.items()):
                if modname != "tonguelab" and not modname.startswith("tonguelab."):
                    continue
                for attr, obj in list(vars(mod).items()):
                    entry = wrapped.get(id(obj))
                    if entry is not None and entry[0] is obj:
                        restore.append((mod, attr, obj))
                        setattr(mod, attr, entry[1])
            for layer, cls_name, meth in METHODS:
                cls = getattr(importlib.import_module(f"tonguelab.{layer}"), cls_name)
                original = cls.__dict__[meth]
                restore.append((cls, meth, original))
                setattr(cls, meth, self._wrap(f"{layer}.{cls_name}.{meth}", layer, original))
            yield self
        finally:
            for target, attr, original in reversed(restore):
                setattr(target, attr, original)

    def save(self, path, job_labels) -> None:
        np.savez(path, names=np.array(self.names), jobs=np.array(job_labels),
                 name=np.frombuffer(self.span_name, dtype=np.int32),
                 parent=np.frombuffer(self.span_parent, dtype=np.int32),
                 job=np.frombuffer(self.span_job, dtype=np.int32),
                 start=np.frombuffer(self.span_start), end=np.frombuffer(self.span_end))


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer, job_cmds: list[str], passes: int) -> dict[str, float]:
    """Per-layer metrics per traced pass.  ``job_cmds[j]`` is the subcommand
    of job execution ``j``; it separates sweep jobs from profile jobs."""
    nid = {name: i for i, name in enumerate(tracer.names)}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for (job, i), st in tracer.stats.items():
        layer_self[tracer.layer_of[i]] += st[2] / passes

    def stat(name, k, cmd=None):
        i = nid.get(name)
        return sum(st[k] for (job, n), st in tracer.stats.items()
                   if n == i and (cmd is None or job_cmds[job] == cmd)) / passes

    def calls(name, cmd=None):
        return stat(name, 0, cmd)

    def ms(name):
        return 1e3 * stat(name, 1)

    def self_ms(name):
        return 1e3 * stat(name, 3)

    def count(key, jobs=None):
        return sum(v for (job, k), v in tracer.counts.items()
                   if k == key and (jobs is None or job in jobs)) / passes

    def edge(child, parent):
        c, p = nid.get(child), nid.get(parent)
        return sum(v for (job, a, b), v in tracer.edges.items() if a == c and b == p) / passes

    samples = calls("tongue.width_at")
    iters = count("newton_iters")
    fixed = calls("orbits.solve_orbit_fixed_delta")
    homotopy = calls("orbits.solve_delta_y_homotopy")
    crit_jobs = {job for (job, n), st in tracer.stats.items()
                 if n == nid.get("sgchain.critical_torque")}
    m = {
        "cli.run.self_ms": self_ms("cli.run"),
        "svgfig.emit_svg.ms": ms("svgfig.emit_svg"),
        "svgfig.bytes": count("svg.bytes"),
        "tongue.width_at.calls": samples,
        "tongue.width_at.self_ms": self_ms("tongue.width_at"),
        "tongue.solves_per_sample": _ratio(calls("orbits.solve_delta_y", "tongue"), samples),
        "tongue.continue_in_x_per_sample":
            _ratio(calls("orbits.continue_in_x", "tongue"), samples),
        "tongue.warm_start_fallbacks":
            edge("orbits.continue_in_x", "tongue.width_at") - count("width_at.unseeded"),
        "orbits.solve_delta_y.calls": calls("orbits.solve_delta_y"),
        "orbits.solve_delta_y.self_ms": self_ms("orbits.solve_delta_y"),
        "orbits.newton_iters_per_solve": _ratio(iters, calls("orbits.solve_delta_y")),
        "orbits.solve_delta_y.unconverged": count("unconverged"),
        "orbits.homotopy.calls": homotopy,
        "orbits.homotopy.ramp_solves":
            edge("orbits.solve_delta_y", "orbits.solve_delta_y_homotopy") - homotopy,
        "orbits.continue_in_x.calls": calls("orbits.continue_in_x"),
        "orbits.continue_in_x.ms": ms("orbits.continue_in_x"),
        "orbits.fixed_delta.calls": fixed,
        "orbits.fixed_delta.self_ms": self_ms("orbits.solve_orbit_fixed_delta"),
        "orbits.fixed_delta.found_frac": _ratio(count("fixed_delta.found"), fixed),
        "orbits.fixed_delta.singular":
            count("orbits.solve_orbit_fixed_delta.raised.SingularJacobianError"),
        "orbits.orbit_distance.calls": calls("orbits.orbit_distance"),
        "orbits.multistart.ms": ms("orbits.multistart_orbits"),
        "cylmap.remainders.calls": calls("cylmap.remainders"),
        "cylmap.remainders.ms": ms("cylmap.remainders"),
        "cylmap.iterate.calls": calls("cylmap.iterate"),
        "cylmap.iterate.ms": ms("cylmap.iterate"),
        "cylmap.map_steps": count("cylmap.map_steps"),
        "cylmap.remainders_per_newton_iter": _ratio(calls("cylmap.remainders"), iters),
        "trigpoly.eval.calls": calls("trigpoly.TrigPoly.eval"),
        "trigpoly.eval.ms": ms("trigpoly.TrigPoly.eval"),
        "trigpoly.derivative.calls": calls("trigpoly.TrigPoly.derivative"),
        "trigpoly.product.calls": calls("trigpoly.product"),
        "trigpoly.product.ms": ms("trigpoly.product"),
        "series.expand.calls": calls("series.expand"),
        "series.expand.self_ms": self_ms("series.expand"),
        "series.epsseries_mul.calls": calls("series.EpsSeries.mul"),
        "series.products_per_order":
            _ratio(calls("trigpoly.product", "series"), count("series.orders")),
        "series.verify.ms": ms("series.verify_first_order") + ms("series.verify_periodicity"),
        "sgchain.integrate.calls": calls("sgchain.integrate"),
        "sgchain.integrate.ms": ms("sgchain.integrate"),
        "sgchain.rk4_steps": count("rk4_steps"),
        "sgchain.rk4_steps_per_s":
            _ratio(count("rk4_steps"), stat("sgchain.integrate", 1)),
        "sgchain.recorded_rows": count("recorded_rows"),
        "sgchain.classify_attractor.ms": ms("sgchain.classify_attractor"),
        "sgchain.critical_torque.ms": ms("sgchain.critical_torque"),
        "sgchain.critical_torque.rk4_steps": count("rk4_steps", crit_jobs),
    }
    m.update({f"layer.{layer}.self_ms": 1e3 * s for layer, s in layer_self.items()})
    return {k: float(v) for k, v in m.items()}
