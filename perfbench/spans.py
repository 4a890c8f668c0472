"""Spans around extinctd's layer entry points, recorded from outside.

A ``Tracer`` wraps the public entry points of each module and rebinds every
name under which a loaded ``extinctd`` module holds the original, because a
``from .x import y`` copy is looked up in the importing module, not in ``x``.
Each span records its name, start, end, parent and the counts its layer
reports.  ``layer_metrics`` turns the spans into per-layer numbers with self
time, the part of a span that no child span covers.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass
class Span:
    name: str
    start: float
    parent: int  # index into Tracer.spans, -1 for a root
    end: float = 0.0
    counts: dict = field(default_factory=dict)


def _simulate_counts(args, kwargs, traj) -> dict:
    model, cfg = args[0], args[2]
    if model.family == "discrete_chain":
        steps, horizon = len(traj.times) - 1, float(round(cfg.t_final))
    else:
        steps, horizon = round(traj.duration / cfg.dt), cfg.t_final
    arrays = (traj.times, traj.states, traj.jumps) + (
        () if traj.regimes is None else (traj.regimes,))
    return {"steps": steps, "points": len(traj.times), "jumps": int(traj.jumps.size),
            "floor_hits": int(traj.duration < horizon * (1.0 - 1e-12)),
            "path_bytes": sum(a.nbytes for a in arrays)}


# (module, attribute, span name, counter(args, kwargs, result) -> dict)
TARGETS = (
    ("extinctd.process_core", "make_bundle", "process_core.make_bundle", None),
    ("extinctd.models.base", "calibrate_suite_constant", "models.calibrate_suite_constant", None),
    ("extinctd.integrators", "simulate", "integrators.simulate", _simulate_counts),
    ("extinctd.lyapunov", "eval_along", "lyapunov.eval_along",
     lambda a, k, v: {"points": len(v)}),
    ("extinctd.lyapunov", "occupation_average", "lyapunov.occupation_average", None),
    ("extinctd.exponents", "trajectory_slope", "exponents.trajectory_slope", None),
    ("extinctd.exponents", "boundary_exponent", "exponents.boundary_exponent", None),
    ("extinctd.criteria", "invasion_rate", "criteria.invasion_rate", None),
    ("extinctd.cli", "_csv_text", "cli.csv", lambda a, k, text: {"rows": text.count("\n") - 1}),
    ("extinctd.cli", "_write_text", "cli.write", lambda a, k, r: {"bytes": len(a[2])}),
    ("extinctd.cli", "dumps_report", "cli.dumps_report", None),
    ("extinctd.cli", "_map_indexed", "cli.fanout", None),
)

ROOT, TASK = "run", "cli.fanout.task"


class Tracer:
    """Collects spans in memory; one stack of open spans per thread."""

    def __init__(self):
        self.spans: list = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._bound: list = []  # (module, attribute, original) to restore

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def open(self, name: str, parent: Optional[int] = None) -> int:
        stack = self._stack()
        if parent is None:
            parent = stack[-1] if stack else -1
        with self._lock:
            self.spans.append(Span(name, time.perf_counter(), parent))
            idx = len(self.spans) - 1
        stack.append(idx)
        return idx

    def close(self, idx: int, counts: Optional[dict] = None):
        self.spans[idx].end = time.perf_counter()
        if counts:
            self.spans[idx].counts = counts
        self._stack().pop()

    def _wrap(self, name: str, fn: Callable, counter) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.close(idx)
                raise
            tracer.close(idx, counter(args, kwargs, result) if counter else None)
            return result

        return traced

    def _wrap_recursive(self, name: str, fn: Callable) -> Callable:
        # dumps_report calls itself through its module global: one span per
        # outermost call, recursion passes straight through
        tracer = self

        def traced(*args, **kwargs):
            if getattr(tracer._local, "inside", False):
                return fn(*args, **kwargs)
            tracer._local.inside = True
            idx = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)
                tracer._local.inside = False

        return traced

    def _wrap_fanout(self, name: str, fn: Callable) -> Callable:
        # worker threads start with empty stacks: each task span names the
        # fan-out span as its parent explicitly
        tracer = self

        def traced(task, count, threads):
            fan = tracer.open(name)

            def one(i):
                idx = tracer.open(TASK, parent=fan)
                try:
                    return task(i)
                finally:
                    tracer.close(idx)

            try:
                return fn(one, count, threads)
            finally:
                tracer.close(fan)

        return traced

    def install(self) -> dict:
        """Rebind every target; returns {span name: target} for those not found."""
        missing = {}
        for mod_name, attr, name, counter in TARGETS:
            try:
                original = getattr(importlib.import_module(mod_name), attr)
            except (ImportError, AttributeError):
                missing[name] = f"{mod_name}.{attr}"
                continue
            if name == "cli.fanout":
                wrapper = self._wrap_fanout(name, original)
            elif name == "cli.dumps_report":
                wrapper = self._wrap_recursive(name, original)
            else:
                wrapper = self._wrap(name, original, counter)
            for module in list(sys.modules.values()):
                mname = getattr(module, "__name__", "")
                if mname != "extinctd" and not mname.startswith("extinctd."):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._bound.append((module, key, original))
        return missing

    def uninstall(self):
        for module, key, original in reversed(self._bound):
            setattr(module, key, original)
        self._bound.clear()


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list) -> list:
    children = [[] for _ in spans]
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [s.end - s.start - _covered(children[i], s.start, s.end)
            for i, s in enumerate(spans)]


def layer_metrics(spans: list, runs: int, missing: tuple = ()) -> dict:
    """Per-layer metrics per run from the spans of ``runs`` traced runs.

    Returns {metric name: (value, unit)}.  ``missing`` holds the span names
    whose wrap target was not found; their metrics are left out.
    """
    selfs = self_times(spans)
    agg: dict = {}
    for s, own in zip(spans, selfs):
        a = agg.setdefault(s.name, {})
        a["calls"] = a.get("calls", 0) + 1
        a["s"] = a.get("s", 0.0) + s.end - s.start
        a["self_s"] = a.get("self_s", 0.0) + own
        for k, v in s.counts.items():
            a[k] = a.get(k, 0) + v

    def get(name, key):
        return agg.get(name, {}).get(key, 0)

    def per_point(name, key):
        n = get(name, key)
        return 1e6 * get(name, "self_s") / n if n else 0.0

    sim, ev, csv = "integrators.simulate", "lyapunov.eval_along", "cli.csv"
    table = {
        "process_core.make_bundle.calls": (get("process_core.make_bundle", "calls"), "count"),
        "process_core.make_bundle.s": (get("process_core.make_bundle", "s"), "s"),
        "models.calibrate_suite_constant.s": (get("models.calibrate_suite_constant", "s"), "s"),
        f"{sim}.calls": (get(sim, "calls"), "count"),
        f"{sim}.steps": (get(sim, "steps"), "count"),
        f"{sim}.self_s": (get(sim, "self_s"), "s"),
        f"{sim}.floor_hits": (get(sim, "floor_hits"), "count"),
        f"{sim}.jumps": (get(sim, "jumps"), "count"),
        f"{sim}.points": (get(sim, "points"), "count"),
        f"{sim}.path_mb": (get(sim, "path_bytes") / 2**20, "MiB"),
        f"{ev}.points": (get(ev, "points"), "count"),
        f"{ev}.self_s": (get(ev, "self_s"), "s"),
        "lyapunov.occupation_average.self_s": (get("lyapunov.occupation_average", "self_s"), "s"),
        "exponents.trajectory_slope.self_s": (get("exponents.trajectory_slope", "self_s"), "s"),
        "exponents.boundary_exponent.self_s": (get("exponents.boundary_exponent", "self_s"), "s"),
        "criteria.invasion_rate.self_s": (get("criteria.invasion_rate", "self_s"), "s"),
        f"{csv}.rows": (get(csv, "rows"), "count"),
        "cli.write.bytes": (get("cli.write", "bytes"), "bytes"),
        "cli.write.s": (get("cli.write", "s"), "s"),
        "cli.dumps_report.s": (get("cli.dumps_report", "s"), "s"),
        "cli.fanout.s": (get("cli.fanout", "s"), "s"),
        # busy time: the fan-out's tasks summed over its threads
        "cli.fanout.busy_s": (get(TASK, "s"), "s"),
        # glue: run_experiment's own code and the fan-out tasks outside any layer
        "other.self_s": (get(ROOT, "self_s") + get(TASK, "self_s"), "s"),
    }
    out = {metric: (value / runs, unit) for metric, (value, unit) in table.items()}
    out[f"{sim}.us_per_step"] = (per_point(sim, "steps"), "us")
    out[f"{ev}.us_per_point"] = (per_point(ev, "points"), "us")
    out[f"{csv}.us_per_row"] = (per_point(csv, "rows"), "us")
    return {metric: v for metric, v in out.items()
            if not any(metric.startswith(m + ".") for m in missing)}
