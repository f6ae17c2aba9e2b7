"""Span tracing of the twowell layers from outside the package.

The engine and the command line reach every layer function through a
module attribute at call time (``cv.cover_isosceles``, ``an.sweep_intervals``,
``write_mesh`` from the ``cli`` module globals), so replacing those
attributes with timing wrappers nests the spans correctly without any edit
to the package.  Spans stay in memory as (name, start, end, parent) and are
written out after the run.  Counters are taken at the same boundaries.
"""

from __future__ import annotations

import os
import time
from typing import Callable, Dict, List, Tuple

# (module, attribute, span name); a dotted attribute names a class method
TARGETS = (
    ("twowell.cell", "calibrate_h0", "cell.calibrate"),
    ("twowell.cell", "replace_dyadic_stage", "cell.plan"),
    ("twowell.cell", "replace_low_stage", "cell.plan"),
    ("twowell.matgeo", "dist_to_wells_b", "matgeo.dist"),
    ("twowell.covering", "cover_isosceles", "covering.iso"),
    ("twowell.covering", "generic_spec", "covering.spec"),
    ("twowell.covering", "emit_spec", "covering.emit"),
    ("twowell.engine", "run_construction", "engine.run"),
    ("twowell.engine", "Engine.step", "engine.step"),
    ("twowell.analysis", "sweep_intervals", "analysis.sweep"),
    ("twowell.analysis", "bv_seminorm_cells", "analysis.bv"),
    ("twowell.analysis", "bv_seminorm", "analysis.bv"),
    ("twowell.analysis", "continuity_residual", "analysis.continuity"),
    ("twowell.analysis", "boundary_trace_residual", "analysis.trace"),
    ("twowell.analysis", "interface_segments", "analysis.interface"),
    ("twowell.analysis", "box_dimension", "analysis.boxdim"),
    ("twowell.analysis", "regularity_report", "analysis.fit"),
    ("twowell.cli", "main", "cli.main"),
    ("twowell.cli", "write_mesh", "cli.write_mesh"),
    ("twowell.cli", "write_phase_svg", "cli.write_svg"),
    ("twowell.cli", "write_metrics", "cli.write_small"),
    ("twowell.cli", "write_report", "cli.write_small"),
    ("twowell.cli", "read_mesh", "cli.read_mesh"),
)

# per-layer self-time metrics: metric -> span names whose self time it sums
SELF_TIMES = {
    "cell.plan_s": ("cell.plan",),
    "matgeo.dist_s": ("matgeo.dist",),
    "covering.iso_s": ("covering.iso",),
    "covering.generic_s": ("covering.spec", "covering.emit"),
    "engine.self_s": ("engine.step",),
    "analysis.sweep_s": ("analysis.sweep",),
    "analysis.bv_s": ("analysis.bv",),
    "analysis.continuity_s": ("analysis.continuity",),
    "analysis.trace_s": ("analysis.trace",),
    "analysis.interface_s": ("analysis.interface",),
    "analysis.boxdim_s": ("analysis.boxdim",),
    "analysis.fit_s": ("analysis.fit",),
    "cli.write_mesh_s": ("cli.write_mesh",),
    "cli.write_svg_s": ("cli.write_svg",),
    "cli.write_small_s": ("cli.write_small",),
    "cli.read_mesh_s": ("cli.read_mesh",),
    "cli.self_s": ("cli.main",),
}

# counters that must repeat exactly between two traced runs of one seed
EXACT_COUNTERS = ("cell.plan_builds", "covering.iso_calls",
                  "covering.generic_calls", "covering.children",
                  "analysis.sweep_edges", "analysis.boxdim_segments",
                  "engine.restarts", "cli.bytes_written")

COUNTERS = EXACT_COUNTERS + ("matgeo.dist_rows", "covering.spec_calls",
                             "engine.steps", "engine.cells",
                             "analysis.sweep_calls")


def _count(name: str, args, result, counts: Dict[str, int]) -> None:
    """Counters read off one call of a wrapped function."""
    if name == "cell.plan":
        counts["cell.plan_builds"] += 1
    elif name == "matgeo.dist":
        counts["matgeo.dist_rows"] += int(args[0].shape[0])
    elif name == "covering.iso":
        counts["covering.iso_calls"] += 1
        counts["covering.children"] += result.n_children
    elif name == "covering.spec":
        counts["covering.spec_calls"] += 1
    elif name == "covering.emit":
        counts["covering.generic_calls"] += 1
        counts["covering.children"] += result.n_children
    elif name == "engine.step":
        counts["engine.steps"] += 1
    elif name == "engine.run":
        counts["engine.cells"] += result.state.n
        counts["engine.restarts"] += result.restarts
    elif name == "analysis.sweep":
        counts["analysis.sweep_calls"] += 1
        counts["analysis.sweep_edges"] += 3 * int(args[0].shape[0])
    elif name == "analysis.boxdim":
        counts["analysis.boxdim_segments"] += int(len(args[0]))
    elif name in ("cli.write_mesh", "cli.write_svg", "cli.write_small"):
        counts["cli.bytes_written"] += os.path.getsize(args[0])


def _resolve(module: str, attr: str):
    import importlib
    owner = importlib.import_module(module)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


class Tracer:
    """Wraps the layer functions; collects spans and counters in memory."""

    def __init__(self):
        self.spans: List[Tuple[str, float, float, int]] = []
        self.child_time: List[float] = []
        self.counts: Dict[str, int] = {}
        self.calls = 0
        self._stack: List[int] = []
        self._saved: List[Tuple[object, str, Callable]] = []
        self.reset()

    def reset(self) -> None:
        self.spans.clear()
        self.child_time.clear()
        self.counts = {c: 0 for c in COUNTERS}
        self.calls = 0

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, child_time, stack = self.spans, self.child_time, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            child_time.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent)
                if parent >= 0:
                    child_time[parent] += t1 - t0
            self.calls += 1
            _count(name, args, result, self.counts)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for module, attr, name in TARGETS:
            owner, leaf = _resolve(module, attr)
            orig = getattr(owner, leaf)
            self._saved.append((owner, leaf, orig))
            setattr(owner, leaf, self._wrap(name, orig))

    def uninstall(self) -> None:
        while self._saved:
            owner, leaf, orig = self._saved.pop()
            setattr(owner, leaf, orig)

    def self_times(self) -> Dict[str, float]:
        """Sum of span self time (duration minus children) per span name."""
        out: Dict[str, float] = {}
        for (name, t0, t1, _), kids in zip(self.spans, self.child_time):
            out[name] = out.get(name, 0.0) + (t1 - t0) - kids
        return out

    def total_time(self, name: str) -> float:
        return sum(t1 - t0 for n, t0, t1, _ in self.spans if n == name)

    def write_spans(self, path: str) -> None:
        with open(path, "w") as f:
            f.write("id\tname\tstart_s\tend_s\tparent\n")
            for i, (name, t0, t1, parent) in enumerate(self.spans):
                f.write(f"{i}\t{name}\t{t0:.9f}\t{t1:.9f}\t{parent}\n")


def wrapper_overhead(calls: int = 20_000) -> float:
    """Seconds one wrapped call costs over a bare call (no-op body)."""
    def noop(*args):
        return None
    wrapped = Tracer()._wrap("calibration", noop)
    clock = time.perf_counter
    t0 = clock()
    for _ in range(calls):
        noop(None)
    bare = clock() - t0
    t0 = clock()
    for _ in range(calls):
        wrapped(None)
    traced = clock() - t0
    return max(traced - bare, 0.0) / calls


def layer_metrics(tracer: Tracer, run_s: float, calibrate_s: float,
                  overhead_s: float) -> Dict[str, float]:
    """Per-layer metrics of one traced run (see perfbench/README.md).

    Every ``_s`` metric is a self time except ``engine.step_s``, which
    includes the layers below the step; ``trace.other_s`` is the traced
    run time no listed self time covers.
    """
    selfs = tracer.self_times()
    out: Dict[str, float] = {"cell.calibrate_s": calibrate_s}
    for metric, names in SELF_TIMES.items():
        out[metric] = sum(selfs.get(n, 0.0) for n in names)
    out["engine.step_s"] = tracer.total_time("engine.step")
    for c in COUNTERS:
        out[c] = tracer.counts[c]
    specs = tracer.counts["covering.spec_calls"]
    out["covering.spec_used_ratio"] = (
        tracer.counts["covering.generic_calls"] / specs if specs else 0.0)
    out["trace.run_s"] = run_s
    out["trace.other_s"] = run_s - sum(out[m] for m in SELF_TIMES)
    out["trace.overhead_s"] = overhead_s
    del out["covering.spec_calls"]    # only the ratio is reported
    return out
