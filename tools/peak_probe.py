"""Traced memory of the edge sweep's layers over one benchmark run.

    python3 tools/peak_probe.py --workload big_run --input 3
    python3 tools/peak_probe.py --workload refine_fast --input 3 --toy

Run from the root of a source checkout (the package is imported from
``src``, the benchmark inputs and configs from ``perfbench/workloads.py``).
It runs one workload input in this process with ``tracemalloc`` on and
wraps ``analysis.sweep_intervals`` (the one-shot interval sweep: the
domain check), ``analysis.sweep_totals`` (the engine's per-line totals)
and their helpers ``_dirty_lines``, ``_sweep_lines`` and
``_merge_lines``.  Every ``sweep_totals`` call carries (a run's first
state carries empty totals) and runs all three helpers;
``sweep_intervals`` builds its whole edge table directly and runs only
``_sweep_lines``.
For every call, in the order the calls began (a helper indented under its
sweep), it prints in MB of traced allocations (2^20 bytes, the unit of the
benchmark's ``peak_rss_mb``):

- ``entry``: live at entry
- ``peak``: the most live at any moment of the call
- ``return``: live at return, the call's result included

The last two lines are the most traced bytes live at any moment of the
run and the process's peak resident set.  Traced bytes count the
arrays that are alive; the resident set also holds heap the allocator
keeps after arrays are freed, so the two together separate a change in
live arrays from a change in heap layout.  ``tracemalloc`` adds its own
bookkeeping to the resident set and slows the run, so time the run with
the benchmark, not with this tool.
"""

from __future__ import annotations

import argparse
import os
import resource
import sys
import tempfile
import tracemalloc
from typing import List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import workloads as wl  # noqa: E402
from twowell import analysis as an  # noqa: E402

TARGETS = ("sweep_intervals", "sweep_totals", "_dirty_lines",
           "_sweep_lines", "_merge_lines")
MB = float(1 << 20)


class Probe:
    """Wraps analysis functions by name and records, per call, the traced
    bytes live at entry and at return and the peak in between.

    tracemalloc keeps one peak for the process; every entry and return
    folds it into the peaks of all open calls and resets it, so a call's
    peak covers the calls nested in it."""

    def __init__(self):
        self.peak = 0            # of the whole run, up to the last checkpoint
        self.calls: List[dict] = []
        self._open: List[dict] = []
        self._saved = {}

    def checkpoint(self) -> int:
        current, peak = tracemalloc.get_traced_memory()
        self.peak = max(self.peak, peak)
        for call in self._open:
            call["peak"] = max(call["peak"], peak)
        tracemalloc.reset_peak()
        return current

    def _wrap(self, name, fn):
        def wrapped(*args, **kwargs):
            live = self.checkpoint()
            call = {"name": name, "depth": len(self._open), "entry": live,
                    "peak": live}
            self.calls.append(call)
            self._open.append(call)
            try:
                return fn(*args, **kwargs)
            finally:
                call["return"] = self.checkpoint()
                self._open.pop()
        return wrapped

    def install(self):
        for name in TARGETS:
            self._saved[name] = getattr(an, name)
            setattr(an, name, self._wrap(name, self._saved[name]))

    def uninstall(self):
        for name, fn in self._saved.items():
            setattr(an, name, fn)
        self._saved.clear()

    def lines(self) -> List[str]:
        out = [f"{'call':<24} {'entry':>9} {'peak':>9} {'return':>9}"]
        for call in self.calls:
            label = "  " * call["depth"] + call["name"]
            out.append(f"{label:<24} {call['entry'] / MB:9.1f} "
                       f"{call['peak'] / MB:9.1f} {call['return'] / MB:9.1f}")
        return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=wl.NAMES, default="big_run")
    parser.add_argument("--input", type=int, default=3,
                        help="benchmark input seed (default: 3)")
    parser.add_argument("--toy", action="store_true",
                        help="the benchmark's small cell budget")
    args = parser.parse_args(argv)
    datum = wl.make_input(args.workload, args.input)
    probe = Probe()
    probe.install()
    tracemalloc.start()
    try:
        with tempfile.TemporaryDirectory() as workdir:
            wl.run_timed(args.workload, datum, args.toy, workdir)
        probe.checkpoint()
    finally:
        tracemalloc.stop()
        probe.uninstall()
    print(f"{args.workload} input {args.input}: traced MB per call")
    for line in probe.lines():
        print(line)
    print(f"traced peak of the run {probe.peak / MB:.1f} MB")
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"peak resident set {rss:.1f} MB (with tracemalloc on)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
