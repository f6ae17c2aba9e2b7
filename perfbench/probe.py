"""Speed probe of the core that runs the benchmark's children.

On a shared host the speed of one virtual core drifts by 10-40% over
seconds to minutes with the load of other tenants, and one repetition of a
workload cannot average that out.  So ``run.py`` pins every untraced child
and this probe to one core.  Every ``PERIOD_S`` the probe wakes and runs a
fixed burst of interpreter work, timing it in its own CPU time, which the
child's share of the core does not inflate.  A measured section [t0, t1]
of a child is then scaled by the median burst inside it:

    scaled = (wall - CPU time of the bursts) * REF_BURST_S / median burst

A burst takes ``REF_BURST_S`` on a quiet core, where the scaled time is
the wall time.  The probe runs no program code and shares no state with
the child, so a slower program still reads slower.

    python3 perfbench/probe.py CPU

pins itself to CPU, prints ``ready``, bursts until its standard input
closes, then prints the bursts as one JSON list of [start, CPU seconds]
(start on the ``time.perf_counter`` clock, CLOCK_MONOTONIC on Linux, which
all processes share).
"""

from __future__ import annotations

import json
import os
import select
import statistics
import subprocess
import sys
import time
from typing import List, Tuple

PERIOD_S = 0.1
REF_BURST_S = 0.0016      # median burst on the reference host (README)
_LOOP = 20_000

Bursts = List[Tuple[float, float]]


def _burst() -> None:
    s = 0
    for i in range(_LOOP):
        s += i * i % 7


def main() -> int:
    os.sched_setaffinity(0, {int(sys.argv[1])})
    _burst()                                    # warm the burst's code
    print("ready", flush=True)
    bursts: Bursts = []
    due = time.perf_counter()
    while True:
        due += PERIOD_S
        wait = max(0.0, due - time.perf_counter())
        if select.select([sys.stdin], [], [], wait)[0]:
            break                               # stdin closed: stop
        t0, c0 = time.perf_counter(), time.thread_time()
        _burst()
        bursts.append((t0, time.thread_time() - c0))
    json.dump(bursts, sys.stdout)
    return 0


class ProbeProcess:
    """The probe as a child process: ``with ProbeProcess(cpu) as p:``."""

    def __init__(self, cpu: int) -> None:
        self.cpu = cpu
        self.bursts: Bursts = []
        self._proc = None

    def __enter__(self) -> "ProbeProcess":
        self._proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), str(self.cpu)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        if self._proc.stdout.readline().strip() != "ready":
            self._proc.kill()
            self._proc.wait()
            raise RuntimeError("the speed probe did not start")
        return self

    def __exit__(self, exc_type=None, *exc) -> None:
        out, _ = self._proc.communicate()
        if self._proc.returncode == 0 and out:
            self.bursts = [tuple(b) for b in json.loads(out)]
        elif exc_type is None:
            raise RuntimeError("the speed probe failed "
                               f"(exit {self._proc.returncode})")


def scaled(bursts: Bursts, t0: float, t1: float) -> Tuple[float, dict]:
    """Scaled seconds of the section [t0, t1] and what scaled them."""
    inside = [d for s, d in bursts if t0 <= s < t1]
    wall = t1 - t0
    if not inside:
        return wall, {"wall_s": wall, "slowdown": 1.0, "bursts": 0}
    slowdown = statistics.median(inside) / REF_BURST_S
    return ((wall - sum(inside)) / slowdown,
            {"wall_s": wall, "slowdown": slowdown, "bursts": len(inside)})


if __name__ == "__main__":
    sys.exit(main())
