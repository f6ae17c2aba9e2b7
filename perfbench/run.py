"""Benchmark of the twowell refinement engine; see perfbench/README.md.

    python3 perfbench/run.py --workload big_run --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout.  Every repetition runs in a fresh
child process, one at a time, with the BLAS/OpenMP pools pinned to one
thread.  With ``--trace 0`` it reports the end-to-end metrics of untraced
repetitions, their times scaled by the speed of the core they ran on
(``probe.py``); with ``--trace 1`` it runs two traced repetitions of the same
seed and reports the per-layer metrics.  Every repetition's outputs are
checked against the recorded references.  The last line of standard output
is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import probe  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402

SETUP_SAMPLES = 3          # setup-only children per untraced run
SETUP_AFTER = 1            # of them, run after the timed repetitions
SETUP_CHILD_MAX_S = 3.0    # wall time reserved per setup child (about 1 s)
TIME_LIMIT_S = 170.0       # the whole invocation stays below this
PINNED_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}


def registered_units(trace: int) -> Dict[str, str]:
    """Metric -> unit as BENCHMARK.json registers them for this mode."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def child_env(root: str) -> Dict[str, str]:
    env = dict(os.environ)
    env.pop("TWOWELL_THREADS", None)   # it would add a line to report.txt
    env.update(PINNED_THREADS)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_child(args, mode: str, workdir: str, env: Dict[str, str],
              timeout: float, cpu: Optional[int] = None
              ) -> Tuple[Optional[dict], str]:
    """One fresh child process, pinned to ``cpu`` if one is given.

    Returns (result or None, error text).
    """
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--mode", mode, "--workdir", workdir, "--refs", args.refs]
    if args.toy:
        cmd.append("--toy")
    pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max(timeout, 1.0), preexec_fn=pin)
    except subprocess.TimeoutExpired:
        return None, f"{mode} child timed out after {timeout:.0f} s"
    if proc.returncode != 0:
        return None, (f"{mode} child exited {proc.returncode}: "
                      + proc.stderr.strip()[-2000:])
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), ""
    except (IndexError, ValueError):
        return None, f"{mode} child printed no result"


def _read(path: str) -> str:
    try:
        with open(path) as f:
            return f.read()
    except OSError:
        return ""


def git_commit(root: str) -> str:
    head = _read(os.path.join(root, ".git", "HEAD")).strip()
    if not head.startswith("ref: "):
        return head or "unknown (not a git checkout)"
    ref = head[5:]
    commit = _read(os.path.join(root, ".git", ref)).strip()
    if commit:
        return commit
    for line in _read(os.path.join(root, ".git", "packed-refs")).splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def source_digest(root: str) -> str:
    import hashlib
    h = hashlib.sha256()
    src = os.path.join(root, "src", "twowell")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(src, name), "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def cpu_info() -> Dict[str, object]:
    model = "unknown"
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for idx in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        d = os.path.join(base, idx)
        level = _read(os.path.join(d, "level")).strip()
        kind = _read(os.path.join(d, "type")).strip()
        size = _read(os.path.join(d, "size")).strip()
        if level and size:
            caches[f"L{level} {kind}"] = size
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": model, "caches": caches}


def provenance(root: str, args, datum) -> Dict[str, object]:
    import numpy
    return {"workload": args.workload, "seed": args.seed,
            "input_seed": wl.input_seed(args.seed), "toy": args.toy,
            "datum": datum, "git_commit": git_commit(root),
            "src_sha256": source_digest(root), **cpu_info(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "pinned_threads": PINNED_THREADS}


def untraced(args, workdir, env, t_start) -> Tuple[dict, dict, List[str]]:
    """Setup-only children around timed repetitions for --seconds.

    The children and the speed probe share one pinned core; every setup
    and timed section is scaled by the probe's bursts inside it.  The
    host's slow phases last several seconds, so back-to-back setup samples
    move together; the last SETUP_AFTER of them run after the timed
    repetitions, in another phase than the first ones.
    """
    cpu = max(os.sched_getaffinity(0))
    setup_ts, reps, oks, errors = [], [], [], []

    def sample_setup(n: int) -> None:
        for _ in range(n):
            res, err = run_child(args, "setup", workdir, env,
                                 TIME_LIMIT_S - (time.monotonic() - t_start),
                                 cpu)
            oks.append(res is not None)
            if res is None:
                errors.append(err)
            else:
                setup_ts.append(res["setup_t"])

    with probe.ProbeProcess(cpu) as speed:
        sample_setup(SETUP_SAMPLES - SETUP_AFTER)
        reserve = SETUP_AFTER * SETUP_CHILD_MAX_S
        timed = last = 0.0
        while not reps or timed < args.seconds:
            elapsed = time.monotonic() - t_start
            if reps and elapsed + 1.2 * last + reserve > TIME_LIMIT_S:
                break
            res, err = run_child(args, "run", workdir, env,
                                 TIME_LIMIT_S - elapsed, cpu)
            last = time.monotonic() - t_start - elapsed
            oks.append(res is not None and not res["problems"])
            if res is None:
                errors.append(err)
                break
            reps.append(res)
            setup_ts.append(res["setup_t"])
            timed += res["run_s"]
            errors += [f"output check: {p}" for p in res["problems"]]
        sample_setup(SETUP_AFTER)
    setups = [dict(zip(("setup_s", "scaling"),
                       probe.scaled(speed.bursts, *t))) for t in setup_ts]
    runs = []
    for r in reps:
        run_s, scaling = probe.scaled(speed.bursts, *r["run_t"])
        runs.append({"run_s": run_s, "n_cells": r["n_cells"],
                     "peak_rss_mb": r["peak_rss_mb"], "scaling": scaling})
    metrics = {}
    if runs:
        metrics = {
            "run_s": statistics.median(r["run_s"] for r in runs),
            "cells_per_s": statistics.median(r["n_cells"] / r["run_s"]
                                             for r in runs),
            "setup_s": statistics.median(x["setup_s"] for x in setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        }
    counts = {"attempted": len(oks), "failed": oks.count(False),
              "probe_cpu": cpu, "setup_samples": setups, "run_samples": runs}
    return metrics, counts, errors


def traced(args, workdir, env, t_start) -> Tuple[dict, dict, List[str]]:
    """Two traced repetitions of one seed; exact counters must repeat."""
    reps, errors = [], []
    for _ in range(2):
        res, err = run_child(args, "traced", workdir, env,
                             TIME_LIMIT_S - (time.monotonic() - t_start))
        if res is None:
            errors.append(err)
            continue
        reps.append(res)
        errors += [f"output check: {p}" for p in res["problems"]]
    metrics = {}
    if len(reps) == 2:
        a, b = (r["layers"] for r in reps)
        drift = [c for c in tracer.EXACT_COUNTERS if a[c] != b[c]]
        if drift:
            raise SystemExit("exact counters differ between two traced runs "
                             "of one seed: " + ", ".join(
                                 f"{c} {a[c]} vs {b[c]}" for c in drift))
        metrics = {m: statistics.median([a[m], b[m]]) for m in a}
    failed = sum(1 for r in reps if r["problems"]) + (2 - len(reps))
    counts = {"attempted": 2, "failed": failed,
              "run_samples": [r["layers"] for r in reps]}
    return metrics, counts, errors


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=wl.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="timed wall seconds to accumulate (at least one rep)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--refs", default=os.path.join(HERE, "refs"),
                    help="directory of recorded reference outputs")
    ap.add_argument("--toy", action="store_true",
                    help=f"{wl.TOY_BUDGET}-cell budget (self-test only)")
    args = ap.parse_args()
    t_start = time.monotonic()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "twowell",
                                       "__init__.py")):
        print("error: run from the root of a twowell source checkout "
              "(src/twowell not found)", file=sys.stderr)
        return 2
    args.refs = os.path.abspath(args.refs)
    workdir = os.path.join(HERE, "out", f"{args.workload}-s{args.seed}-"
                           f"t{args.trace}{'-toy' if args.toy else ''}")
    os.makedirs(workdir, exist_ok=True)
    env = child_env(root)
    sys.path.insert(0, os.path.join(root, "src"))
    datum = wl.datum_record(wl.make_input(args.workload, args.seed))
    measure = traced if args.trace else untraced
    metrics, counts, errors = measure(args, workdir, env, t_start)
    shutil.rmtree(os.path.join(workdir, "cli_out"), ignore_errors=True)
    if not metrics:
        for err in errors:
            print(f"error: {err}", file=sys.stderr)
        print("error: no repetition completed", file=sys.stderr)
        return 1
    units = registered_units(args.trace)
    if set(metrics) != set(units):
        print("error: measured metrics differ from BENCHMARK.json: missing "
              f"{sorted(set(units) - set(metrics))}, unlisted "
              f"{sorted(set(metrics) - set(units))}", file=sys.stderr)
        return 1
    prov = provenance(root, args, datum)
    fail_frac = counts["failed"] / counts["attempted"]
    record = {"provenance": prov, "fail_frac": fail_frac, **counts,
              "errors": errors, "metrics": metrics, "units": units}
    with open(os.path.join(workdir, "result.json"), "w") as f:
        json.dump(record, f, indent=1)
    for err in errors:
        print(f"error: {err}", file=sys.stderr)
    print("provenance " + json.dumps(prov))
    for m, v in metrics.items():
        print(f"{m:28s} {v:16.6f} {units[m]}")
    print(f"{'fail_frac':28s} {fail_frac:16.6f} ratio "
          f"({counts['failed']}/{counts['attempted']})")
    print(json.dumps({"correct": counts["failed"] == 0,
                      "attempted": counts["attempted"],
                      "failed": counts["failed"],
                      "metrics": {m: {"value": v, "unit": units[m]}
                                  for m, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
