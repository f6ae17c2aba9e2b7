"""Self-test of the benchmark at toy size (a 20k-cell budget).

    python3 perfbench/selftest.py

Run from the root of the checkout.  It records toy references, runs every
workload untraced and traced end to end through ``run.py``, checks that
every metric listed in BENCHMARK.json is emitted with its unit, that the
listed layer self times leave at most OTHER_SHARE of the traced run time
unaccounted for, that the core-speed probe fires and scales as it should,
that a corrupted reference registers as a failure, and that the benchmark
refuses to run without the package sources.  Exits nonzero on the first
failure.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import probe  # noqa: E402
import record_refs  # noqa: E402
import workloads as wl  # noqa: E402

OUT = os.path.join(HERE, "out", "selftest")
SEED = 11       # input seed 1: checks the seed-to-input mapping as well
# largest share of the traced run_s that may fall outside every listed self
# time; a layer no longer reached through its wrapper would land there
OTHER_SHARE = 0.05


def bench(refs: str, workload: str, trace: int, cwd: str = ".") -> tuple:
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
           workload, "--seed", str(SEED), "--seconds", "0.5", "--trace",
           str(trace), "--toy", "--refs", refs]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=cwd,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return proc.returncode, result, proc.stderr


def expect(ok: bool, what: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {what}")
    if not ok:
        raise SystemExit(1)


def corrupt(workload: str, ref: dict) -> dict:
    bad = copy.deepcopy(ref)
    for entry in bad["inputs"].values():
        if workload == "cli_pipeline":
            entry["mesh_sha256"] = "0" * 64
        else:
            entry["rows"][-1]["l1_chi_diff"] *= 1.0 + 1e-9
    return bad


def check_probe() -> None:
    cpu = max(os.sched_getaffinity(0))
    with probe.ProbeProcess(cpu) as speed:
        t0 = time.perf_counter()
        time.sleep(1.0)
        t1 = time.perf_counter()
    _, scaling = probe.scaled(speed.bursts, t0, t1)
    expect(scaling["bursts"] >= 5, f"probe: bursts during one second "
           f"({scaling['bursts']})")
    # a core at half speed: 50 bursts of twice the reference inside the
    # section, one burst after it; the rest of the section is halved
    burst = 2 * probe.REF_BURST_S
    bursts = [(0.05 + 0.2 * i, burst) for i in range(50)]
    bursts.append((20.0, 10 * probe.REF_BURST_S))
    scaled, scaling = probe.scaled(bursts, 0.0, 10.0 + 50 * burst)
    expect(abs(scaled - 5.0) < 1e-9 and scaling["bursts"] == 50
           and abs(scaling["slowdown"] - 2.0) < 1e-9,
           f"probe: a half-speed core halves the scaled time ({scaled})")


def main() -> int:
    check_probe()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    shutil.rmtree(OUT, ignore_errors=True)
    refs = os.path.join(OUT, "refs")
    bad_refs = os.path.join(OUT, "bad_refs")
    os.makedirs(bad_refs)
    os.makedirs(refs)
    for name in wl.NAMES:
        ref = record_refs.record(name, range(2), True, refs)
        with open(os.path.join(refs, f"{name}.json"), "w") as f:
            json.dump(ref, f)
        bad = corrupt(name, ref)
        with open(os.path.join(bad_refs, f"{name}.json"), "w") as f:
            json.dump(bad, f)
        good = ref["inputs"]["1"]
        expect(not wl.check(name, good, good), f"{name}: reference matches "
               "itself")
        expect(bool(wl.check(name, good, bad["inputs"]["1"])),
               f"{name}: corrupted reference is a mismatch")

        rc, res, err = bench(refs, name, 0)
        expect(rc == 0 and res is not None, f"{name} untraced: exits 0 with "
               f"a result {err[-500:]}")
        expect(set(res) == {"correct", "attempted", "failed", "metrics"},
               f"{name} untraced: result keys")
        expect(res["correct"] and res["failed"] == 0
               and res["attempted"] >= 1, f"{name} untraced: output check "
               f"passes ({res['failed']}/{res['attempted']} failed)")
        got = {m: v["unit"] for m, v in res["metrics"].items()}
        expect(got == e2e, f"{name} untraced: every end-to-end metric with "
               "its unit")

        rc, res, err = bench(refs, name, 1)
        expect(rc == 0 and res is not None and res["correct"],
               f"{name} traced: exits 0, output check passes {err[-500:]}")
        got = {m: v["unit"] for m, v in res["metrics"].items()}
        expect(got == layers, f"{name} traced: every per-layer metric with "
               f"its unit (missing {sorted(set(layers) - set(got))}, extra "
               f"{sorted(set(got) - set(layers))})")
        vals = {m: v["value"] for m, v in res["metrics"].items()}
        other, run_s = vals["trace.other_s"], vals["trace.run_s"]
        expect(0.0 <= other <= OTHER_SHARE * run_s, f"{name} traced: the "
               f"listed layers account for the traced run_s (remainder "
               f"{other:.4f} s of {run_s:.4f} s)")
        expect(vals["engine.steps"] >= 1 and vals["analysis.sweep_calls"] >= 1,
               f"{name} traced: spans recorded")

        rc, res, _ = bench(bad_refs, name, 0)
        expect(rc == 0 and res is not None and not res["correct"]
               and res["failed"] >= 1, f"{name}: corrupted reference "
               f"registers as a failure ({res and res['failed']}/"
               f"{res and res['attempted']} failed)")

    bare = os.path.join(OUT, "bare")
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy("BENCHMARK.json", bare)
    rc, res, _ = bench(os.path.join(bare, "perfbench", "refs"), "refine_fast",
                       0, cwd=bare)
    expect(rc != 0 and res is None, "without src/twowell: nonzero exit, "
           "no result")
    shutil.rmtree(OUT, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
