"""Record the reference outputs the benchmark checks every repetition against.

    python3 perfbench/record_refs.py

Run from the root of the checkout.  Runs each workload at full size once
per input seed (0 .. N_INPUTS-1) in a fresh child process, exactly as
``run.py`` does, and writes ``perfbench/refs/<workload>.json``.  Only rerun
it on purpose: the references pin the outputs of the code the benchmark was
defined on.  The self-test calls ``record`` for its toy references.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads as wl  # noqa: E402


def record(workload: str, inputs, toy: bool, out: str) -> dict:
    """Reference outputs of one workload, one child run per input seed."""
    root = os.getcwd()
    env = run.child_env(root)
    workdir = os.path.join(HERE, "out",
                           f"record-{workload}{'-toy' if toy else ''}")
    os.makedirs(workdir, exist_ok=True)
    refs = {}
    for i in inputs:
        args = argparse.Namespace(workload=workload, seed=i, toy=toy,
                                  refs=out)
        res, err = run.run_child(args, "run", workdir, env, 900.0)
        if res is None:
            raise SystemExit(f"{workload} input {i}: {err}")
        problems = wl.check(workload, res["summary"], res["summary"])
        if problems:
            raise SystemExit(f"{workload} input {i} is no valid reference: "
                             + "; ".join(problems))
        refs[str(i)] = {"datum": res["datum"], **res["summary"]}
        print(f"{workload} input {i}: run_s={res['run_s']:.2f} "
              f"cells={res['n_cells']}", file=sys.stderr)
    shutil.rmtree(workdir, ignore_errors=True)
    return {"workload": workload, "toy": toy, "inputs": refs}


def main() -> int:
    out = os.path.join(HERE, "refs")
    os.makedirs(out, exist_ok=True)
    for name in wl.NAMES:
        data = record(name, range(wl.N_INPUTS), False, out)
        with open(os.path.join(out, f"{name}.json"), "w") as f:
            json.dump(data, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
