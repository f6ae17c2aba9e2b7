"""One repetition of a workload in a fresh process; prints one JSON line.

Modes:
    setup   cold ``import twowell`` plus the first Engine construction
    run     setup, then the timed section untraced, then the output check
    traced  the same with every layer function wrapped by the tracer

Run by ``perfbench/run.py`` with ``src`` on PYTHONPATH and the BLAS/OpenMP
pools pinned to one thread.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "traced"),
                    required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--refs", required=True)
    ap.add_argument("--toy", action="store_true")
    args = ap.parse_args()

    import twowell.engine  # noqa: F401  (the cold import is part of setup)
    if args.workload == "cli_pipeline":
        import twowell.cli  # noqa: F401
    import workloads as wl
    tracer = None
    if args.mode == "traced":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    datum = wl.make_input(args.workload, args.seed)
    wl.setup(args.workload, datum, args.toy)
    setup_end = time.perf_counter()
    out = {"setup_s": setup_end - _T_START, "setup_t": [_T_START, setup_end]}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    calibrate_s = 0.0
    if tracer is not None:
        calibrate_s = tracer.total_time("cell.calibrate")
        tracer.reset()
    t0, t1, raw = wl.run_timed(args.workload, datum, args.toy, args.workdir)
    run_s = t1 - t0
    out["run_t"] = [t0, t1]
    if tracer is not None:
        tracer.uninstall()
    summary = wl.summarize(args.workload, raw)
    out.update(run_s=run_s, n_cells=summary.get("n_cells", 0),
               peak_rss_mb=resource.getrusage(
                   resource.RUSAGE_SELF).ru_maxrss / 1024.0,
               datum=wl.datum_record(datum), summary=summary)
    ref_path = os.path.join(args.refs, f"{args.workload}.json")
    key = str(wl.input_seed(args.seed))
    try:
        with open(ref_path) as f:
            ref = json.load(f)["inputs"][key]
    except (OSError, KeyError, ValueError) as err:
        out["problems"] = [f"no reference for input {key} in {ref_path}: "
                           f"{err!r}"]
    else:
        problems = wl.check(args.workload, summary, ref)
        if wl.datum_record(datum) != ref["datum"]:
            problems.append("generated datum differs from the reference")
        out["problems"] = problems
    if tracer is not None:
        from tracer import layer_metrics, wrapper_overhead
        overhead_s = wrapper_overhead() * tracer.calls
        out["layers"] = layer_metrics(tracer, run_s, calibrate_s, overhead_s)
        tracer.write_spans(os.path.join(args.workdir, "spans.tsv"))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
