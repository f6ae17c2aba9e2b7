"""Bit-identity digests of the engine, the CLI artifacts and the sampler.

    python3 tools/digests.py
    python3 tools/digests.py --input 3 --only refine_fast cli_pipeline

Run from the root of a source checkout (the package is imported from
``src``, the benchmark inputs and configs from ``perfbench/workloads.py``).
For every input seed (default: 0, 1, 3 and 5; input 1 restarts once in
both engine workloads, so the default covers a restarted run) it prints:

- ``big_run`` and ``refine_fast``: the SHA-256 prefix of 10 per-cell
  ``TwoWellState`` arrays (their bytes concatenated in the order of
  ``STATE_FIELDS``) after each step, k = 0, 1, ..., and of the pickled
  ``MetricsSeries.rows``; ``grads``, ``stages`` and ``phases`` are hashed
  as the state reads them, gathered from its gradient table where the
  state stores a table row per cell, and the isosceles tag as one bool
  per cell, ``iso``, or ``iso_h > 0`` for a state that tags with an
  aspect and an axis instead, so checkouts from before and after either
  change print comparable lines;
  on a second line, one digest per ``analysis.sweep_intervals`` call of
  the run (the domain check, then the sweep of every recorded state) over
  ``dt``, both owner arrays, the overlap flag and the endpoints of the
  intervals with an owner (a gap interval, with no owner on either side,
  has no edge to take endpoints from);
- ``cli_pipeline``: the SHA-256 prefixes of ``mesh.txt`` and
  ``phases.svg`` written by ``twowell run`` with the benchmark's arguments.

``sampled`` prints the rows digest of ``sample_generations`` at the
``test_07`` config (4000 lineages, 7 generations, seed 0) and the fitted
numbers of its certificate line.  Two checkouts print equal lines exactly
when their states, rows and artifacts are equal bit for bit.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import pickle
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import workloads as wl  # noqa: E402
from twowell import analysis as an  # noqa: E402
from twowell import covering as cv  # noqa: E402
from twowell import engine as en  # noqa: E402
from twowell import inapprox as ia  # noqa: E402

STATE_FIELDS = ("verts", "grads", "offs", "stages", "phases", "frozen",
                "ids", "parents", "iso", "prev_index")
SAMPLED = dict(n_samples=4000, generations=7, seed=0)


def _hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _column(st, name: str):
    if name == "iso" and not hasattr(st, "iso"):
        return st.iso_h > 0
    return getattr(st, name)


def state_digest(st) -> str:
    return _hex(b"".join(_column(st, f).tobytes() for f in STATE_FIELDS))


def rows_digest(rows) -> str:
    return _hex(pickle.dumps(rows))


def sweep_digest(sw) -> str:
    owned = (sw.left_owner >= 0) | (sw.right_owner >= 0)
    return _hex(b"".join((sw.dt.tobytes(), sw.left_owner.tobytes(),
                          sw.right_owner.tobytes(),
                          bytes([sw.overlap_error]),
                          sw.point_lo[owned].tobytes(),
                          sw.point_hi[owned].tobytes())))


def engine_digests(name: str, seed: int):
    """(per-step state digests, per-call sweep digests, rows digest) of
    one benchmark engine run; a restarted attempt's are dropped with it."""
    steps, sweeps = [], []
    init, step = en.Engine.__init__, en.Engine.step
    sweep = an.sweep_intervals

    def traced_init(self, *args, **kwargs):
        steps.clear()
        sweeps.clear()
        init(self, *args, **kwargs)
        steps.append(state_digest(self.state))

    def traced_step(self):
        row = step(self)
        steps.append(state_digest(self.state))
        return row

    def traced_sweep(*args, **kwargs):
        sw = sweep(*args, **kwargs)
        sweeps.append(sweep_digest(sw))
        return sw

    en.Engine.__init__, en.Engine.step = traced_init, traced_step
    an.sweep_intervals = traced_sweep
    try:
        eng = en.run_construction(en.unit_square_domain(),
                                  wl.make_input(name, seed), wl.DELTA,
                                  wl.engine_config(name, toy=False))
    finally:
        en.Engine.__init__, en.Engine.step = init, step
        an.sweep_intervals = sweep
    return steps, sweeps, rows_digest(eng.metrics.rows)


def cli_digests(seed: int):
    from twowell import cli
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        run, _ = wl.cli_argv(wl.make_input("cli_pipeline", seed), out,
                             toy=False)
        with open(os.devnull, "w") as null:
            saved, sys.stdout = sys.stdout, null
            try:
                rc = cli.main(run)
            finally:
                sys.stdout = saved
        if rc != 0:
            raise SystemExit(f"twowell run exited {rc}")
        digests = []
        for name in ("mesh.txt", "phases.svg"):
            with open(os.path.join(out, name), "rb") as f:
                digests.append(_hex(f.read()))
    return digests


def sampled_digest():
    """(rows digest, certificate numbers) of the test_07 series."""
    series = en.sample_generations(en.unit_square_domain(),
                                   ia.stage_representative(2, wl.DELTA),
                                   wl.DELTA, **SAMPLED)
    h = next(iter(series.meta["h_dyadic_used"]))
    growth = 3.0 * max(cv.c0_constant(h), cv.C2_UNIFORM)
    rep = an.regularity_report(series, growth_constant=growth)
    return rows_digest(series.rows), (
        f"theta0 {rep.theta0_measured:.4f}, s {rep.s:.4f}, wsp rate "
        f"{rep.wsp_rate:.4f}, R^2 {rep.r2_wsp:.4f}, frozen max "
        f"{rep.frozen_fraction_max:.3f}, window {rep.window}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--input", type=int, nargs="+", default=[0, 1, 3, 5],
                        help="benchmark input seeds (default: 0 1 3 5)")
    parser.add_argument("--only", nargs="+",
                        choices=wl.NAMES + ("sampled",),
                        default=wl.NAMES + ("sampled",))
    args = parser.parse_args(argv)
    for seed in args.input:
        for name in ("big_run", "refine_fast"):
            if name in args.only:
                steps, sweeps, rows = engine_digests(name, seed)
                print(f"{name} input {seed}: rows {rows} states "
                      + " ".join(steps), flush=True)
                print(f"{name} input {seed}: sweeps " + " ".join(sweeps),
                      flush=True)
        if "cli_pipeline" in args.only:
            mesh, svg = cli_digests(seed)
            print(f"cli_pipeline input {seed}: mesh.txt {mesh} "
                  f"phases.svg {svg}", flush=True)
    if "sampled" in args.only:
        rows, line = sampled_digest()
        print(f"sampled test_07: rows {rows} ({line})", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
