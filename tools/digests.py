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
  state stores a table row per cell, so checkouts from before and after
  that change print comparable lines;
  on a second line, one digest per ``analysis.sweep_totals`` call of the
  run (the per-line totals of every recorded state; none in a run that
  neither tracks BV nor runs full checks) over the line keys, every term
  column the totals hold (``bv_chi``, ``bv_grad``, ``continuity``,
  ``trace``, ``stray``) and the overlap flag (one byte, whether any line
  holds an overlap);
  on a third line, one 8-digit digest per metric-row column (``name=``
  digest, columns in the order of the first row that holds them), so a
  change that moves the rows names the columns it moved;
- ``rotated``: the same three lines for a run off the axis-aligned
  square: ``big_run``'s datum and budget on the unit square rotated by
  ``ROTATION`` about the origin, with fast checks and BV on (the CLI's
  mode);
- ``cli_pipeline``: the SHA-256 prefixes of ``mesh.txt``, ``phases.svg``,
  ``metrics.tsv`` and ``report.txt`` written by ``twowell run`` with the
  benchmark's arguments, and of the standard output of the benchmark's
  ``twowell dim <mesh> --pmax 8`` on that mesh (its box table and slope).

``sampled`` prints the rows digest of ``lineage.sample_generations`` at
the ``test_07`` config (4000 lineages, 7 generations, seed 0) and the
fitted numbers of its certificate line.  ``plans`` prints three digests of the
replacement plans: the calibrated aspect table (``calibrate_h0`` with a
cold cache at the deltas of ``PLAN_DELTAS`` and both fraction sets, an
aspect or the class and message of the refusal), the ``PLAN_FIELDS`` of
``replace_dyadic_stage(stage_representative(k), DELTA, h0)`` for
k = 2..16 at the engine's calibrated h0, and those of
``replace_low_stage`` of the ten ``cli_pipeline`` boundary data.  Two
checkouts print equal lines exactly when their states, rows, artifacts
and plans are equal bit for bit.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import pickle
import sys
import tempfile
from dataclasses import replace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import numpy as np  # noqa: E402
import workloads as wl  # noqa: E402
from twowell import analysis as an  # noqa: E402
from twowell import cell as cl  # noqa: E402
from twowell import covering as cv  # noqa: E402
from twowell import engine as en  # noqa: E402
from twowell import inapprox as ia  # noqa: E402
from twowell import lineage as lin  # noqa: E402
from twowell.errors import TwoWellError  # noqa: E402

PLAN_DELTAS = (0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 6.0, 8.0, 10.0,
               12.0, 16.0, 32.0)
CORRIDOR = (0.25, 0.5, 0.75)
STATE_FIELDS = ("verts", "grads", "offs", "stages", "phases", "frozen",
                "ids", "parents", "iso", "prev_index")
# the RefinePlan fields that plan_digest hashes, in this order
PLAN_FIELDS = ("M", "stage", "h", "S", "unit_verts", "grads", "bvec",
               "stages", "phases", "areas_unit", "parent_phase",
               "flip_area_unit", "grad_l1_unit", "wsup_unit", "w_l1_unit",
               "perim_unit")
SAMPLED = dict(n_samples=4000, generations=7, seed=0)
ROTATION = 0.3          # radians, the turn of the rotated run's square
ENGINE_RUNS = ("big_run", "refine_fast", "rotated")


def _hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def state_digest(st) -> str:
    return _hex(b"".join(getattr(st, f).tobytes() for f in STATE_FIELDS))


def rows_digest(rows) -> str:
    return _hex(pickle.dumps(rows))


def column_digests(rows) -> dict:
    """{column: 8-digit digest of its values down the rows}, a row that
    lacks the column reading None."""
    names = list(dict.fromkeys(name for row in rows for name in row))
    return {name: _hex(pickle.dumps([row.get(name) for row in rows]))[:8]
            for name in names}


def totals_digest(tot) -> str:
    terms = tuple(getattr(tot, t).tobytes() for t in an.TERM_COLUMNS
                  if getattr(tot, t) is not None)
    return _hex(b"".join((tot.line.tobytes(),) + terms
                         + (bytes([tot.overlap_error]),)))


def engine_run(name: str, seed: int):
    """(domain, datum, config) of the engine run name (ENGINE_RUNS)."""
    if name != "rotated":
        return (en.unit_square_domain(), wl.make_input(name, seed),
                wl.engine_config(name, toy=False))
    c, s = np.cos(ROTATION), np.sin(ROTATION)
    return (en.unit_square_domain() @ np.array([[c, s], [-s, c]]),
            wl.make_input("big_run", seed),
            replace(wl.engine_config("big_run", toy=False), checks="fast"))


def engine_digests(name: str, seed: int):
    """(per-step state digests, per-call totals digests, metric rows) of
    one engine run (engine_run); a restarted attempt's are dropped with
    it."""
    steps, sweeps = [], []
    init, step = en.Engine.__init__, en.Engine.step
    sweep = an.sweep_totals

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
        tot = sweep(*args, **kwargs)
        sweeps.append(totals_digest(tot))
        return tot

    en.Engine.__init__, en.Engine.step = traced_init, traced_step
    an.sweep_totals = traced_sweep
    try:
        domain, datum, config = engine_run(name, seed)
        eng = en.run_construction(domain, datum, wl.DELTA, config)
    finally:
        en.Engine.__init__, en.Engine.step = init, step
        an.sweep_totals = sweep
    return steps, sweeps, eng.metrics.rows


CLI_ARTIFACTS = ("mesh.txt", "phases.svg", "metrics.tsv", "report.txt")


def cli_digests(seed: int):
    """{name: digest} of the four artifacts of the benchmark's twowell run
    and, under "dim", of the stdout of its twowell dim."""
    from twowell import cli
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        run, dim = wl.cli_argv(wl.make_input("cli_pipeline", seed), out,
                               toy=False)
        stdout = {}
        for name, argv in (("run", run), ("dim", dim)):
            stdout[name] = io.StringIO()
            with contextlib.redirect_stdout(stdout[name]):
                rc = cli.main(argv)
            if rc != 0:
                raise SystemExit(f"twowell {name} exited {rc}")
        digests = {}
        for name in CLI_ARTIFACTS:
            with open(os.path.join(out, name), "rb") as f:
                digests[name] = _hex(f.read())
    digests["dim"] = _hex(stdout["dim"].getvalue().encode())
    return digests


def sampled_digest():
    """(rows digest, certificate numbers) of the test_07 series."""
    series = lin.sample_generations(en.unit_square_domain(),
                                    ia.stage_representative(2, wl.DELTA),
                                    wl.DELTA, **SAMPLED)
    h = next(iter(series.meta["h_dyadic_used"]))
    growth = 3.0 * max(cv.c0_constant(h), cv.C2_UNIFORM)
    rep = an.regularity_report(series, growth_constant=growth)
    return rows_digest(series.rows), (
        f"theta0 {rep.theta0_measured:.4f}, s {rep.s:.4f}, wsp rate "
        f"{rep.wsp_rate:.4f}, R^2 {rep.r2_wsp:.4f}, frozen max "
        f"{rep.frozen_fraction_max:.3f}, window {rep.window}")


def plan_digest(plan) -> str:
    return _hex(b"".join(
        v.tobytes() if isinstance(v, np.ndarray) else repr(v).encode()
        for v in (getattr(plan, f) for f in PLAN_FIELDS)))


def plans_digests():
    """(aspect table, dyadic plans, low-stage plans) digests."""
    from twowell import cli
    table = []
    for fracs in (CORRIDOR, (0.02, 0.5, 0.98)):
        for delta in PLAN_DELTAS:
            cl._H0_CACHE.clear()
            try:
                table.append(repr(cl.calibrate_h0(delta, fracs=fracs)))
            except TwoWellError as err:
                table.append(f"{type(err).__name__}: {err}")
    cl._H0_CACHE.clear()
    h0 = cl.calibrate_h0(wl.DELTA, fracs=CORRIDOR)
    dyadic = [plan_digest(cl.replace_dyadic_stage(
        ia.stage_representative(k, wl.DELTA), wl.DELTA, h0))
        for k in range(2, 17)]
    low = [plan_digest(cl.replace_low_stage(cli.parse_boundary(
        wl.make_input("cli_pipeline", seed), wl.DELTA), wl.DELTA))
        for seed in range(wl.N_INPUTS)]
    return (_hex("\n".join(table).encode()), _hex(" ".join(dyadic).encode()),
            _hex(" ".join(low).encode()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--input", type=int, nargs="+", default=[0, 1, 3, 5],
                        help="benchmark input seeds (default: 0 1 3 5)")
    parser.add_argument("--only", nargs="+",
                        choices=wl.NAMES + ("rotated", "sampled", "plans"),
                        default=wl.NAMES + ("rotated", "sampled", "plans"))
    args = parser.parse_args(argv)
    for seed in args.input:
        for name in ENGINE_RUNS:
            if name in args.only:
                steps, sweeps, rows = engine_digests(name, seed)
                print(f"{name} input {seed}: rows {rows_digest(rows)} "
                      "states " + " ".join(steps), flush=True)
                print(f"{name} input {seed}: sweeps " + " ".join(sweeps),
                      flush=True)
                print(f"{name} input {seed}: columns " + " ".join(
                    f"{c}={d}" for c, d in column_digests(rows).items()),
                      flush=True)
        if "cli_pipeline" in args.only:
            digests = cli_digests(seed)
            print(f"cli_pipeline input {seed}: " + " ".join(
                f"{name} {digests[name]}"
                for name in CLI_ARTIFACTS + ("dim",)), flush=True)
    if "plans" in args.only:
        table, dyadic, low = plans_digests()
        print(f"plans: table {table} dyadic {dyadic} low {low}", flush=True)
    if "sampled" in args.only:
        rows, line = sampled_digest()
        print(f"sampled test_07: rows {rows} ({line})", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
