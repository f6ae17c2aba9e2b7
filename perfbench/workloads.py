"""The three workloads: inputs from the seed, the timed section, the check.

Each workload drives only public entry points (``engine.Engine``,
``engine.run_construction``, ``cli.main``).  The workload seed selects one
of ``N_INPUTS`` recorded inputs (seed mod ``N_INPUTS``); the references in
``perfbench/refs`` hold the outputs of each input as recorded from the code
the benchmark was defined on.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import shutil
import time
from typing import Dict, List, Tuple

import numpy as np

NAMES = ("big_run", "refine_fast", "cli_pipeline")
DELTA = 0.5
N_INPUTS = 10
TOY_BUDGET = 20_000     # small enough for a self-test, large enough not to stall
DIM_PMAX = "8"
# boundary laminates of the CLI workload.  Every datum in this box takes the
# stage-0 plan at aspect 1/128.  Wider mu ranges mix in data taking 1/64 or
# 1/256, and those do a different amount of work: at 1/256 a repetition runs
# about 15% longer and peaks 22% higher in RSS.  Seeds would then spread
# run_s by 20% through the input alone.
CLI_MU = (0.25, 0.30)
CLI_LAMBDA = (0.1, 0.3)

# floats in metric rows and artifacts agree to this relative tolerance
# (ulp level for sums over 10^6 cells); residual fields at float noise
# level agree to an absolute tolerance far below the engine's own limits
REL_TOL = 1e-12
RESIDUAL_FIELDS = ("partition_err", "continuity_err", "trace_err",
                   "stray_boundary_len")
RESIDUAL_ABS_TOL = 1e-12


def input_seed(seed: int) -> int:
    return seed % N_INPUTS


def make_input(name: str, seed: int):
    """The datum: a stage-2 matrix, or a boundary string for the CLI."""
    rng = np.random.default_rng(input_seed(seed))
    if name == "cli_pipeline":
        mu = float(rng.uniform(*CLI_MU))
        lam = float(rng.uniform(*CLI_LAMBDA))
        return f"branch=1,mu={mu!r},lambda={lam!r}"
    from twowell import inapprox as ia
    return ia.sample_stage(2, DELTA, rng)


def datum_record(datum) -> object:
    return datum if isinstance(datum, str) else datum.tolist()


def engine_config(name: str, toy: bool):
    from twowell import engine as en
    budget = TOY_BUDGET if toy else 10 ** 6
    if name == "big_run":
        return en.EngineConfig(cell_budget=budget, max_steps=6,
                               checks="full", track_bv=True)
    if name == "refine_fast":
        return en.EngineConfig(cell_budget=budget, max_steps=8,
                               checks="fast", track_bv=False)
    from twowell import cli
    rc = cli.RunConfig()
    return en.EngineConfig(cell_budget=TOY_BUDGET if toy else rc.budget,
                           max_steps=rc.steps, min_area_rel=rc.min_area,
                           h0=rc.h0, checks=rc.checks, track_bv=True)


def setup(name: str, datum, toy: bool):
    """First Engine construction: h0 calibration, domain sweep, row 0."""
    from twowell import engine as en
    if name == "cli_pipeline":
        from twowell import cli
        M = cli.parse_boundary(datum, DELTA)
    else:
        M = datum
    return en.Engine(en.unit_square_domain(), M, DELTA,
                     engine_config(name, toy))


def cli_argv(datum: str, outdir: str, toy: bool) -> Tuple[List[str], List[str]]:
    run = ["run", "--boundary", datum, "--outdir", outdir]
    if toy:
        run += ["--budget", str(TOY_BUDGET)]
    dim = ["dim", os.path.join(outdir, "mesh.txt"), "--pmax", DIM_PMAX]
    return run, dim


def run_timed(name: str, datum, toy: bool, workdir: str):
    """Run the timed section; returns (start, end, raw result)."""
    if name == "cli_pipeline":
        from twowell import cli
        outdir = os.path.join(workdir, "cli_out")
        shutil.rmtree(outdir, ignore_errors=True)
        run_args, dim_args = cli_argv(datum, outdir, toy)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            t0 = time.perf_counter()
            rc_run = cli.main(run_args)
            rc_dim = cli.main(dim_args) if rc_run == 0 else None
            t1 = time.perf_counter()
        return t0, t1, (outdir, rc_run, rc_dim, buf.getvalue())
    from twowell import engine as en
    cfg = engine_config(name, toy)
    t0 = time.perf_counter()
    eng = en.run_construction(en.unit_square_domain(), datum, DELTA, cfg)
    t1 = time.perf_counter()
    return t0, t1, eng


# ---------------------------------------------------------------------------
# summaries (what the check compares) and the check itself
# ---------------------------------------------------------------------------

def _plain(v):
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    if isinstance(v, (int, np.integer)):
        return int(v)
    return float(v)


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _parse_value(text: str):
    """int, float or string, as written by the CLI."""
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text


def _parse_tsv(path: str) -> List[List[object]]:
    with open(path) as f:
        return [[_parse_value(x) for x in line.rstrip("\n").split("\t")]
                for line in f if not line.startswith("#")]


def _parse_report(path: str) -> Dict[str, object]:
    out = {}
    with open(path) as f:
        for line in f:
            key, _, val = line.rstrip("\n").partition(": ")
            out[key] = _parse_value(val)
    return out


def _parse_dim(text: str) -> Dict[str, object]:
    lines = text.splitlines()
    head = lines.index("eps\tN\tm_d")
    rows, slope = [], None
    for line in lines[head + 1:]:
        if line.startswith("slope: "):
            slope = float(line[len("slope: "):])
            break
        rows.append([_parse_value(x) for x in line.split("\t")])
    if slope is None:
        raise ValueError("dim output has no slope line")
    return {"rows": rows, "slope": slope}


def summarize(name: str, raw) -> Dict[str, object]:
    """Outputs of one run in the form the references store."""
    if name != "cli_pipeline":
        eng = raw
        return {"rows": [{k: _plain(v) for k, v in row.items()}
                         for row in eng.metrics.rows],
                "k": int(eng.state.k), "stalled": bool(eng.stalled),
                "restarts": int(eng.restarts), "n_cells": int(eng.state.n)}
    outdir, rc_run, rc_dim, stdout = raw
    out = {"rc_run": rc_run, "rc_dim": rc_dim}
    if rc_run != 0 or rc_dim != 0:
        return out
    p = lambda f: os.path.join(outdir, f)  # noqa: E731
    report = _parse_report(p("report.txt"))
    out.update({
        "mesh_sha256": _sha256(p("mesh.txt")),
        "svg_sha256": _sha256(p("phases.svg")),
        "metrics": _parse_tsv(p("metrics.tsv")),
        "report": report,
        "dim": _parse_dim(stdout),
        "n_cells": int(report["n_cells"]),
        "bytes": {f: os.path.getsize(p(f)) for f in
                  ("mesh.txt", "phases.svg", "metrics.tsv", "report.txt")},
    })
    return out


def _close(a, b, abs_tol: float = 0.0) -> bool:
    if isinstance(a, float) and isinstance(b, float) \
            and math.isnan(a) and math.isnan(b):
        return True
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=abs_tol)


def _same(a, b, where: str, problems: List[str], abs_tol: float = 0.0):
    """Floats within REL_TOL (NaN equals NaN), everything else exactly."""
    numbers = all(isinstance(x, (int, float)) and not isinstance(x, bool)
                  for x in (a, b))
    if numbers and (isinstance(a, float) or isinstance(b, float)):
        ok = _close(float(a), float(b), abs_tol)
    else:
        ok = a == b
    if not ok:
        problems.append(f"{where}: got {a!r}, reference {b!r}")


def _same_table(got, ref, where: str, problems: List[str]):
    if len(got) != len(ref):
        problems.append(f"{where}: {len(got)} rows, reference {len(ref)}")
        return
    for i, (g, r) in enumerate(zip(got, ref)):
        if len(g) != len(r):
            problems.append(f"{where} row {i}: {len(g)} fields, "
                            f"reference {len(r)}")
            continue
        for j, (a, b) in enumerate(zip(g, r)):
            _same(a, b, f"{where}[{i}][{j}]", problems)


def check(name: str, summary: Dict[str, object],
          ref: Dict[str, object]) -> List[str]:
    """Mismatches between one run's outputs and its reference (empty = ok)."""
    problems: List[str] = []
    if name != "cli_pipeline":
        for key in ("k", "stalled", "restarts", "n_cells"):
            _same(summary[key], ref[key], key, problems)
        if summary["stalled"]:
            problems.append("the run stalled at the cell budget")
        rows, ref_rows = summary["rows"], ref["rows"]
        if len(rows) != len(ref_rows):
            problems.append(f"{len(rows)} metric rows, reference "
                            f"{len(ref_rows)}")
        for i, (row, rrow) in enumerate(zip(rows, ref_rows)):
            if set(row) != set(rrow):
                problems.append(f"row {i}: fields {sorted(row)} differ from "
                                f"reference {sorted(rrow)}")
                continue
            for key in rrow:
                tol = RESIDUAL_ABS_TOL if key in RESIDUAL_FIELDS else 0.0
                _same(row[key], rrow[key], f"row {i} {key}", problems, tol)
        return problems
    for key in ("rc_run", "rc_dim"):
        _same(summary[key], 0, key, problems)
    if problems:
        return problems
    for key in ("mesh_sha256", "svg_sha256", "n_cells"):
        _same(summary[key], ref[key], key, problems)
    _same_table(summary["metrics"], ref["metrics"], "metrics.tsv", problems)
    rep, ref_rep = summary["report"], ref["report"]
    if set(rep) != set(ref_rep):
        problems.append(f"report.txt keys {sorted(rep)} differ from "
                        f"reference {sorted(ref_rep)}")
    for key in set(rep) & set(ref_rep):
        _same(rep[key], ref_rep[key], f"report.txt {key}", problems)
    _same_table(summary["dim"]["rows"], ref["dim"]["rows"], "dim table",
                problems)
    _same(summary["dim"]["slope"], ref["dim"]["slope"], "dim slope", problems)
    return problems
