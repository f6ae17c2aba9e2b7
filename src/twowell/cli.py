"""Command line front end: construction runs, invariant suites, box counting.

Subcommands
    run     build a construction and emit metrics/mesh/plot/report files
    verify  run one (or all) of the module invariant suites with fixed seeds
    dim     box-counting slope of the phase interface of a mesh dump

Every output file embeds the config hash and seed, outputs are plain
text with 17-significant-digit reals, and a rerun with the same config
is byte-identical.  The mesh and SVG writers format each distinct real
once and gather the strings per cell; the bytes are those of formatting
every value on its own.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from . import analysis as an
from . import cell as cl
from . import covering as cv
from . import engine as en
from . import inapprox as ia
from . import matgeo as mg
from . import onewell as ow
from .errors import TwoWellError

METRIC_COLUMNS = (("k", "k"), ("l1_chi", "l1_chi_diff"),
                  ("l1_grad", "l1_grad_diff"), ("bv_chi", "bv_chi"),
                  ("bv_grad", "bv_grad"), ("perim_sum", "perimeter_sum"),
                  ("frozen", "frozen_measure"), ("mean_dist", "mean_dist"))


def _fmt(x) -> str:
    return "%.17g" % float(x)


@dataclass
class RunConfig:
    delta: float = 0.5
    boundary: str = "branch=1,mu=0.3,lambda=0.2"
    domain: str = "unit-square"
    steps: int = 4
    budget: int = 100_000
    min_area: float = 1e-12
    seed: int = 0
    h0: Optional[float] = None
    checks: str = "fast"
    outdir: str = "."

    def lines(self) -> List[str]:
        items = [("delta", _fmt(self.delta)), ("boundary", self.boundary),
                 ("domain", self.domain), ("steps", str(self.steps)),
                 ("budget", str(self.budget)),
                 ("min_area", _fmt(self.min_area)),
                 ("seed", str(self.seed)),
                 ("h0", "auto" if self.h0 is None else _fmt(self.h0)),
                 ("checks", self.checks)]
        return [f"{k} = {v}" for k, v in items]

    def digest(self) -> str:
        return hashlib.sha256(
            "\n".join(self.lines()).encode()).hexdigest()[:16]


def load_config_file(path: str) -> dict:
    """Flat key = value lines; # starts a comment."""
    out = {}
    with open(path) as f:
        for raw in f:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {raw.rstrip()}")
            k, v = line.split("=", 1)
            out[k.strip()] = v.strip()
    return out


def parse_boundary(text: str, delta: float) -> np.ndarray:
    """Either four matrix entries a,b,c,d or branch=i,mu=x,lambda=y."""
    text = text.strip()
    if "=" in text:
        parts = {}
        for kv in text.split(","):
            if "=" not in kv:
                raise ValueError(f"bad boundary field {kv!r}")
            k, v = kv.split("=", 1)
            parts[k.strip()] = v.strip()
        if set(parts) != {"branch", "mu", "lambda"}:
            raise ValueError(
                "boundary triple needs branch=, mu=, lambda=, got "
                f"{sorted(parts)}")
        return mg.laminate_matrix(int(parts["branch"]), float(parts["mu"]),
                                  float(parts["lambda"]), delta)
    vals = [float(x) for x in text.split(",")]
    if len(vals) != 4:
        raise ValueError("matrix boundary needs four entries m11,m12,m21,m22")
    return np.array(vals, dtype=float).reshape(2, 2)


def load_domain(spec: str) -> np.ndarray:
    if spec == "unit-square":
        return en.unit_square_domain()
    tris = np.loadtxt(spec, ndmin=2)
    if tris.size == 0 or tris.shape[1] != 6:
        raise ValueError(f"domain file {spec} needs six reals per line")
    return tris.reshape(-1, 3, 2)


# ---------------------------------------------------------------------------
# output writers
# ---------------------------------------------------------------------------

def _provenance(cfg: RunConfig) -> List[str]:
    return [f"# config {cfg.digest()}", f"# seed {cfg.seed}",
            f"# delta {_fmt(cfg.delta)}"]


def _strings(values: np.ndarray, fmt: str) -> np.ndarray:
    """fmt % v for every float64 v of values, as an object array of the
    same shape.  Each distinct bit pattern is formatted once (bits, not
    float equality: -0.0 prints "-0" and 0.0 prints "0")."""
    bits = np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)
    keys, at = np.unique(bits.ravel(), return_inverse=True)
    text = np.array([fmt % v for v in keys.view(np.float64).tolist()],
                    dtype=object)
    return text[at].reshape(values.shape)


def _write_rows(f, head: List[str], fmt: str, columns, tail=()):
    """The head lines, one line fmt % row per row of the equal-length
    columns (formatted a block of rows at a time), then the tail lines."""
    block = 1 << 14     # bounds the formatted text held at once
    f.write("".join(line + "\n" for line in head))
    for a in range(0, len(columns[0]), block):
        f.write("".join(fmt % row for row in zip(
            *(c[a:a + block].tolist() for c in columns))))
    f.write("".join(line + "\n" for line in tail))


def write_metrics(path: str, metrics: an.MetricsSeries, cfg: RunConfig):
    head = _provenance(cfg) + ["\t".join(name for name, _ in METRIC_COLUMNS)]
    fmt = "\t".join(["%d"] + ["%.17g"] * (len(METRIC_COLUMNS) - 1)) + "\n"
    with open(path, "w") as f:
        _write_rows(f, head, fmt, [np.array([row.get(key, np.nan)
                                             for row in metrics.rows])
                                   for _, key in METRIC_COLUMNS])


def write_mesh(path: str, state, cfg: RunConfig):
    head = _provenance(cfg) + [
        "# columns: id parent stage frozen v1x v1y v2x v2y v3x v3y"
        " g11 g12 g21 g22 o1 o2"]
    # a gradient is formatted once per table row and gathered per cell
    # (as references to the row's string, not as copies of it)
    grads = np.array(["%.17g %.17g %.17g %.17g" % tuple(G)
                      for G in state.table.grads.reshape(-1, 4).tolist()],
                     dtype=object)
    reals = _strings(np.concatenate([state.verts.reshape(-1, 6),
                                     state.offs], axis=1), "%.17g")
    with open(path, "w") as f:
        _write_rows(f, head, "%d %d %d %d " + " ".join(["%s"] * 9) + "\n",
                    [state.ids, state.parents, state.stages, state.frozen,
                     *reals[:, :6].T, grads[state.gid], *reals[:, 6:].T])


PHASE_FILL = {0: "#b9b9b9", 1: "#3b6fb8", 2: "#d97130"}


def write_phase_svg(path: str, state, cfg: RunConfig):
    """One filled polygon per cell; fill by phase, border tinted by stage."""
    verts = state.verts
    lo = verts.reshape(-1, 2).min(axis=0)
    hi = verts.reshape(-1, 2).max(axis=0)
    span = hi - lo
    stroke = 0.0015 * float(span.max())
    smax = max(int(state.stages.max()), 1)
    head = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="720" '
        f'height="{int(round(720 * span[1] / span[0]))}" '
        f'viewBox="{_g(lo[0])} {_g(lo[1])} {_g(span[0])} {_g(span[1])}">',
        f'<desc>config {cfg.digest()} seed {cfg.seed}</desc>',
        f'<g transform="translate(0,{_g(lo[1] + hi[1])}) scale(1,-1)">',
    ]
    phases, phase_at = np.unique(state.phases, return_inverse=True)
    stages, stage_at = np.unique(state.stages, return_inverse=True)
    fill = np.array([PHASE_FILL.get(p, "#b9b9b9") for p in phases.tolist()])
    tint = np.array(["#" + "%02x" % (32 + int(round(176 * k / smax))) * 3
                     for k in stages.tolist()])
    polygon = ('<polygon points="%s,%s %s,%s %s,%s" fill="%s" '
               f'stroke="%s" stroke-width="{_g(stroke)}"/>\n')
    with open(path, "w") as f:
        _write_rows(f, head, polygon,
                    [*_strings(verts.reshape(-1, 6), "%.8g").T,
                     fill[phase_at], tint[stage_at]],
                    ["</g>", "</svg>"])


def _g(x) -> str:
    return "%.8g" % float(x)


def write_report(path: str, eng, cfg: RunConfig):
    growth = 3.0 * max(cv.c0_constant(eng.h0), cv.C2_UNIFORM)
    rows = eng.metrics.rows
    pairs = [("config", cfg.digest()), ("seed", str(cfg.seed)),
             ("delta", _fmt(cfg.delta)), ("steps", str(rows[-1]["k"])),
             ("n_cells", str(rows[-1]["n_cells"])),
             ("domain_area", _fmt(eng.domain_area)),
             ("h0", _fmt(eng.h0)), ("restarts", str(eng.restarts)),
             ("stalled", str(eng.stalled).lower()),
             ("growth_constant", _fmt(growth))]
    nan = float("nan")
    try:
        rr = an.regularity_report(eng.metrics, growth_constant=growth)
        fit_note = "ok"
    except TwoWellError as err:
        rr = an.RegularityReport(nan, nan, nan, nan, nan, nan,
                                 an.SOBOLEV_P, nan, nan, (0, 0), nan, nan,
                                 False)
        fit_note = f"unavailable ({err})"
    pairs += [("regularity_fit", fit_note),
              ("c_tilde", _fmt(rr.c_tilde)),
              ("rho_bv", _fmt(rr.rho_bv)),
              ("theta0_measured", _fmt(rr.theta0_measured)),
              ("theta0_constants", _fmt(rr.theta0_constants)),
              ("alpha", _fmt(rr.alpha)), ("s", _fmt(rr.s)),
              ("p", _fmt(rr.p)), ("r2_l1", _fmt(rr.r2_l1)),
              ("r2_wsp", _fmt(rr.r2_wsp)),
              ("wsp_rate", _fmt(rr.wsp_rate)),
              ("window", f"{rr.window[0]}..{rr.window[1]}"),
              ("frozen_fraction_max", _fmt(rr.frozen_fraction_max)),
              ("window_compliant", str(rr.window_compliant).lower()),
              ("certified", str(rr.ok()).lower())]
    with open(path, "w") as f:
        f.write("\n".join(f"{k}: {v}" for k, v in pairs) + "\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _checks(value: str) -> str:
    """The config cast of checks: one of engine.CHECKS."""
    if value not in en.CHECKS:
        raise ValueError(value)
    return value


def _positive_int(value: str) -> int:
    """The argparse type of a count: an integer >= 1."""
    n = int(value)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def cmd_run(args, parser) -> int:
    overrides = {}
    if args.config:
        try:
            overrides = load_config_file(args.config)
        except OSError as err:
            print(f"error: cannot read config: {err}", file=sys.stderr)
            return 1
        except ValueError as err:
            parser.error(str(err))
    cfg = RunConfig()
    casts = {"delta": float, "boundary": str, "domain": str, "steps": int,
             "budget": int, "min_area": float, "seed": int,
             "h0": lambda v: None if v == "auto" else float(v),
             "checks": _checks, "outdir": str}
    for key, val in overrides.items():
        if key not in casts:
            parser.error(f"unknown config key {key!r}")
        try:
            setattr(cfg, key, casts[key](val))
        except ValueError:
            parser.error(f"bad value for config key {key!r}: {val!r}")
    for key in casts:
        flag = getattr(args, key, None)
        if flag is not None:
            setattr(cfg, key, flag)
    try:
        M = parse_boundary(cfg.boundary, cfg.delta)
    except (ValueError, TwoWellError) as err:
        parser.error(f"bad boundary: {err}")
    try:
        domain = load_domain(cfg.domain)
    except (OSError, ValueError) as err:
        print(f"error: cannot read domain: {err}", file=sys.stderr)
        return 1
    os.makedirs(cfg.outdir, exist_ok=True)
    ecfg = en.EngineConfig(cell_budget=cfg.budget, max_steps=cfg.steps,
                           min_area_rel=cfg.min_area, h0=cfg.h0,
                           checks=cfg.checks, track_bv=True)
    try:
        eng = en.run_construction(domain, M, cfg.delta, config=ecfg)
    except TwoWellError as err:
        print(f"error: construction failed: {err}", file=sys.stderr)
        return 1
    paths = {}
    paths["plot"] = os.path.join(cfg.outdir, "phases.svg")
    write_phase_svg(paths["plot"], eng.state, cfg)
    if cfg.steps > 0:
        paths["metrics"] = os.path.join(cfg.outdir, "metrics.tsv")
        write_metrics(paths["metrics"], eng.metrics, cfg)
        paths["mesh"] = os.path.join(cfg.outdir, "mesh.txt")
        write_mesh(paths["mesh"], eng.state, cfg)
        paths["report"] = os.path.join(cfg.outdir, "report.txt")
        write_report(paths["report"], eng, cfg)
    last = eng.metrics.rows[-1]
    print(f"run complete: k={last['k']} cells={last['n_cells']} "
          f"config={cfg.digest()}")
    for kind in sorted(paths):
        print(f"wrote {paths[kind]}")
    return 0


SUITES = ("matgeo", "inapprox", "cell", "covering", "onewell")


def _run_suite(name: str, delta: float, samples: Optional[int]):
    """Returns (ok, detail string) for one invariant suite; samples None
    takes the suite's default count."""
    def count(default):
        return default if samples is None else samples
    if name == "matgeo":
        res = mg.verify_identities(delta, samples=count(10_000), seed=0)
        worst = max(res.values())
        return worst < 1e-10, f"max_residual={worst:.3e}"
    if name == "inapprox":
        rep = ia.verify_in_approximation(delta, samples=count(2_000))
        return rep.ok, (f"failures={rep.failures} "
                        f"dist_constant={rep.dist_constant:.6g}")
    if name == "cell":
        rep = cl.verify_cells(delta, samples=count(1_000), seed=0)
        return rep.ok, (f"failures={rep.failures} "
                        f"partition={rep.max_partition_err:.3e} "
                        f"trace={rep.max_trace_err:.3e} "
                        f"stray={rep.max_stray_len:.3e} "
                        f"det={rep.max_det_err:.3e} "
                        f"fraction={rep.max_fraction_err:.3e}")
    if name == "covering":
        rep = cv.verify_covering(delta)
        return rep.ok, (f"failures={rep.failures} cases={rep.cases} "
                        f"h0={rep.h0!r} "
                        f"partition={rep.max_partition_err:.3e} "
                        f"continuity={rep.max_continuity_err:.3e} "
                        f"trace={rep.max_trace_err:.3e} "
                        f"stray={rep.max_stray_len:.3e} "
                        f"good_fraction={rep.min_good_fraction:.4f}")
    if name == "onewell":
        rep = ow.verify_qc_bounds(delta, samples=count(100_000), seed=0)
        return rep.ok, (f"violations={rep.violations} "
                        f"laminate_failures={rep.laminate_failures} "
                        f"sup_witness={rep.sup_witness:.9g}")
    raise ValueError(name)


def cmd_verify(args, parser) -> int:
    names = SUITES if args.suite == "all" else (args.suite,)
    overall = True
    for name in names:
        try:
            ok, detail = _run_suite(name, args.delta, args.samples)
        except TwoWellError as err:
            print(f"error: {err}", file=sys.stderr)
            return 1
        overall = overall and ok
        print(f"{name}\t{'pass' if ok else 'fail'}\t{detail}")
    print(f"verify\t{'pass' if overall else 'fail'}\tdelta={_fmt(args.delta)}")
    return 0 if overall else 1


def read_mesh(path: str):
    """Inverse of write_mesh: (verts, grads, offs, stages, delta?); delta
    comes from a "# delta" line above the first cell."""
    delta = None
    with open(path) as f:
        for raw in f:
            line = raw.strip()
            if line and not line.startswith("#"):
                break
            parts = line[1:].split()
            if len(parts) == 2 and parts[0] == "delta":
                delta = float(parts[1])
        else:
            raise ValueError("mesh file has no cells")
    data = np.loadtxt(path, ndmin=2)
    if data.shape[1] != 16:
        raise ValueError(f"mesh line needs 16 fields, got {data.shape[1]}")
    return (data[:, 4:10].reshape(-1, 3, 2), data[:, 10:14].reshape(-1, 2, 2),
            data[:, 14:16], data[:, 2].astype(np.int16), delta)


def cmd_dim(args, parser) -> int:
    try:
        verts, grads, offs, stages, mesh_delta = read_mesh(args.mesh)
    except (OSError, ValueError) as err:
        print(f"error: cannot read mesh: {err}", file=sys.stderr)
        return 1
    delta = args.delta if args.delta is not None else mesh_delta
    if delta is None:
        print("error: mesh has no delta header; pass --delta",
              file=sys.stderr)
        return 1
    eps_list = [2.0 ** -p for p in range(args.pmin, args.pmax + 1)]
    try:
        segments = an.interface_segments(
            verts, mg.phases(grads, mg.make_wells(delta)))
        slope, table = an.box_dimension(segments, eps_list,
                                        d_report=args.d_report)
    except TwoWellError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print("eps\tN\tm_d")
    for eps, n_eps, m_d in table:
        print(f"{_fmt(eps)}\t{int(n_eps)}\t{_fmt(m_d)}")
    print(f"slope: {_fmt(slope)}")
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twowell",
        description="piecewise-affine constructions for the planar "
                    "two-well inclusion")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="build a construction and emit files")
    p_run.add_argument("--config", help="key = value config file")
    p_run.add_argument("--delta", type=float)
    p_run.add_argument("--boundary",
                       help="m11,m12,m21,m22 or branch=i,mu=x,lambda=y")
    p_run.add_argument("--domain", help='"unit-square" or a triangle file')
    p_run.add_argument("--steps", type=int)
    p_run.add_argument("--budget", type=int)
    p_run.add_argument("--min-area", dest="min_area", type=float)
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--h0", type=float)
    p_run.add_argument("--checks", choices=en.CHECKS)
    p_run.add_argument("--outdir")
    p_run.set_defaults(func=cmd_run)

    p_ver = sub.add_parser("verify", help="run an invariant suite")
    p_ver.add_argument("suite", choices=SUITES + ("all",))
    p_ver.add_argument("--delta", type=float, default=0.5)
    p_ver.add_argument("--samples", type=_positive_int)
    p_ver.set_defaults(func=cmd_verify)

    p_dim = sub.add_parser("dim", help="box-counting dimension of the "
                                       "interface in a mesh dump")
    p_dim.add_argument("mesh")
    p_dim.add_argument("--delta", type=float)
    p_dim.add_argument("--pmin", type=int, default=4)
    p_dim.add_argument("--pmax", type=int, default=10)
    p_dim.add_argument("--d-report", dest="d_report", type=float, default=1.0)
    p_dim.set_defaults(func=cmd_dim)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args, parser)


if __name__ == "__main__":
    sys.exit(main())
