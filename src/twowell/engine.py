"""Refinement engine driving covers until the gradient set settles.

The state is a struct-of-arrays triangulation carrying one affine map per
cell.  Every step selects refinable cells largest-first under a linear
cell-capacity ramp toward the budget, covers each with the inscribed
diamond of its replacement plan (the dyadic rule at one uniform aspect
for stages >= 2, the verify-and-shrink rule below), and appends the
children.  Cells that do not fit the capacity slice are frozen for good,
so the mesh stays within budget while the refined region keeps its
exponential stage advance.

A cell names its gradient by its row in the run's GradientTable, which
holds each distinct gradient once with its stage and phase; building a
plan appends its pieces' gradients, and a leftover keeps its parent's row.

All metrics are streamed during emission: the L1 step differences and
the displacement bounds are exact sums of per-diamond contributions
precomputed on the unit diamond, and the BV/perimeter/continuity numbers
come from one shared edge sweep per state.  That sweep re-sweeps only the
lines a step changed and carries the rest over from the previous state's.
The per-cell areas and perimeters are carried the same way: a kept cell
takes its values through prev_index, and only the children are measured.
Everything is deterministic; there is no randomness anywhere in the
pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
import math
from typing import Dict, List, NamedTuple, Optional

import numpy as np

from . import analysis as an
from . import cell as cl
from . import covering as cv
from . import inapprox as ia
from . import lineage as lin
from . import matgeo as mg
from .errors import AspectFailureError, ConstructionFailureError, \
    InvalidDomainError, InvalidParameterError, NotClassifiableError, \
    WrongEntryPointError

INTERIOR_MARGIN = 1e-8
PARTITION_TOL = 1e-10    # |total area - domain area| / domain area
CONTINUITY_TOL = 1e-9
TRACE_TOL = 1e-10
CHECKS = ("fast", "full")
# state columns a cover fills besides gid; the lineage columns are the engine's
COVER_COLUMNS = ("verts", "offs", "iso")


class GradientTable(NamedTuple):
    """Each distinct gradient of a run once, with its stage and phase;
    rows are only appended, so a state keeps the table it was built with."""
    grads: np.ndarray        # (r,2,2)
    stages: np.ndarray       # (r,) int16, ia.classify of the gradient
    phases: np.ndarray       # (r,) uint8, mg.phases of the gradient


@dataclass
class TwoWellState:
    """One triangulated affine state u(x) = grads[i] x + offs[i] on cell i.

    Cell i has the gradient of row gid[i] of table; grads, stages and
    phases gather it.  iso[i] marks a leftover in the isosceles class of
    its plan (see covering.CoverResult): it kept its parent's gradient, so
    its plan is the cached one of its parent, and the next step covers it
    with the inscribed diamond.
    """
    k: int
    verts: np.ndarray        # (n,3,2) counterclockwise
    offs: np.ndarray         # (n,2)
    gid: np.ndarray          # (n,) int32, row of the cell's gradient
    table: GradientTable
    frozen: np.ndarray       # (n,) bool
    ids: np.ndarray          # (n,) int64
    parents: np.ndarray      # (n,) int64, -1 for roots
    iso: np.ndarray          # (n,) bool, in the isosceles class of its plan
    prev_index: np.ndarray   # (n,) position of the source cell one step back

    @property
    def n(self) -> int:
        return self.verts.shape[0]

    @property
    def grads(self) -> np.ndarray:
        return self.table.grads[self.gid]

    @property
    def stages(self) -> np.ndarray:
        return self.table.stages[self.gid]

    @property
    def phases(self) -> np.ndarray:
        return self.table.phases[self.gid]

    def areas(self) -> np.ndarray:
        return cv.tri_areas(self.verts)


@dataclass
class EngineConfig:
    cell_budget: int = 10 ** 6
    max_steps: int = 6
    min_area_rel: float = 1e-12
    h0: Optional[float] = None    # None: corridor-calibrated per delta
    checks: str = "fast"          # one of CHECKS
    track_bv: bool = True
    keep_states: bool = False


def _as_domain(domain) -> np.ndarray:
    v = np.asarray(domain, dtype=float)
    if v.ndim == 2 and v.shape == (3, 2):
        v = v[None]
    if v.ndim != 3 or v.shape[1:] != (3, 2) or v.shape[0] == 0 \
            or not np.all(np.isfinite(v)):
        raise InvalidDomainError("domain must be a nonempty list of "
                                 "triangles as (n,3,2) finite reals")
    return cv._fix_ccw(v.copy())


def unit_square_domain() -> np.ndarray:
    return np.array([[[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]],
                     [[0.0, 0.0], [1.0, 1.0], [0.0, 1.0]]])


def hull_report(M: np.ndarray, delta: float) -> str:
    """Human-readable membership report for a prospective boundary datum."""
    C = mg.gram(np.asarray(M, dtype=float))
    detM = float(np.linalg.det(M))
    memb = mg.cg_membership(C, delta, margin=INTERIOR_MARGIN)
    d1, d2 = mg.face_gaps(C, delta)
    prod = float(C[0, 0] * C[1, 1] - 1.0)
    return (f"membership={memb} det={detM:.12g} face_gaps=({d1:.6g},"
            f" {d2:.6g}) lamination_gap={prod:.6g}")


class Engine:
    """Stateful driver; the constructor validates the checks setting, the
    datum, the wells and the domain.  restarts counts the retried attempts
    of run_construction that led to this engine (0 for one built
    directly)."""

    def __init__(self, domain, M, delta: float,
                 config: Optional[EngineConfig] = None, wells=None):
        self.config = config or EngineConfig()
        if self.config.checks not in CHECKS:
            raise InvalidParameterError(
                f"checks must be one of {CHECKS}, got "
                f"{self.config.checks!r}")
        self.delta = float(delta)
        self.wells = self._check_wells(wells)
        self.M = np.asarray(M, dtype=float).copy()
        self._check_datum()
        verts = _as_domain(domain)
        areas = cv.tri_areas(verts)
        if np.any(areas <= 0):
            raise InvalidDomainError("degenerate triangle in domain")
        sw = an.sweep_intervals(verts)
        if sw.overlap_error:
            raise InvalidDomainError("domain triangles overlap")
        self.domain_area = float(areas.sum())
        self.hull_segments = np.stack(
            [verts.reshape(-1, 2),
             np.roll(verts, -1, axis=1).reshape(-1, 2)], axis=1)
        n = verts.shape[0]
        self.table = GradientTable(np.empty((0, 2, 2)),
                                   np.empty(0, dtype=np.int16),
                                   np.empty(0, dtype=np.uint8))
        self._row_of: Dict[bytes, int] = {}
        self._row(self.M)                       # row 0, the datum's
        self.state = TwoWellState(
            0, verts, np.zeros((n, 2)),
            np.zeros(n, dtype=np.int32), self.table,
            np.zeros(n, dtype=bool),
            np.arange(n, dtype=np.int64),
            np.full(n, -1, dtype=np.int64),
            np.zeros(n, dtype=bool),
            np.arange(n, dtype=np.int64))
        self._next_id = n
        self.h0 = (self.config.h0 if self.config.h0 is not None
                   else cl.calibrate_h0(self.delta,
                                        fracs=(0.25, 0.5, 0.75)))
        self._plans: Dict[int, cl.RefinePlan] = {}      # by table row
        # by id of plan: the row of each piece, then the row of plan.M
        self.piece_rows: Dict[int, np.ndarray] = {}
        self.metrics = an.MetricsSeries()
        self.states: List[TwoWellState] = []
        self.h_dyadic_used: set = set()
        self.iso_fast_hits = 0
        self.restarts = 0
        self.stalled = False
        self._sweep: Optional[an.SweepAccumulator] = None
        self._areas = self._perims = np.empty(0)
        self._record(l1_chi=0.0, l1_grad=0.0, wsup=0.0, wl1=0.0,
                     refined_area=0.0, n_kept=0)

    # -- validation -------------------------------------------------------

    def _check_wells(self, wells):
        if wells is None:
            return mg.make_wells(self.delta)
        F0 = getattr(wells, "F0", None)
        ok = (isinstance(wells, mg.WellPair) and F0 is not None
              and F0.shape == (2, 2)
              and abs(F0[0, 0] - 1.0) < 1e-12 and abs(F0[1, 1] - 1.0) < 1e-12
              and abs(F0[1, 0]) < 1e-12 and F0[0, 1] > 0)
        if not ok:
            raise WrongEntryPointError(
                "the construction runs on the shear well pair "
                "SO(2)F0 u SO(2)F0^-1 with F0 = [[1,d],[0,1]]; got "
                f"{type(wells).__name__}")
        if F0[0, 1] != self.delta:
            raise WrongEntryPointError(
                f"the wells have d = {F0[0, 1]!r}, the construction runs "
                f"at delta = {self.delta!r}")
        return wells

    def _check_datum(self):
        M = self.M
        if M.shape != (2, 2) or not np.all(np.isfinite(M)):
            raise WrongEntryPointError("boundary datum must be a finite "
                                       "2x2 matrix")
        if abs(float(np.linalg.det(M)) - 1.0) > mg.PIPE_TOL \
                or mg.cg_membership(mg.gram(M), self.delta,
                                    margin=INTERIOR_MARGIN) != "interior":
            raise WrongEntryPointError(
                "boundary datum is not in the interior of the lamination "
                "hull: " + hull_report(M, self.delta))

    # -- plans ------------------------------------------------------------

    def _row(self, G: np.ndarray) -> int:
        """The table row of G, appended with its stage and phase if new."""
        key = G.tobytes()
        if key not in self._row_of:
            t = self.table
            self.table = GradientTable(
                np.concatenate([t.grads, G[None]]),
                np.append(t.stages, np.int16(ia.classify(G, self.delta))),
                np.append(t.phases, mg.phases(G[None], self.wells)))
            self._row_of[key] = len(self._row_of)
        return self._row_of[key]

    def _plan(self, row: int) -> cl.RefinePlan:
        """The plan of table row `row`; building it adds its pieces' rows."""
        plan = self._plans.get(row)
        if plan is None:
            G = self.table.grads[row]
            if self.table.stages[row] >= 2:
                plan = cl.replace_dyadic_stage(G, self.delta, self.h0)
                self.h_dyadic_used.add(plan.h)
            else:
                plan = cl.replace_low_stage(G, self.delta)
            self.piece_rows[id(plan)] = np.array(
                [self._row(g) for g in plan.grads] + [row])
            self._plans[row] = plan
        return plan

    # -- stepping ---------------------------------------------------------

    def step(self):
        if self.stalled:
            raise ConstructionFailureError("engine is stalled at the cell "
                                           "budget")
        sums = self._advance()
        if sums is not None:
            # _advance has returned, so nothing holds the previous state
            # (unless keep_states does) while its successor is recorded
            self._record(*sums)
        return self.metrics.rows[-1]

    def _advance(self):
        """Cover the selected cells of the state into the next one, which
        becomes self.state; returns the arguments of its _record, or None
        if the run stalls at the budget."""
        cfg = self.config
        st = self.state
        k = st.k + 1
        target = int(round(self._target(k)))
        areas = self._areas          # of st, from its _record
        floor = cfg.min_area_rel * self.domain_area
        # cells below the floor are not taken, so they are frozen in the
        # next state; st is recorded already and stays as recorded
        cand = np.flatnonzero(~st.frozen & (areas >= floor))
        order = cand[np.lexsort((st.ids[cand], -areas[cand]))]
        n_final = st.n
        taken: List[int] = []       # covered cells, in selection order
        counts: List[int] = []      # children of each covered cell
        # per (plan, fast path): the plan, positions in taken, the rows of
        # each generic cover
        batches: Dict[tuple, tuple] = {}
        for i in order:
            plan = self._plan(int(st.gid[i]))
            if st.iso[i]:
                count, rows = plan.n_pieces + 2, None
            else:
                rows = cv.generic_spec(st.verts[i], plan)
                count = cv.child_count(rows, plan)
            if n_final + count - 1 > target:
                if not taken:
                    if n_final + count - 1 > cfg.cell_budget:
                        # not one cover fits: the run ends at st, which
                        # stays as recorded
                        self.stalled = True
                        return None
                else:
                    break
            n_final += count - 1
            batch = batches.setdefault((id(plan), rows is None),
                                       (plan, [], []))
            batch[1].append(len(taken))
            batch[2].append(rows)
            taken.append(int(i))
            counts.append(count)
        taken_idx = np.array(taken, dtype=np.int64)
        counts = np.array(counts, dtype=np.int64)
        keep = np.ones(st.n, dtype=bool)
        keep[taken_idx] = False
        # the next state: kept cells first, frozen for good, then each
        # covered cell's children as one block, blocks in selection order;
        # a child's columns start as its parent's until its cover is laid
        kept = np.flatnonzero(keep)
        n_kept = kept.shape[0]
        src = np.concatenate([kept, np.repeat(taken_idx, counts)])
        new = TwoWellState(
            k, **{c: getattr(st, c)[src] for c in COVER_COLUMNS},
            gid=st.gid[src], table=self.table,
            frozen=np.arange(src.shape[0]) < n_kept,
            ids=np.concatenate([st.ids[kept], self._next_id
                                + np.arange(src.shape[0] - n_kept)]),
            parents=np.concatenate([st.parents[kept], st.ids[src[n_kept:]]]),
            prev_index=src)
        first = n_kept + np.cumsum(counts) - counts
        # per cover, in selection order: l1_chi, l1_grad and wl1 terms
        terms = np.zeros((len(taken) + 1, 3))
        wsup = 0.0
        for (_, iso), (plan, pos, covers) in batches.items():
            cells = taken_idx[pos]
            if iso:
                self.iso_fast_hits += len(pos)
                res = cv.cover_isosceles(st.verts[cells], plan, st.offs[cells])
            else:
                res = cv.emit_spec(covers, plan, st.offs[cells])
            at = cv.runs(first[pos], counts[pos])
            for c in COVER_COLUMNS:
                getattr(new, c)[at] = getattr(res, c)
            # piece -1 (a leftover) picks the last row, the parent's
            new.gid[at] = self.piece_rows[id(plan)][res.piece]
            r2, r3 = res.cover_sums(2), res.cover_sums(3)
            terms[np.asarray(pos) + 1] = np.stack(
                [plan.flip_area_unit * r2, plan.grad_l1_unit * r2,
                 plan.w_l1_unit * r3], axis=1)
            wsup = max(wsup, plan.wsup_unit
                       * float(res.diam_scales.max(initial=0.0)))
        # the plan builders put every piece above its parent's stage, so
        # this holds while they do; it checks what the step wrote
        low = np.flatnonzero(new.stages < st.stages[src])
        if low.size:
            raise ConstructionFailureError("stage regressed under cover of "
                                           f"cell {new.parents[low[0]]}")
        # running sums in selection order, as cover-by-cover additions
        l1_chi, l1_grad, wl1 = map(float, np.cumsum(terms, axis=0)[-1])
        self._next_id += src.shape[0] - n_kept
        self.state = new
        refined_area = float(areas[taken_idx].sum()) if len(taken) else 0.0
        return l1_chi, l1_grad, wsup, wl1, refined_area, n_kept

    def _target(self, k: int) -> float:
        cfg = self.config
        n0 = self.metrics.rows[0]["n_cells"]
        frac = min(k / cfg.max_steps, 1.0) if cfg.max_steps > 0 else 1.0
        return n0 + (cfg.cell_budget - n0) * frac

    # -- metrics and certification ----------------------------------------

    def _record(self, l1_chi, l1_grad, wsup, wl1, refined_area, n_kept: int):
        """Append the state's metric row, run its checks, keep the state
        with keep_states.  Its n_kept kept cells take their areas,
        perimeters and sweep over from the state recorded last (row 0
        keeps none) through prev_index; only its children are measured."""
        cfg = self.config
        st = self.state
        kept, children = st.prev_index[:n_kept], st.verts[n_kept:]
        areas = self._areas = np.concatenate(
            [self._areas[kept], cv.tri_areas(children)])
        perims = self._perims = np.concatenate(
            [self._perims[kept], cv.tri_perimeters(children)])
        total = float(areas.sum())
        stages = st.stages
        # per table row, gathered per cell by gid
        dists = mg.dist_to_wells_b(st.table.grads, self.wells).min(axis=1)
        weights = 2.0 ** (-0.5 * st.table.stages.astype(float))
        hist = np.bincount(stages, weights=areas)
        row = {
            "k": st.k, "n_cells": st.n,
            "n_active": int(np.count_nonzero(~st.frozen)),
            "l1_chi_diff": l1_chi, "l1_grad_diff": l1_grad,
            "wsup_max": wsup, "w_l1_bound": wl1,
            "perimeter_sum": float(perims.sum()),
            "frozen_measure": float(areas[st.frozen].sum()),
            "mean_dist": float(np.sum(areas * dists[st.gid]) / total),
            "energy": float(np.sum(areas * weights[st.gid])),
            "refined_area": refined_area,
            "domain_area": self.domain_area,
            "partition_err": abs(total - self.domain_area),
            "min_stage": int(stages.min()),
            "max_stage": int(stages.max()),
        }
        checks = cfg.checks
        sw = None
        if cfg.track_bv or checks == "full":
            prev = (None if self._sweep is None
                    else (self._sweep, st.prev_index, n_kept))
            # hold the previous state's sweep no longer than needed
            self._sweep = None
            sw = self._sweep = an.sweep_intervals(st.verts, prev)
            del prev
            row["bv_chi"] = an.bv_seminorm_cells(
                st.verts, (st.phases == 1).astype(float), sweep=sw)
            row["bv_grad"] = an.bv_seminorm(st, sweep=sw)
        if row["partition_err"] > PARTITION_TOL * self.domain_area:
            raise ConstructionFailureError(
                f"partition error {row['partition_err']:.3e} at step {st.k}")
        if checks == "full":
            if sw.overlap_error:
                raise ConstructionFailureError(f"overlapping cells at step "
                                               f"{st.k}")
            row["continuity_err"] = an.continuity_residual(
                st.verts, st.grads, st.offs, sweep=sw)
            trace, stray = an.boundary_trace_residual(
                st.verts, st.grads, st.offs, self.M, self.hull_segments,
                sweep=sw)
            row["trace_err"] = trace
            row["stray_boundary_len"] = stray
            if row["continuity_err"] > CONTINUITY_TOL:
                raise ConstructionFailureError(
                    f"continuity residual {row['continuity_err']:.3e} at "
                    f"step {st.k}")
            if trace > TRACE_TOL:
                raise ConstructionFailureError(
                    f"boundary trace residual {trace:.3e} at step {st.k}")
        self.metrics.append(row, hist)
        if cfg.keep_states:
            self.states.append(st)

    def run(self):
        while self.state.k < self.config.max_steps and not self.stalled:
            self.step()
        return self.metrics


def run_construction(domain, M, delta: float,
                     config: Optional[EngineConfig] = None,
                     wells=None) -> Engine:
    """Run to completion; on a failed uniform aspect, halve h0 and restart.

    Only AspectFailureError restarts, down the aspect ladder while
    h0 / 2 >= cell.H_FLOOR; every other failure is raised by the first
    engine.  Restarting keeps the dyadic sub-run at one aspect, as
    shrinking one cell's aspect would not.
    """
    cfg = config or EngineConfig()
    h0, restarts = cfg.h0, 0
    while True:
        eng = Engine(domain, M, delta, replace(cfg, h0=h0), wells)
        try:
            eng.run()
            eng.restarts = restarts
            return eng
        except AspectFailureError as err:
            h0, restarts = eng.h0 * 0.5, restarts + 1
            if h0 < cl.H_FLOOR:
                raise ConstructionFailureError(
                    f"construction failed after {restarts} attempts: "
                    f"{err}") from err


SAMPLED_COLUMNS = ("l1_chi_diff", "l1_grad_diff", "w_l1_bound",
                   "perimeter_sum", "bv_chi")


def sample_generations(domain, M, delta: float, n_samples: int = 2000,
                       generations: int = 6, seed: int = 0,
                       config: Optional[EngineConfig] = None
                       ) -> an.MetricsSeries:
    """Metrics of the full-coverage generations 0..generations, sampled.

    Every cell of every generation is covered, as Engine.step covers it
    when nothing is frozen: the same plans (the engine's own cache, built
    at its calibrated or configured h0) and the same choice between the
    isosceles fast path and generic_spec.  There is no capacity ramp and
    no min_area_rel floor; cell scales fall far below that floor within a
    few generations, which is why the descent runs in local frames (see
    twowell.lineage).

    Each of n_samples lineages starts at a uniform point of the domain
    and follows the cell containing it.  At generation k its cell T adds
    the exact contributions of T's cover divided by |T| (a conditional
    expectation given T), and the row value is |domain| times the sample
    mean, with the standard error in <column>_se:

    - l1_chi_diff, l1_grad_diff, w_l1_bound: flip_area_unit r^2,
      grad_l1_unit r^2 and w_l1_unit r^3 summed over T's diamonds;
    - perimeter_sum: the perimeters of T's children;
    - bv_chi: the exact phase-jump length inside T's cover, plus half of
      |dT| times the jump indicator at one uniform point of dT (the far
      side is found by descending a point just across dT), so shared
      edges count once;
    - stage_hists: the area of T's children per stage.

    wsup_max is a sample maximum, not an estimate of the true maximum: it
    is the largest wsup_unit r over the covers of the sampled cells, a
    lower bound that is exact when every cell of a generation is visited;
    wsup_max_se is NaN.  frozen_measure is |domain| times the fraction of
    lineages stopped by ConstructionFailureError or NotClassifiableError
    while building their cell's plan; a stopped lineage keeps its cell, which
    then counts in perimeter_sum and the stage measure only.

    Rows also carry n_samples; the series' meta holds the aspects used
    (h_dyadic_used), h0, the seed, the cache sizes and the standard errors
    of the stage measures (stage_hists_se).
    """
    if n_samples < 2 or generations < 1:
        raise InvalidParameterError("need n_samples >= 2 and generations "
                                    ">= 1")
    eng = Engine(domain, M, delta, config)
    st = eng.state
    roots = lin.root_nodes(st.verts, int(st.gid[0]))
    cache = lin.CoverCache(eng, roots)
    root_areas = st.areas()
    omega = eng.domain_area
    rng = np.random.default_rng(seed)
    ncol = len(SAMPLED_COLUMNS)
    dens = np.zeros((generations, n_samples, ncol))
    wsup = np.zeros(generations)
    frozen = np.zeros((generations, n_samples), dtype=bool)
    hists: List[List[np.ndarray]] = [[] for _ in range(generations)]
    starts = rng.choice(len(roots), size=n_samples,
                        p=root_areas / root_areas.sum())
    for i in range(n_samples):
        lineage = [roots[starts[i]]]
        y = lin.uniform_in(lineage[0].verts, rng)
        for k in range(generations):
            T = lineage[-1]
            area = T.area()
            stage = int(eng.table.stages[T.gid])
            try:
                cover = cache.cover(T)
            except (ConstructionFailureError, NotClassifiableError):
                frozen[k:, i] = True
                dens[k:, i, 3] = T.perimeter() / (area * T.abs_s)
                for j in range(k, generations):
                    hists[j].append(_stage_vec(stage, 1.0))
                break
            plan = cover.plan
            pd = cache.plan_data(plan)
            dens[k, i, 0] = plan.flip_area_unit * cover.sum_r2 / area
            dens[k, i, 1] = plan.grad_l1_unit * cover.sum_r2 / area
            dens[k, i, 2] = plan.w_l1_unit * cover.sum_r3 * T.abs_s / area
            dens[k, i, 3] = cover.perimeter / (area * T.abs_s)
            jump = _boundary_jump(cache, lineage, cover, rng)
            dens[k, i, 4] = ((lin.bv_inside(cover, pd) + 0.5 * jump)
                             / (area * T.abs_s))
            wsup[k] = max(wsup[k], plan.wsup_unit * cover.max_r * T.abs_s)
            hist = cover.diamond_stage_area / area
            hists[k].append(_stage_vec(stage, 1.0 - float(hist.sum()),
                                       hist))
            child, y = lin.locate(T, cover, y)
            lineage.append(child)
            y = lin.uniform_in(child.verts, rng)
    series = an.MetricsSeries()
    row0 = eng.metrics.rows[0]
    first = {"k": 0, "domain_area": omega, "n_samples": n_samples,
             "frozen_measure": 0.0, "frozen_measure_se": 0.0,
             "wsup_max": 0.0, "wsup_max_se": float("nan")}
    for name in SAMPLED_COLUMNS:
        first[name] = row0.get(name, 0.0)
        first[name + "_se"] = 0.0
    series.append(first, eng.metrics.stage_hists[0])
    root_n = float(np.sqrt(n_samples))
    hist_se = [np.zeros_like(series.stage_hists[0])]
    for k in range(generations):
        p = float(frozen[k].mean())
        row = {"k": k + 1, "domain_area": omega, "n_samples": n_samples,
               "frozen_measure": omega * p,
               "frozen_measure_se": omega * math.sqrt(p * (1 - p)) / root_n,
               "wsup_max": float(wsup[k]), "wsup_max_se": float("nan")}
        for c, name in enumerate(SAMPLED_COLUMNS):
            row[name] = omega * float(dens[k, :, c].mean())
            row[name + "_se"] = omega * float(dens[k, :, c].std(ddof=1)) \
                / root_n
        top = max(h.shape[0] for h in hists[k])
        per = np.stack([np.pad(h, (0, top - h.shape[0])) for h in hists[k]])
        series.append(row, omega * per.mean(axis=0))
        hist_se.append(omega * per.std(axis=0, ddof=1) / root_n)
    series.meta.update(h_dyadic_used=set(eng.h_dyadic_used), h0=eng.h0,
                       seed=seed, plans=len(eng._plans),
                       covers=len(cache.covers), stage_hists_se=hist_se)
    return series


def _stage_vec(stage: int, value: float,
               base: Optional[np.ndarray] = None) -> np.ndarray:
    """Stage-measure vector: base plus value at stage."""
    top = max(stage + 1, 0 if base is None else base.shape[0])
    out = np.zeros(top)
    if base is not None:
        out[:base.shape[0]] = base
    out[stage] += value
    return out


def _boundary_jump(cache: "lin.CoverCache", lineage, cover,
                   rng: np.random.Generator) -> float:
    """|dT| times the phase-jump indicator at one uniform point of dT.

    T = lineage[-1].  The inner phase is that of T's child next to the
    point; the outer one that of the next generation's cell just across,
    or no jump where the point lies on the domain boundary.
    """
    T = lineage[-1]
    v = T.verts
    e = np.roll(v, -1, axis=0) - v
    lens = np.linalg.norm(e, axis=1)
    total = float(lens.sum())
    u, t = rng.random(2)
    j = min(int(np.searchsorted(np.cumsum(lens) / total, u, side="right")),
            2)
    yb = v[j] + t * e[j]
    nrm = np.array([e[j, 1], -e[j, 0]]) / lens[j]
    inner, _ = lin.locate(T, cover, yb - lin.INSIDE_EPS * nrm)
    outer = lin.far_cell(cache, lineage, yb, nrm)
    phases = cache.eng.table.phases
    if outer is None or phases[outer.gid] == phases[inner.gid]:
        return 0.0
    return total
