"""Refinement engine driving covers until the gradient set settles.

The state is a struct-of-arrays triangulation carrying one affine map per
cell.  Every step selects refinable cells largest-first under a linear
cell-capacity ramp toward the budget, covers each with the inscribed
diamond of its replacement plan (the dyadic rule at one uniform aspect
for stages >= 2, the verify-and-shrink rule below), and appends the
children.  Cells that do not fit the capacity slice are frozen for good,
so the mesh stays within budget while the refined region keeps its
exponential stage advance; a state holds its frozen cells first, and
only the cells past them are candidates.

A cell names its gradient by its row in the run's GradientTable, which
holds each distinct gradient once with its stage and phase; building a
plan appends its pieces' gradients, and a leftover keeps its parent's row.

All metrics are streamed during emission: the L1 step differences and
the displacement bounds are exact sums of per-diamond contributions
precomputed on the unit diamond, added once per batch of covers, and the
BV, continuity and trace numbers come from one edge sweep per state,
reduced per line as it goes (analysis.sweep_totals).  That sweep
re-sweeps only the lines a step changed and keeps the previous state's
totals of the others.  The interior edges of every placed diamond are
twins, pairs of edges with the same endpoints bit for bit; they skip the
sweep and are checked pair by pair, per cell.  A row value is a sum or a
max over the per-line totals and the per-cell twin terms.
The per-cell areas and perimeters are carried the same way: a kept cell
takes its values through prev_index, and only the children are measured.
Everything is deterministic; there is no randomness anywhere in the
pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, NamedTuple, Optional

import numpy as np

from . import analysis as an
from . import cell as cl
from . import covering as cv
from . import inapprox as ia
from . import matgeo as mg
from .errors import AspectFailureError, ConstructionFailureError, \
    InvalidDomainError, InvalidParameterError, WrongEntryPointError

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
    with the inscribed diamond.  The first n_kept cells are frozen: the
    step that made the state kept them, and no later step covers them.
    """
    k: int
    verts: np.ndarray        # (n,3,2) counterclockwise
    offs: np.ndarray         # (n,2)
    gid: np.ndarray          # (n,) int32, row of the cell's gradient
    table: GradientTable
    n_kept: int              # cells 0..n_kept-1 are frozen
    ids: np.ndarray          # (n,) int64
    parents: np.ndarray      # (n,) int64, -1 for roots
    iso: np.ndarray          # (n,) bool, in the isosceles class of its plan
    prev_index: np.ndarray   # (n,) position of the source cell one step back

    @property
    def n(self) -> int:
        return self.verts.shape[0]

    @property
    def frozen(self) -> np.ndarray:
        return np.arange(self.n) < self.n_kept

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
    of restarting that led to this engine (0 for one built directly)."""

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
        # the boundary is the sweep's single-sided intervals: no shared edge
        single = (sw.left_owner >= 0) ^ (sw.right_owner >= 0)
        self.hull_segments = np.stack([sw.point_lo, sw.point_hi], 1)[single]
        n = verts.shape[0]
        self.table = GradientTable(np.empty((0, 2, 2)),
                                   np.empty(0, dtype=np.int16),
                                   np.empty(0, dtype=np.uint8))
        self._row_of: Dict[bytes, int] = {}
        self._row(self.M)                       # row 0, the datum's
        self.state = TwoWellState(
            0, verts, np.zeros((n, 2)),
            np.zeros(n, dtype=np.int32), self.table, 0,
            np.arange(n, dtype=np.int64),
            np.full(n, -1, dtype=np.int64),
            np.zeros(n, dtype=bool),
            np.arange(n, dtype=np.int64))
        self._next_id = n
        self.h0 = (self.config.h0 if self.config.h0 is not None
                   else cl.calibrate_h0(self.delta, fracs=cl.CORRIDOR))
        self._plans: Dict[int, cl.RefinePlan] = {}      # by table row
        # by table row: the row of each piece of its plan, then its own
        self.piece_rows: Dict[int, np.ndarray] = {}
        self.metrics = an.MetricsSeries()
        self.h_dyadic_used: set = set()
        self.iso_fast_hits = 0
        self.restarts = 0
        self.stalled = False
        self._totals: Optional[an.LineTotals] = None
        self._areas = self._perims = np.empty(0)
        self._record(l1_chi=0.0, l1_grad=0.0, wsup=0.0, wl1=0.0,
                     refined_area=0.0)

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

    def plan(self, row: int) -> cl.RefinePlan:
        """The plan of table row `row`; building it adds its pieces' rows
        to the table and to piece_rows[row]."""
        plan = self._plans.get(row)
        if plan is None:
            G = self.table.grads[row]
            if self.table.stages[row] >= 2:
                plan = cl.replace_dyadic_stage(G, self.delta, self.h0)
                self.h_dyadic_used.add(plan.h)
            else:
                plan = cl.replace_low_stage(G, self.delta)
            self.piece_rows[row] = np.array(
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
            # while its successor is recorded
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
        cand = st.n_kept + np.flatnonzero(areas[st.n_kept:] >= floor)
        order = cand[np.lexsort((st.ids[cand], -areas[cand]))]
        n_final = st.n
        taken: List[int] = []       # covered cells, in selection order
        counts: List[int] = []      # children of each covered cell
        # per (table row, fast path): the row's plan, positions in taken,
        # the rows of each generic cover
        batches: Dict[tuple, tuple] = {}
        for i in order:
            row = int(st.gid[i])
            plan = self.plan(row)
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
            batch = batches.setdefault((row, rows is None),
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
            k, **{c: np.take(getattr(st, c), src, axis=0)
                  for c in COVER_COLUMNS},
            gid=st.gid[src], table=self.table, n_kept=n_kept,
            ids=np.concatenate([st.ids[kept], self._next_id
                                + np.arange(src.shape[0] - n_kept)]),
            parents=np.concatenate([st.parents[kept], st.ids[src[n_kept:]]]),
            prev_index=src)
        first = n_kept + np.cumsum(counts) - counts
        diamonds = []      # per batch: its diamonds' first pieces, its plan
        l1_chi = l1_grad = wsup = wl1 = 0.0
        for (row, iso), (plan, pos, covers) in batches.items():
            cells = taken_idx[pos]
            if iso:
                self.iso_fast_hits += len(pos)
                res = cv.cover_isosceles(np.take(st.verts, cells, axis=0),
                                         plan, np.take(st.offs, cells, axis=0))
            else:
                res = cv.emit_spec(covers, plan,
                                   np.take(st.offs, cells, axis=0))
            at = cv.runs(first[pos], counts[pos])
            for c in COVER_COLUMNS:
                getattr(new, c)[at] = getattr(res, c)
            # piece -1 (a leftover) picks the last row, the parent's
            new.gid[at] = self.piece_rows[row][res.piece]
            if self._totals is not None:         # a swept run pairs twins
                diamonds.append((at[res.piece == 0], plan))
            # the batch's diamonds, scaled from the unit diamond's terms
            r = res.diam_scales
            r2 = float(np.sum(r ** 2))
            l1_chi += plan.flip_area_unit * r2
            l1_grad += plan.grad_l1_unit * r2
            wl1 += plan.w_l1_unit * float(np.sum(r ** 3))
            wsup = max(wsup, plan.wsup_unit * float(r.max(initial=0.0)))
        # the plan builders put every piece above its parent's stage, so
        # this holds while they do; it checks what the step wrote (the kept
        # cells are copies of their sources, so only the children)
        stages = self.table.stages
        low = np.flatnonzero(stages[new.gid[n_kept:]] < np.repeat(
            stages[st.gid[taken_idx]], counts))
        if low.size:
            raise ConstructionFailureError(
                "stage regressed under cover of cell "
                f"{new.parents[n_kept + low[0]]}")
        self._next_id += src.shape[0] - n_kept
        self.state = new
        refined_area = float(areas[taken_idx].sum()) if len(taken) else 0.0
        return l1_chi, l1_grad, wsup, wl1, refined_area, diamonds

    def _target(self, k: int) -> float:
        cfg = self.config
        n0 = self.metrics.rows[0]["n_cells"]
        frac = min(k / cfg.max_steps, 1.0) if cfg.max_steps > 0 else 1.0
        return n0 + (cfg.cell_budget - n0) * frac

    # -- metrics and certification ----------------------------------------

    def _record(self, l1_chi, l1_grad, wsup, wl1, refined_area,
                diamonds=()):
        """Append the state's metric row and run its checks.  Its n_kept
        kept cells take their areas, perimeters and line totals over from
        the state recorded last (row 0 keeps none) through prev_index; only
        its children are measured.  diamonds holds, per batch of the step's
        covers, the position of the first piece of each placed diamond (a
        diamond's pieces are its plan's P pieces in plan order) and the
        plan.  The checks take the state's twin edges (analysis.LineTotals.
        twins) from the twin terms and not from the line sweep: the kept
        cells' twins whose cell is kept, and the twins of the plans
        (cell.plan_twins) of the placed diamonds whose endpoints are
        exactly equal on the laid cells."""
        cfg = self.config
        st = self.state
        n_kept = st.n_kept
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
            "n_active": st.n - n_kept,
            "l1_chi_diff": l1_chi, "l1_grad_diff": l1_grad,
            "wsup_max": wsup, "w_l1_bound": wl1,
            "perimeter_sum": float(perims.sum()),
            "frozen_measure": float(areas[:n_kept].sum()),
            "mean_dist": float(np.sum(areas * dists[st.gid]) / total),
            "energy": float(np.sum(areas * weights[st.gid])),
            "refined_area": refined_area,
            "domain_area": self.domain_area,
            "partition_err": abs(total - self.domain_area),
            "min_stage": int(stages.min()),
            "max_stage": int(stages.max()),
        }
        checks = cfg.checks
        if cfg.track_bv or checks == "full":
            prev = twins = None
            if self._totals is not None:
                prev = (self._totals, st.prev_index, n_kept)
                twins = an.carry_twins(self._totals.twins, st.prev_index,
                                       n_kept, st.n)
                for first, plan in diamonds:
                    an.pair_twins(twins, st.verts, first, plan.twins)
            # hold the previous state's totals no longer than needed
            self._totals = None
            t = st.table
            full = (st.offs, self.M, self.hull_segments) \
                if checks == "full" else ()
            cells = an.CellFields(t.grads, st.gid,
                                  (t.phases == 1).astype(float), *full)
            tot = self._totals = an.sweep_totals(st.verts, prev, cells,
                                                 twins)
            del prev
            row["bv_chi"] = tot.value("bv_chi")
            row["bv_grad"] = tot.value("bv_grad")
        if row["partition_err"] > PARTITION_TOL * self.domain_area:
            raise ConstructionFailureError(
                f"partition error {row['partition_err']:.3e} at step {st.k}")
        if checks == "full":
            if tot.overlap_error:
                raise ConstructionFailureError(f"overlapping cells at step "
                                               f"{st.k}")
            row["continuity_err"] = tot.value("continuity")
            row["trace_err"] = tot.value("trace")
            row["stray_boundary_len"] = tot.value("stray")
            if row["continuity_err"] > CONTINUITY_TOL:
                raise ConstructionFailureError(
                    f"continuity residual {row['continuity_err']:.3e} at "
                    f"step {st.k}")
            if row["trace_err"] > TRACE_TOL:
                raise ConstructionFailureError(
                    f"boundary trace residual {row['trace_err']:.3e} at step "
                    f"{st.k}")
        self.metrics.append(row, hist)

    def run(self):
        while self.state.k < self.config.max_steps and not self.stalled:
            self.step()
        return self.metrics


def restarting(attempt, domain, M, delta: float,
               config: Optional[EngineConfig] = None, wells=None):
    """(engine, attempt(engine)) of the first engine on which attempt
    raises no AspectFailureError; after one, a fresh engine at h0 / 2.

    Only that error restarts, down the aspect ladder while h0 / 2 >=
    cell.H_FLOOR; every other failure is raised by the first engine.
    Restarting keeps the dyadic sub-run at one aspect, as shrinking one
    cell's aspect would not."""
    cfg = config or EngineConfig()
    h0, restarts = cfg.h0, 0
    while True:
        eng = Engine(domain, M, delta, replace(cfg, h0=h0), wells)
        eng.restarts = restarts
        try:
            return eng, attempt(eng)
        except AspectFailureError as err:
            h0, restarts = eng.h0 * 0.5, restarts + 1
            if h0 < cl.H_FLOOR:
                raise ConstructionFailureError(
                    f"construction failed after {restarts} attempts: "
                    f"{err}") from err


def run_construction(domain, M, delta: float,
                     config: Optional[EngineConfig] = None,
                     wells=None) -> Engine:
    """Run to completion, restarting on a failed aspect (see restarting)."""
    return restarting(Engine.run, domain, M, delta, config, wells)[0]
