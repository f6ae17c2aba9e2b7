"""Lineage sampling of full-coverage generations.

Full coverage multiplies the cell count by more than a thousand per
generation (776 cells at generation 1, 387,536,112 at generation 2), so
no explicit mesh reaches the generations a regularity fit needs.  Every
area integral in a metrics row is an expectation over a uniform point of
the domain, however, and the cell containing such a point can be followed
down the generations without building anything else: the cover of one
cell is its right triangles (covering.generic_spec) or the twelve-child
isosceles template.  The child containing a point is found on that
geometry directly; of a generic cover, only the square holding the point
is laid, by the covering.lay_squares that emit_spec calls on a batch.

Cells live in local frames, one struct of arrays (Nodes) per set of
cells.  A frame is a translation and a scaling of its parent's frame,
chosen so the cell has unit size; the absolute scale is the product of
the scalings.  Diamond pieces use the frame of their diamond, so a piece
is exactly plan.unit_verts[j].  A cover depends on the cell's table row,
isosceles tag and local vertices only, and is cached by them; every
generation moves all lineages at once, one group of cells per cover.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
import math
from typing import Dict, List, Optional

import numpy as np

from . import analysis as an
from . import cell as cl
from . import covering as cv
from . import engine as en
from .errors import AspectFailureError, ConstructionFailureError, \
    InvalidParameterError, NotClassifiableError

INSIDE_EPS = 1e-9     # inward offset of a boundary point, cell units
ACROSS_EPS = 1e-9     # outward offset of the far-side point, cell units
ACROSS_FLOOR = 1e-13  # smallest outward offset in an ancestor's units


@dataclass
class Nodes:
    """Cells in their local frames, one per row: y_parent = rel_c + rel_s y.

    gid is the row of a cell's gradient in the engine's GradientTable, as
    TwoWellState.gid is; iso marks a leftover in the isosceles class of
    its plan, as TwoWellState.iso does: its cover is the inscribed diamond.
    """
    verts: np.ndarray        # (n,3,2) counterclockwise, local coordinates
    gid: np.ndarray          # (n,) row of the cell's gradient in the table
    iso: np.ndarray          # (n,) in the isosceles class of its plan
    rel_c: np.ndarray        # (n,2) frame origin in the parent frame
    rel_s: np.ndarray        # (n,) frame scale relative to the parent frame
    abs_s: np.ndarray        # (n,) absolute length of one local unit

    @staticmethod
    def of(tris: np.ndarray, gid, iso, abs_s) -> "Nodes":
        """The cells tris (n,3,2) of parent frames of absolute scales
        abs_s, each in the frame of its bounding box's corner and size."""
        lo = tris.min(axis=1)
        s = (tris.max(axis=1) - lo).max(axis=1)
        return Nodes((tris - lo[:, None]) / s[:, None, None], gid, iso, lo, s,
                     abs_s * s)

    @staticmethod
    def cat(parts: List["Nodes"]) -> "Nodes":
        return Nodes(*(np.concatenate([getattr(p, f.name) for p in parts])
                       for f in fields(Nodes)))

    def take(self, idx) -> "Nodes":
        return Nodes(*(getattr(self, f.name)[idx] for f in fields(self)))

    def put(self, idx, other: "Nodes"):
        for f in fields(self):
            getattr(self, f.name)[idx] = getattr(other, f.name)


@dataclass
class Cover:
    """One cover in the covered cell's local frame, plus its totals.

    A generic cover is kept as its RightRows (covering.generic_spec);
    locate lays only the squares holding its points, by covering.
    lay_squares as emit_spec lays all squares of a batch.  leftovers[i]
    holds row i's medial and residual triangles.  The isosceles fast path
    is one diamond (iso: center, r) with two tagged leftovers.  bv is the
    exact phase-jump length strictly inside the cover (local units):
    diamonds touch leftovers of the parent phase along their whole rim,
    except in the isosceles cover, where the two apex-side rim edges lie
    on the cell boundary and belong to the boundary term.
    """
    plan: cl.RefinePlan
    gids: np.ndarray                # table row of each plan piece
    rows: List[cv.RightRow]
    leftovers: List[np.ndarray]     # per row: (k,3,2) counterclockwise
    iso: Optional[tuple]            # (center, r, leftovers (2,3,2))
    sum_r2: float
    sum_r3: float
    max_r: float
    perimeter: float                # sum of all children perimeters
    diamond_stage_area: np.ndarray  # area of diamond pieces per stage
    bv: float


def _margins(tris: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Signed distance from y (...,2) to the nearest edge of each ccw
    triangle of tris (...,3,2)."""
    e = np.roll(tris, -1, axis=-2) - tris
    d = y[..., None, :] - tris
    cross = e[..., 0] * d[..., 1] - e[..., 1] * d[..., 0]
    return (cross / np.linalg.norm(e, axis=-1)).min(axis=-1)


class PlanData:
    """Unit-diamond facts of one plan: jumps, stage areas, piece rows."""

    def __init__(self, plan: cl.RefinePlan, gids: np.ndarray):
        self.plan = plan
        self.gids = gids     # table row of each piece (Engine.piece_rows)
        uv = plan.unit_verts
        ind = (plan.phases == 1).astype(float)
        par = float(plan.parent_phase == 1)
        sw = an.sweep_intervals(uv)
        inner = an.bv_seminorm_cells(uv, ind, sweep=sw)
        both = (sw.left_owner >= 0) & (sw.right_owner >= 0)
        own = np.where(sw.left_owner >= 0, sw.left_owner, sw.right_owner)
        # a gap interval (own = -1) lies outside the cover on both sides
        rim = np.where(both | (own < 0), 0.0,
                       np.abs(ind[own] - par) * sw.dt)
        # rim jumps on the two edges at each tip (+dhat, -dhat): the
        # isosceles cover lays the apex-side edges on the cell boundary
        along = (sw.point_lo + sw.point_hi) @ plan.dhat
        self.bv_unit = inner + float(rim.sum())
        self.rim_tip = {1.0: float(rim[along > 0].sum()),
                        -1.0: float(rim[along < 0].sum())}
        self.stage_area = np.bincount(plan.stages, weights=plan.areas_unit)


def generic_cover(tri: np.ndarray, plan: cl.RefinePlan,
                  pdata: PlanData) -> Cover:
    """The generic cover of tri as emit_spec lays it, kept by rows.

    The squares of a row are translates of each other, so the totals are
    m times those of the first square, laid by covering.lay_squares.
    """
    rows = cv.generic_spec(tri, plan)
    leftovers = []
    tot = np.zeros(5)       # sum r, r^2, r^3, perimeter, max r
    for row in rows:
        leftovers.append(cv._fix_ccw(np.concatenate([row.medial,
                                                     row.residual])))
        tot[3] += float(cv.tri_perimeters(leftovers[-1]).sum())
        if row.m == 0:
            continue
        stack, corners = cv.lay_squares([row], [0], [0], plan)
        r, n = 0.5 * stack[3][0], int(stack[4][0])
        g = np.arange(n - 1)
        upper, lower, ends = cv.stack_leftovers(stack, plan.h,
                                                np.zeros_like(g), g)
        per = (n * r * plan.perim_unit
               + float(cv.tri_perimeters(np.concatenate(
                   [upper, lower, ends[0]])).sum())
               + float(cv.tri_perimeters(corners).sum()))
        tot += row.m * np.array([n * r, n * r * r, n * r ** 3, per, 0.0])
        tot[4] = max(tot[4], r)
    return Cover(plan, pdata.gids, rows, leftovers, None, float(tot[1]),
                 float(tot[2]), float(tot[4]), float(tot[3]),
                 pdata.stage_area * float(tot[1]),
                 pdata.bv_unit * float(tot[0]))


def iso_cover(center, r, left, axis, pd: PlanData) -> Cover:
    """The inscribed-diamond cover of one cell of a covering.iso_layout
    stack (center, r, leftovers, apex axis)."""
    plan, left = pd.plan, cv._fix_ccw(left)
    sign = 1.0 if float(axis @ plan.dhat) > 0 else -1.0
    return Cover(plan, pd.gids, [], [], (center, r, left), r * r, r ** 3, r,
                 float(r * plan.perim_unit + cv.tri_perimeters(left).sum()),
                 pd.stage_area * r * r, r * (pd.bv_unit - pd.rim_tip[sign]))


def _square_candidates(cover: Cover, y: np.ndarray):
    """(diamond centers (m,R,2) and scales (m,R), triangles (m,K,3,2) and
    their isosceles tags (K,)): the candidate children of the generic
    cover for the points y (m,2).  Per right row: its leftovers, and of
    the square holding the point (lay_squares), laid as emit_spec lays it,
    the corners if rotated, diamond q next to the point (stack_centers),
    the gaps at q-1 and q and the four end triangles (stack_leftovers).
    A candidate that does not exist is NaN.
    """
    plan, rows, m = cover.plan, cover.rows, y.shape[0]
    R = len(rows)
    ri = np.tile(np.arange(R), m)
    v0, e2, a, count, rot = (np.array([getattr(r, f) for r in rows])[ri]
                             for f in ("v0", "e2", "a", "m", "rotated"))
    yy = np.repeat(y, R, axis=0)
    i = np.clip(np.floor(np.vecdot(yy - v0, e2) / a), 0, count - 1)
    stack, corners = cv.lay_squares(rows, ri, i.astype(np.int64), plan)
    p0, _, e_w, length, n = stack
    q = np.clip(np.floor(np.vecdot(yy - p0, e_w) / (plan.h * length)), 0,
                n - 1).astype(np.int64)
    g = np.stack([q - 1, q], axis=1)
    upper, lower, ends = cv.stack_leftovers(
        stack, plan.h, np.repeat(np.arange(m * R), 2), g.ravel())
    square = np.full((m * R, 12, 3, 2), np.nan)
    square[rot, :4] = corners.reshape(-1, 4, 3, 2)
    square[:, 4:] = cv._fix_ccw(np.concatenate(
        [upper.reshape(-1, 2, 3, 2), lower.reshape(-1, 2, 3, 2), ends],
        axis=1).reshape(-1, 3, 2)).reshape(-1, 8, 3, 2)
    square[:, 4:8][np.tile((g < 0) | (g >= n[:, None] - 1), 2)] = np.nan
    centers = cv.stack_centers(stack, plan.h, np.arange(m * R), q)
    square[count == 0] = centers[count == 0] = np.nan
    left = np.concatenate(cover.leftovers)
    return (centers.reshape(m, R, 2), (0.5 * length).reshape(m, R),
            np.concatenate([np.broadcast_to(left, (m,) + left.shape),
                            square.reshape(m, 12 * R, 3, 2)], axis=1),
            np.concatenate([np.zeros(left.shape[0], dtype=bool), np.tile(
                np.repeat([False, True, False], 4), R)]))


def locate(covers: List[Optional[Cover]], inv: np.ndarray, nodes: Nodes,
           y: np.ndarray):
    """(children, y in their frames): of each cell of nodes, whose cover
    is covers[inv] (CoverCache.groups), the child holding y.

    Per cover, the candidate child with the largest margin wins, so a
    point on a shared edge still gets a child: the isosceles diamond's
    pieces and two leftovers, or _square_candidates.  The pieces come
    first, margins scaled by their diamond's r, so a tie goes to a piece.
    A NaN margin (a candidate that does not exist, or a zero-area corner
    or end triangle of a tiny square) never wins.  A cell without a cover
    stays as it is.
    """
    kids, y = nodes.take(np.arange(y.shape[0])), y.copy()
    order = np.argsort(inv, kind="stable")
    split = np.cumsum(np.bincount(inv, minlength=len(covers)))[:-1]
    for cover, at in zip(covers, np.split(order, split)):
        if cover is None:
            continue
        plan, m, yg = cover.plan, at.shape[0], y[at]
        with np.errstate(invalid="ignore", divide="ignore"):
            if cover.iso is None:
                cen, r, tris, tiso = _square_candidates(cover, yg)
            else:
                center, r0, left = cover.iso
                cen, r = np.broadcast_to(center, (m, 1, 2)), np.full((m, 1),
                                                                     r0)
                tris, tiso = np.broadcast_to(left, (m, 2, 3, 2)), [True] * 2
            mp = _margins(plan.unit_verts, ((yg[:, None] - cen)
                                            / r[..., None])[:, :, None])
            mg = np.concatenate([(mp * r[..., None]).reshape(m, -1),
                                 _margins(tris, yg[:, None])], axis=1)
            k = np.where(np.isnan(mg), -np.inf, mg).argmax(axis=1)
            npc = cen.shape[1] * plan.n_pieces
            piece, kt = k < npc, np.maximum(k - npc, 0)
            d, j = np.divmod(np.minimum(k, npc - 1), plan.n_pieces)
            tri = tris[np.arange(m), kt]
            lo = tri.min(axis=1)
            size = (tri.max(axis=1) - lo).max(axis=1)
            c = np.where(piece[:, None], cen[np.arange(m), d], lo)
            s = np.where(piece, r[np.arange(m), d], size)
            kids.verts[at] = np.where(
                piece[:, None, None], plan.unit_verts[j],
                (tri - lo[:, None]) / size[:, None, None])
        kids.gid[at] = np.where(piece, cover.gids[j], kids.gid[at])
        kids.iso[at] = ~piece & np.asarray(tiso)[kt]
        kids.rel_c[at], kids.rel_s[at] = c, s
        kids.abs_s[at] = nodes.abs_s[at] * s
        y[at] = (yg - c) / s[:, None]
    return kids, y


def uniform_in(tri: np.ndarray, uv: np.ndarray) -> np.ndarray:
    """Uniform points of the triangles tri ((n,3,2) or one (3,2)) at the
    uniform numbers uv (n,2), one point per row."""
    u = np.where(uv.sum(axis=1, keepdims=True) > 1.0, 1.0 - uv, uv)
    t0 = tri[..., 0, :]
    return t0 + u[:, :1] * (tri[..., 1, :] - t0) + u[:, 1:] * (
        tri[..., 2, :] - t0)


class CoverCache:
    """Covers by cell geometry and PlanData by table row of one engine."""

    def __init__(self, eng: en.Engine):
        self.eng = eng              # its plans and table
        self.covers: Dict[bytes, Cover] = {}
        self.pdata: Dict[int, Optional[PlanData]] = {}

    def plan_data(self, row: int) -> Optional[PlanData]:
        """The unit-diamond facts of the plan of table row `row`, or None
        when the plan fails (cell.replace_dyadic_stage, replace_low_stage):
        its cells stay as frozen cells.  AspectFailureError is raised, as
        the whole sample restarts on it.  Its stages are taken as they are."""
        if row not in self.pdata:
            try:
                plan = self.eng.plan(row)
            except AspectFailureError:
                raise
            except (ConstructionFailureError, NotClassifiableError):
                plan = None
            self.pdata[row] = None if plan is None else PlanData(
                plan, self.eng.piece_rows[row])
        return self.pdata[row]

    def groups(self, nodes: Nodes):
        """(covers, inv): the covers Engine.step would lay on the distinct
        cells of nodes, and the index of each row's cover.

        Cells share a cover when their table row, isosceles tag and local
        vertices are the same bytes (one np.unique); a cover is None where
        the plan fails (plan_data).  The new isosceles covers are laid
        together, by one covering.iso_layout call.
        """
        key = np.column_stack([nodes.gid, nodes.iso,
                               nodes.verts.reshape(-1, 6)])
        keys, first, inv = np.unique(key.view(np.dtype((np.void, 64))).ravel(),
                                     return_index=True, return_inverse=True)
        covers = [self.covers.get(b.tobytes()) for b in keys]
        new = [g for g, c in enumerate(covers) if c is None
               and self.plan_data(int(nodes.gid[first[g]]))]
        tag = [g for g in new if nodes.iso[first[g]]]
        lay = dict(zip(tag, zip(*cv.iso_layout(nodes.verts[first[tag]]))))
        for g in new:
            pd = self.pdata[int(nodes.gid[first[g]])]
            covers[g] = (iso_cover(*lay[g], pd) if g in lay else
                         generic_cover(nodes.verts[first[g]], pd.plan, pd))
            self.covers[keys[g].tobytes()] = covers[g]
        return covers, inv.ravel()


def descend(cache: CoverCache, nodes: Nodes, y: np.ndarray,
            levels: np.ndarray):
    """(cells, y in their frames): row i of nodes moved levels[i]
    generations down along its point y[i], in the last levels[i] rounds,
    so rows that end at one generation go down together.  A cell whose
    cover cannot be built stays as it is, as a frozen cell."""
    nodes, y = nodes.take(np.arange(y.shape[0])), y.copy()
    top = int(levels.max(initial=0))
    for step in range(top):
        at = np.flatnonzero(levels >= top - step)
        sub = nodes.take(at)
        kids, y[at] = locate(*cache.groups(sub), sub, y[at])
        nodes.put(at, kids)
    return nodes, y


def _across(line: List[Nodes], roots: Nodes, yb: np.ndarray,
            nrm: np.ndarray):
    """(start cells, points, levels) of the far-side descents.

    yb lies on the boundary of the lineages' cells T = line[-1] (T's
    frames), nrm is the outward normal there.  The point yb + eps nrm is
    carried up T's ancestors, one level at a time for all lineages, until
    one contains it, and descends from there to one generation below T:
    coordinates stay relative to the smallest cell holding both sides.
    eps is ACROSS_EPS in T's units, floored at ACROSS_FLOOR in the units
    of the frame it is tested in, so a far-side cell thinner than that
    floor can be stepped over.  A point outside the domain gets 0 levels.
    """
    gen = len(line)
    start = line[-1].take(np.arange(yb.shape[0]))
    y, ratio = yb, np.ones(yb.shape[0])
    yf, levels = np.zeros_like(yb), np.zeros(yb.shape[0], dtype=np.int64)
    for j in range(gen - 1, 0, -1):
        y = line[j].rel_c + line[j].rel_s[:, None] * y
        ratio = ratio * line[j].rel_s
        yp = y + np.maximum(ACROSS_EPS * ratio, ACROSS_FLOOR)[:, None] * nrm
        hit = (levels == 0) & (_margins(line[j - 1].verts, yp) > 0.0)
        start.put(hit, line[j - 1].take(hit))
        yf[hit], levels[hit] = yp[hit], gen - j + 1
    # y becomes absolute; the roots' own frames hold the far point
    y = line[0].rel_c + line[0].rel_s[:, None] * y
    ratio = ratio * line[0].rel_s
    for i in range(roots.gid.shape[0]):
        yr = (y - roots.rel_c[i]) / roots.rel_s[i]
        yr = yr + np.maximum(ACROSS_EPS * ratio / roots.rel_s[i],
                             ACROSS_FLOOR)[:, None] * nrm
        hit = (levels == 0) & (_margins(roots.verts[i], yr) > 0.0)
        start.put(hit, roots.take(np.full(hit.sum(), i)))
        yf[hit], levels[hit] = yr[hit], gen
    return start, yf, levels


SAMPLED_COLUMNS = ("l1_chi_diff", "l1_grad_diff", "w_l1_bound",
                   "perimeter_sum", "bv_chi")


def sample_generations(domain, M, delta: float, n_samples: int = 2000,
                       generations: int = 6, seed: int = 0,
                       config: Optional[en.EngineConfig] = None
                       ) -> an.MetricsSeries:
    """Metrics of the full-coverage generations 0..generations, sampled.

    Every cell of every generation is covered, as Engine.step covers it
    when nothing is frozen: the same plans (the engine's own cache, built
    at its calibrated or configured h0) and the same choice between the
    isosceles fast path and generic_spec.  There is no capacity ramp and
    no min_area_rel floor.  A plan that fails its aspect restarts the
    whole sample at h0 / 2 with the same seed, as run_construction
    restarts a run (engine.restarting).

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
      side is found by descending a point just across dT from the deepest
      common ancestor, or from a root: _across), so shared edges count
      once;
    - stage_hists: the area of T's children per stage.

    The roots are drawn first (rng.choice), then one row of 2 + 4
    generations uniform numbers per lineage: its start point, then per
    generation its boundary point and its point in the child.  A stopped
    lineage leaves the rest of its row unused.

    wsup_max is a sample maximum, not an estimate of the true maximum: it
    is the largest wsup_unit r over the covers of the sampled cells, a
    lower bound that is exact when every cell of a generation is visited;
    wsup_max_se is NaN.  frozen_measure is |domain| times the fraction of
    lineages stopped by any other failure to build their cell's plan
    (CoverCache.plan_data); a stopped lineage keeps its cell, which then
    counts in perimeter_sum and the stage measure only.

    Rows also carry n_samples; the series' meta holds the aspects used
    (h_dyadic_used), h0, the restarts before it, the seed, the number of
    plans and of distinct covers, and the standard errors of the stage
    measures (stage_hists_se).
    """
    if n_samples < 2 or generations < 1:
        raise InvalidParameterError("need n_samples >= 2 and generations "
                                    ">= 1")
    return en.restarting(
        lambda eng: _sample(eng, n_samples, generations, seed),
        domain, M, delta, config)[1]


def _sample(eng: en.Engine, n_samples: int, generations: int,
            seed: int) -> an.MetricsSeries:
    """sample_generations on the fresh engine eng."""
    st = eng.state
    roots = Nodes.of(st.verts, st.gid.astype(np.int64),
                     np.zeros(st.n, dtype=bool), np.ones(st.n))
    cache = CoverCache(eng)
    root_areas = st.areas()
    omega = eng.domain_area
    rng = np.random.default_rng(seed)
    dens = np.zeros((generations, n_samples, len(SAMPLED_COLUMNS)))
    wsup = np.zeros(generations)
    frozen = np.zeros((generations, n_samples), dtype=bool)
    hists: List[np.ndarray] = []
    starts = rng.choice(st.n, size=n_samples,
                        p=root_areas / root_areas.sum())
    draws = rng.random((n_samples, 2 + 4 * generations))
    line = [roots.take(starts)]     # each lineage's cell, per generation
    y = uniform_in(line[0].verts, draws[:, :2])
    for k in range(generations):
        T = line[k]
        covers, inv = cache.groups(T)
        # per cover: its totals in T's units and T's stage measure / |T|;
        # a stopped lineage's cell (no cover) keeps its perimeter and stage
        area, s = cv.tri_areas(T.verts), T.abs_s
        cell = np.zeros((3, len(covers)))
        cell[:, inv] = (area, eng.table.stages[T.gid],
                        cv.tri_perimeters(T.verts))
        facts = np.zeros((len(covers), 6))
        hist = np.zeros((len(covers), max(
            [int(cell[1].max()) + 1] + [c.diamond_stage_area.shape[0]
                                        for c in covers if c])))
        for g, c in enumerate(covers):
            stage, h = int(cell[1, g]), np.zeros(0)
            facts[g, 3] = cell[2, g]
            if c is not None:
                p = c.plan
                facts[g] = (p.flip_area_unit * c.sum_r2, p.grad_l1_unit
                            * c.sum_r2, p.w_l1_unit * c.sum_r3, c.perimeter,
                            c.bv, p.wsup_unit * c.max_r)
                h = c.diamond_stage_area / cell[0, g]
            hist[g, :h.shape[0]] = h
            hist[g, stage] += 1.0 - float(h.sum())
        hists.append(hist[inv])
        f = facts[inv]
        dens[k, :, :4] = np.stack([f[:, 0] / area, f[:, 1] / area,
                                   f[:, 2] * s / area, f[:, 3] / (area * s)],
                                  axis=1)
        wsup[k] = float((f[:, 5] * s).max())
        frozen[k] = np.array([c is None for c in covers], dtype=bool)[inv]
        live = np.flatnonzero(~frozen[k])
        # |dT| times the jump indicator at a uniform point yb of dT
        T, area, s, v = T.take(live), area[live], s[live], T.verts[live]
        e = np.roll(v, -1, axis=1) - v
        lens = np.linalg.norm(e, axis=2)
        total = lens.sum(axis=1)
        u, t = draws[live, 2 + 4 * k], draws[live, 3 + 4 * k]
        j = np.minimum((np.cumsum(lens, axis=1) / total[:, None]
                        <= u[:, None]).sum(axis=1), 2)
        m = np.arange(live.shape[0])
        yb = v[m, j] + t[:, None] * e[m, j]
        nrm = np.stack([e[m, j, 1], -e[m, j, 0]], axis=1) / lens[m, j][:, None]
        far, yf, lf = _across([c.take(live) for c in line], roots, yb, nrm)
        n = live.shape[0]
        end, _ = descend(cache, Nodes.cat([T, T, far]), np.concatenate(
            [y[live], yb - INSIDE_EPS * nrm, yf]),
            np.concatenate([np.ones(2 * n, dtype=np.int64), lf]))
        phases = eng.table.phases[end.gid]
        jump = (lf > 0) & (phases[2 * n:] != phases[n:2 * n])
        dens[k, live, 4] = (f[live, 4] + 0.5 * np.where(jump, total, 0.0)) \
            / (area * s)
        line.append(line[k].take(np.arange(n_samples)))
        line[k + 1].put(live, end.take(m))
        y[live] = uniform_in(end.verts[:n], draws[live, 4 + 4 * k:6 + 4 * k])
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
        series.append(row, omega * hists[k].mean(axis=0))
        hist_se.append(omega * hists[k].std(axis=0, ddof=1) / root_n)
    series.meta.update(h_dyadic_used=set(eng.h_dyadic_used), h0=eng.h0,
                       restarts=eng.restarts, seed=seed,
                       plans=len(eng.piece_rows), covers=len(cache.covers),
                       stage_hists_se=hist_se)
    return series
