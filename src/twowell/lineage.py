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

Cells live in local frames.  A frame is a translation and a scaling of
its parent's frame, chosen so the cell has unit size; the absolute scale
is the product of the scalings.  Diamond pieces use the frame of their
diamond, so a piece is exactly plan.unit_verts[j] and its cover depends
on (plan, j) only; covers of generic leftovers are keyed by their
parent's cover and their index in it.  Both are cached.
"""

from __future__ import annotations

from dataclasses import dataclass
import math
from typing import Dict, List, Optional, Tuple

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
class Node:
    """One cell in its local frame: y_parent = rel_c + rel_s * y.

    gid is the row of the cell's gradient in the engine's GradientTable,
    as TwoWellState.gid is; iso marks a leftover in the isosceles class of
    its plan, as TwoWellState.iso does: its cover is the inscribed diamond.
    """
    verts: np.ndarray        # (3,2) counterclockwise, local coordinates
    gid: int                 # row of the cell's gradient in the table
    iso: bool                # in the isosceles class of its plan
    key: Optional[tuple]     # identifies the local geometry; None: uncached
    rel_c: np.ndarray        # (2,) frame origin in the parent frame
    rel_s: float             # frame scale relative to the parent frame
    abs_s: float             # absolute length of one local unit


@dataclass
class Cover:
    """One cover in the covered cell's local frame, plus its totals.

    A generic cover is kept as its RightRows (covering.generic_spec);
    locate lays only the square holding a point, by covering.lay_squares
    as emit_spec lays all squares of a batch.  leftovers[i] holds row i's
    medial and residual triangles.  The isosceles fast path is one
    diamond (iso) with two tagged leftovers.
    """
    plan: cl.RefinePlan
    gids: np.ndarray                # table row of each plan piece
    rows: List[cv.RightRow]
    leftovers: List[np.ndarray]     # per row: (k,3,2) counterclockwise
    iso: Optional[tuple]            # (center, r, leftovers (2,3,2), axis)
    sum_r: float
    sum_r2: float
    sum_r3: float
    max_r: float
    perimeter: float                # sum of all children perimeters
    diamond_stage_area: np.ndarray  # area of diamond pieces per stage


def _fix_ccw(tris: np.ndarray) -> np.ndarray:
    return cv._fix_ccw(np.array(tris, dtype=float).reshape(-1, 3, 2))


def _margins(tris: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Signed distance from y to the nearest edge of each ccw triangle."""
    e = np.roll(tris, -1, axis=1) - tris
    d = y - tris
    cross = e[..., 0] * d[..., 1] - e[..., 1] * d[..., 0]
    return (cross / np.linalg.norm(e, axis=2)).min(axis=1)


def _frame_of(tri: np.ndarray) -> Tuple[np.ndarray, float]:
    lo = tri.min(axis=0)
    return lo, float((tri.max(axis=0) - lo).max())


class PlanData:
    """Unit-diamond facts of one plan: jumps, stage areas, piece rows."""

    def __init__(self, plan: cl.RefinePlan, gids: np.ndarray):
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
        leftovers.append(_fix_ccw(np.concatenate([row.medial, row.residual])))
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
    return Cover(plan, pdata.gids, rows, leftovers, None, float(tot[0]),
                 float(tot[1]), float(tot[2]), float(tot[4]), float(tot[3]),
                 pdata.stage_area * float(tot[1]))


def iso_cover(v: np.ndarray, plan: cl.RefinePlan, pdata: PlanData) -> Cover:
    """The inscribed-diamond cover, laid by covering.iso_layout."""
    center, r, left, axis = cv.iso_layout(v)
    left = _fix_ccw(left)
    perimeter = float(r * plan.perim_unit + cv.tri_perimeters(left).sum())
    return Cover(plan, pdata.gids, [], [], (center, r, left, axis), r, r * r,
                 r ** 3, r, perimeter, pdata.stage_area * r * r)


def bv_inside(cover: Cover, pdata: PlanData) -> float:
    """Exact phase-jump length strictly inside the cover (local units).

    Diamonds touch leftovers of the parent phase along their whole rim,
    except in the isosceles cover, where the two apex-side rim edges lie
    on the cell boundary and belong to the boundary term.
    """
    if cover.iso is None:
        return pdata.bv_unit * cover.sum_r
    _, r, _, axis = cover.iso
    sign = 1.0 if float(axis @ cover.plan.dhat) > 0 else -1.0
    return r * (pdata.bv_unit - pdata.rim_tip[sign])


def _piece(plan: cl.RefinePlan, center: np.ndarray, r: float,
           y: np.ndarray):
    """(piece index, margin) of the unit-diamond piece containing y."""
    mg = _margins(plan.unit_verts, (y - center) / r)
    j = int(np.argmax(mg))
    return j, float(mg[j])


def locate(node: Node, cover: Cover, y: np.ndarray):
    """(child Node, y in the child frame) of the child containing y.

    Among the candidate pieces the one with the largest margin wins, so a
    point on a shared edge still gets a child.
    """
    plan = cover.plan
    if cover.iso is not None:
        center, r, left, _ = cover.iso
        j, mj = _piece(plan, center, r, y)
        ml = _margins(left, y)
        i = int(np.argmax(ml))
        if mj * r >= ml[i]:
            return _piece_child(node, cover, center, r, j, y)
        return _leftover(node, left[i], y, True, None)
    best = (-np.inf, None, 0, 0)        # (margin, kind, row, index)
    for ri, row in enumerate(cover.rows):
        ml = _margins(cover.leftovers[ri], y)
        k = int(np.argmax(ml))
        best = max(best, (float(ml[k]), "tri", ri, k), key=lambda c: c[0])
        if row.m:
            d = y - row.v0
            s, t = float(d @ row.e1), float(d @ row.e2)
            i = min(max(int(np.floor(t / row.a)), 0), row.m - 1)
            msq = min(s, row.a - s, t - i * row.a, (i + 1) * row.a - t)
            best = max(best, (msq, "square", ri, i), key=lambda c: c[0])
    _, kind, ri, i = best
    key = None if node.key is None else (node.key, ri, i)
    if kind == "tri":
        return _leftover(node, cover.leftovers[ri][i], y, False,
                         key and key + ("tri",))
    stack, corners = cv.lay_squares([cover.rows[ri]], [0], [i], plan)
    if corners.shape[0]:
        mc = _margins(corners, y)
        c = int(np.argmax(mc))
        if mc[c] > _box_margin(stack, plan, y):
            return _leftover(node, corners[c], y, False,
                             key and key + ("corner", c))
    return _in_stack(node, cover, stack, y, key)


def _box_margin(stack, plan: cl.RefinePlan, y: np.ndarray) -> float:
    """Margin of y in the box of the one diamond row stack."""
    p0, e_len, e_w, length, n = (x[0] for x in stack)
    d = y - p0
    s, t = float(d @ e_len), float(d @ e_w)
    wt = plan.h * length * n
    return min(s, length - s, t, wt - t)


def _in_stack(node: Node, cover: Cover, stack, y: np.ndarray,
              key: Optional[tuple]):
    """The child of the one diamond row stack (lay_squares) holding y.

    The row is laid by covering's stack_centers and stack_leftovers, as
    emit_spec lays it: only diamond q next to y, its two gaps and, at
    either end of the row, the end triangles.
    """
    plan = cover.plan
    p0, _, e_w, length, n = (x[0] for x in stack)
    w, r = plan.h * length, 0.5 * length
    t = float((y - p0) @ e_w)
    q = min(max(int(np.floor(t / w)), 0), n - 1)
    center = cv.stack_centers(stack, plan.h, [0], np.array([q]))[0]
    j, mj = _piece(plan, center, r, y)
    if mj >= 0.0:
        return _piece_child(node, cover, center, r, j, y)
    gaps = np.arange(max(q - 1, 0), min(q + 1, n - 1))
    upper, lower, ends = cv.stack_leftovers(stack, plan.h,
                                            np.zeros_like(gaps), gaps)
    tri_l = [upper, lower]
    if q == 0 or q == n - 1:
        tri_l.append(ends[0])
    tl = _fix_ccw(np.concatenate(tri_l))
    k = int(np.argmax(_margins(tl, y)))
    # the 2 len(gaps) gap triangles come first, then the end triangles
    n_gaps = 2 * len(gaps)
    if k < n_gaps:
        return _leftover(node, tl[k], y, True, None)
    return _leftover(node, tl[k], y, False,
                     key and key + ("end", k - n_gaps))


def _piece_child(node: Node, cover: Cover, center: np.ndarray,
                 r: float, j: int, y: np.ndarray):
    plan = cover.plan
    child = Node(plan.unit_verts[j], int(cover.gids[j]), False,
                 ("piece", plan.M.tobytes(), j), center, r, node.abs_s * r)
    return child, (y - center) / r


def _leftover(node: Node, tri: np.ndarray, y: np.ndarray, iso: bool,
              key: Optional[tuple]):
    c, s = _frame_of(tri)
    child = Node((tri - c) / s, node.gid, iso, key, c, s, node.abs_s * s)
    return child, (y - c) / s


def uniform_in(tri: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    u, v = rng.random(2)
    if u + v > 1.0:
        u, v = 1.0 - u, 1.0 - v
    return tri[0] + u * (tri[1] - tri[0]) + v * (tri[2] - tri[0])


def root_nodes(verts: np.ndarray, gid: int):
    """Root cells of table row gid in frames of unit size; rel_c/rel_s are
    absolute."""
    nodes = []
    for i, tri in enumerate(verts):
        c, s = _frame_of(tri)
        nodes.append(Node((tri - c) / s, gid, False, ("root", i), c, s, s))
    return nodes


class CoverCache:
    """Covers by node key and PlanData by table row of one engine."""

    def __init__(self, eng: en.Engine, roots):
        self.eng = eng              # its plans and table
        self.roots = roots          # root Nodes, for far-side descents
        self.covers: Dict[tuple, Cover] = {}
        self.pdata: Dict[int, PlanData] = {}

    def plan_data(self, row: int) -> PlanData:
        """The unit-diamond facts of the plan of table row `row`."""
        pd = self.pdata.get(row)
        if pd is None:
            pd = self.pdata[row] = PlanData(self.eng.plan(row),
                                            self.eng.piece_rows[row])
        return pd

    def cover(self, node: Node) -> Optional[Cover]:
        """The cover Engine.step would lay on node, or None when node's plan
        fails (cell.replace_dyadic_stage, cell.replace_low_stage): the cell
        stays as a frozen cell.  AspectFailureError is raised, as the whole
        sample restarts on it.  The plan's stages are taken as they are."""
        try:
            plan = self.eng.plan(node.gid)
        except AspectFailureError:
            raise
        except (ConstructionFailureError, NotClassifiableError):
            return None
        pd = self.plan_data(node.gid)
        if node.iso:
            return iso_cover(node.verts, plan, pd)
        cov = self.covers.get(node.key) if node.key is not None else None
        if cov is None:
            cov = generic_cover(node.verts, plan, pd)
            if node.key is not None:
                self.covers[node.key] = cov
        return cov


def descend(cache: CoverCache, node: Node, y: np.ndarray,
            levels: int) -> Node:
    """The cell `levels` generations below node that contains y.

    A cell whose cover cannot be built stays as it is, as a frozen cell.
    """
    for _ in range(levels):
        cover = cache.cover(node)
        if cover is None:
            return node
        node, y = locate(node, cover, y)
    return node


def far_cell(cache: CoverCache, lineage, yb: np.ndarray,
             nrm: np.ndarray) -> Optional[Node]:
    """The cell one generation below lineage[-1], just across its boundary.

    yb lies on the boundary of T = lineage[-1] (T's frame) and nrm is the
    outward normal there.  The point yb + eps nrm is carried up T's
    ancestors until one contains it, then descended from that ancestor:
    coordinates stay relative to the smallest cell that holds both sides.
    eps is ACROSS_EPS in T's units, floored at ACROSS_FLOOR in the units
    of the frame it is tested in, so a far-side cell thinner than that
    floor can be stepped over.  None when the point leaves the domain.
    """
    gen = len(lineage)
    y, ratio = yb, 1.0
    for j in range(len(lineage) - 1, -1, -1):
        node = lineage[j]
        y = node.rel_c + node.rel_s * y
        ratio *= node.rel_s
        if j == 0:
            break
        yp = y + max(ACROSS_EPS * ratio, ACROSS_FLOOR) * nrm
        parent = lineage[j - 1]
        if _margins(parent.verts[None], yp)[0] > 0.0:
            return descend(cache, parent, yp, gen - j + 1)
    # y is absolute now; the roots' own frames hold the far point
    for root in cache.roots:
        yr = (y - root.rel_c) / root.rel_s
        yr = yr + max(ACROSS_EPS * ratio / root.rel_s, ACROSS_FLOOR) * nrm
        if _margins(root.verts[None], yr)[0] > 0.0:
            return descend(cache, root, yr, gen)
    return None


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
      common ancestor, or from a root: far_cell), so shared edges count
      once;
    - stage_hists: the area of T's children per stage.

    wsup_max is a sample maximum, not an estimate of the true maximum: it
    is the largest wsup_unit r over the covers of the sampled cells, a
    lower bound that is exact when every cell of a generation is visited;
    wsup_max_se is NaN.  frozen_measure is |domain| times the fraction of
    lineages stopped by any other failure to build their cell's plan
    (CoverCache.cover); a stopped lineage keeps its cell, which then
    counts in perimeter_sum and the stage measure only.

    Rows also carry n_samples; the series' meta holds the aspects used
    (h_dyadic_used), h0, the restarts before it, the seed, the cache sizes
    and the standard errors of the stage measures (stage_hists_se).
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
    roots = root_nodes(st.verts, int(st.gid[0]))
    cache = CoverCache(eng, roots)
    root_areas = st.areas()
    omega = eng.domain_area
    rng = np.random.default_rng(seed)
    dens = np.zeros((generations, n_samples, len(SAMPLED_COLUMNS)))
    wsup = np.zeros(generations)
    frozen = np.zeros((generations, n_samples), dtype=bool)
    hists: List[List[np.ndarray]] = [[] for _ in range(generations)]
    starts = rng.choice(len(roots), size=n_samples,
                        p=root_areas / root_areas.sum())
    for i in range(n_samples):
        lineage = [roots[starts[i]]]
        y = uniform_in(lineage[0].verts, rng)
        for k in range(generations):
            T = lineage[-1]
            area = float(cv.tri_areas(T.verts[None])[0])
            stage = int(eng.table.stages[T.gid])
            cover = cache.cover(T)
            if cover is None:
                frozen[k:, i] = True
                dens[k:, i, 3] = float(cv.tri_perimeters(T.verts[None])[0]) \
                    / (area * T.abs_s)
                for j in range(k, generations):
                    hists[j].append(_stage_vec(stage, 1.0))
                break
            plan = cover.plan
            dens[k, i, 0] = plan.flip_area_unit * cover.sum_r2 / area
            dens[k, i, 1] = plan.grad_l1_unit * cover.sum_r2 / area
            dens[k, i, 2] = plan.w_l1_unit * cover.sum_r3 * T.abs_s / area
            dens[k, i, 3] = cover.perimeter / (area * T.abs_s)
            jump = _boundary_jump(cache, lineage, cover, rng)
            dens[k, i, 4] = ((bv_inside(cover, cache.plan_data(T.gid))
                              + 0.5 * jump) / (area * T.abs_s))
            wsup[k] = max(wsup[k], plan.wsup_unit * cover.max_r * T.abs_s)
            hist = cover.diamond_stage_area / area
            hists[k].append(_stage_vec(stage, 1.0 - float(hist.sum()),
                                       hist))
            child, y = locate(T, cover, y)
            lineage.append(child)
            y = uniform_in(child.verts, rng)
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
                       restarts=eng.restarts, seed=seed,
                       plans=len(eng.piece_rows), covers=len(cache.covers),
                       stage_hists_se=hist_se)
    return series


def _stage_vec(stage: int, value: float,
               base: np.ndarray = np.zeros(0)) -> np.ndarray:
    """Stage-measure vector: base plus value at stage."""
    out = np.zeros(max(stage + 1, base.shape[0]))
    out[:base.shape[0]] = base
    out[stage] += value
    return out


def _boundary_jump(cache: CoverCache, lineage, cover,
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
    inner, _ = locate(T, cover, yb - INSIDE_EPS * nrm)
    outer = far_cell(cache, lineage, yb, nrm)
    phases = cache.eng.table.phases
    jump = outer is not None and phases[outer.gid] != phases[inner.gid]
    return total if jump else 0.0
