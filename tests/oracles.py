"""Closed forms and scans that only the tests read.

They check the package from outside: the rank-one connection scan of the
diagonal pair, the well separation, the gap coefficient and the
Lipschitz constant of the Gram map, and the area of a cover's diamond
pieces, the normal form of the wells, the names of the cell's five
gradient slots, and the per-line reduction of a full interval sweep that
analysis.sweep_totals must equal.  The *_ref functions are the kernels of
analysis and covering written with reductions over short axes
(.max(axis=1), np.linalg.norm(axis=...), .all(axis=1), ufunc.reduce,
.sum(axis=1)); the package computes the same elementwise on columns, and
must keep their bits.  dist_to_wells and rank_one_factors
are the one-matrix cases of matgeo.dist_to_wells_b / phases and of the
stacked rank-one factorization of the cell construction; coords_to_matrix
inverts matgeo.matrix_to_coords.
"""

import math

import numpy as np

from twowell import analysis as an
from twowell import cell as cl
from twowell import covering as cv
from twowell import matgeo as mg
from twowell import onewell as ow
from twowell.errors import InvalidParameterError, raise_first


# the five gradient slots of a cell, indexed by cell.GRAD_INDEX
GRAD_NAMES = ("a_core", "b_flank", "a_cap", "corr_ne", "corr_nw")


def tilde_frame(delta: float):
    """(dbar, tilde_plus, tilde_minus): the normal-form transformation
    D Q F0 of the wells, the lower-triangular shears [[1,0],[+-dbar,1]]
    with dbar = delta/(1 + delta^2)."""
    wells = mg.make_wells(delta)
    d = wells.delta
    Q = np.array([[1.0, -d], [d, 1.0]])
    D = np.diag([1.0, 1.0 / (1.0 + d * d)])
    return d / (1.0 + d * d), D @ Q @ wells.F0, D @ Q.T @ wells.F0inv


def coords_to_matrix(c: mg.LaminateCoords, delta: float) -> np.ndarray:
    return c.rotation @ mg.laminate_matrix(c.branch, c.mu, c.lam, delta)


def connection_scan(delta: float, n: int = 720) -> dict:
    """Scan Q = R(theta) for rank-one connections F1 - Q F2 of the
    diagonal pair.

    det(F1 - R(theta) F2) = 2(1 - cos theta) independently of delta, so
    the only root is theta = 0, where F1 - F2 = 2 delta e2 x e2.  Returns
    the grid, the determinants, and the smallest singular values.
    """
    wells = ow.make_diagonal_wells(delta)
    thetas = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    c, s = np.cos(thetas), np.sin(thetas)
    R = np.moveaxis(np.array([[c, -s], [s, c]]), -1, 0)
    D = wells.F1[None] - R @ wells.F2
    dets = np.linalg.det(D)
    smin = np.linalg.svd(D, compute_uv=False)[:, -1]
    return {"thetas": thetas, "dets": dets, "sigma_min": smin}


def good_area(res: cv.CoverResult) -> float:
    """Total area of the diamond pieces of a cover."""
    return float(cv.tri_areas(res.verts[res.good]).sum())


def well_distance_sq(delta: float) -> float:
    """Squared distance between the two wells, 4 + 2d^2 - 2 sqrt(d^4 + 4)."""
    if delta <= 0:
        raise InvalidParameterError("delta must be positive")
    d2 = delta * delta
    return 4.0 + 2.0 * d2 - 2.0 * math.sqrt(d2 * d2 + 4.0)


def well_distance(delta: float) -> float:
    return math.sqrt(well_distance_sq(delta))


def gap_coefficient(branch: int, lam: float, delta: float) -> float:
    """g_b(lam): the improvable diagonal gap equals g_b * mu * (1 - mu)."""
    dt = delta * (1.0 - 2.0 * lam)
    g1 = 4.0 * dt * dt / (1.0 + dt * dt)
    return g1 if branch == 1 else (1.0 + delta * delta) * g1


def lipschitz_bound_constant(delta: float) -> float:
    """Lipschitz constant of C(.) on the hull: 2 sqrt(2 + delta^2)."""
    return 2.0 * math.sqrt(2.0 + delta * delta)


def dist_to_wells(F: np.ndarray, wells: mg.WellPair) -> tuple[float, int]:
    """Distance from F to the union of the wells and which well is closer.

    Returns (dist, phase) with the phase as in matgeo.phases.
    """
    Fs = np.asarray(F, dtype=float)[None]
    phase = int(mg.phases(Fs, wells)[0])
    return float(mg.dist_to_wells_b(Fs, wells)[0, phase - 1]), phase


def rank_one_factors(D: np.ndarray):
    """D = rho0 a (x) n with |a| = |n| = 1, a oriented to a1 >= 0;
    InvalidPairError unless D has rank one."""
    rho0, a, n, errors = cl._rank_one(np.asarray(D, dtype=float)[None])
    raise_first(errors)
    return float(rho0[0]), a[0], n[0]


def twin_intervals(sw: an.SweepAccumulator, twins: np.ndarray) -> np.ndarray:
    """Mask of the intervals of sw whose two owners are the cells of a
    twin pair of twins (LineTotals.twins of the swept cells)."""
    n = twins.shape[0]
    e = np.flatnonzero(twins.reshape(-1) >= 0)
    a, b = e // 3, twins.reshape(-1)[e] // 3
    lo, ro = sw.left_owner, sw.right_owner
    return (lo >= 0) & (ro >= 0) & np.isin(
        np.minimum(lo, ro) * n + np.maximum(lo, ro),
        np.minimum(a, b) * n + np.maximum(a, b))


def _interval_terms(sw: an.SweepAccumulator, cells: an.CellFields) -> dict:
    """Each public term function of cells over the intervals of sw."""
    lo, ro, dt = sw.left_owner, sw.right_owner, sw.dt
    terms = {"bv_chi": an.jump_terms(cells.chi, lo, ro, dt, gid=cells.gid),
             "bv_grad": an.grad_jump_terms(cells.grads, lo, ro, dt,
                                           gid=cells.gid)}
    if cells.offs is not None:
        terms["continuity"] = an.continuity_terms(
            cells.grads, cells.offs, lo, ro, sw.point_lo, sw.point_hi,
            gid=cells.gid)
        terms["trace"], terms["stray"] = an.trace_terms(
            cells.grads, cells.offs, cells.M, cells.hull_segments, lo, ro,
            sw.point_lo, sw.point_hi, dt, sw.frame[1], gid=cells.gid)
    return terms


def line_totals(sw: an.SweepAccumulator, cells: an.CellFields,
                twins=None) -> dict:
    """{column: array} of the LineTotals of cells over the full interval
    sweep sw, and its frame under "frame": the line keys of its runs of
    intervals, whether a run holds a doubly covered interval, and each
    public term function over sw, reduced over each run with
    np.add.reduceat, or np.maximum.reduceat for continuity and trace.
    With twins (LineTotals.twins of the swept cells) the twin intervals
    (twin_intervals) are left out, and so is a line left with no interval
    that has an owner or an overlap."""
    head = np.ones(sw.dt.shape[0], dtype=bool)
    head[1:] = (sw.line[1:] != sw.line[:-1]).any(axis=1)
    line = np.cumsum(head) - 1
    keep = np.ones(sw.dt.shape[0], dtype=bool)
    if twins is not None:
        keep = ~twin_intervals(sw, twins)
        held = keep & ((sw.left_owner >= 0) | (sw.right_owner >= 0)
                       | sw.overlap)
        keep &= np.isin(line, line[held])
    line = line[keep]
    starts = np.flatnonzero(np.diff(line, prepend=-1) != 0)
    terms = _interval_terms(sw, cells)
    add = ("bv_chi", "bv_grad", "stray")
    return {"frame": sw.frame,
            "line": np.take(sw.line[keep], starts, axis=0),
            "overlap": np.logical_or.reduceat(sw.overlap[keep], starts),
            **{name: (np.add if name in add else np.maximum).reduceat(
                t[keep], starts) for name, t in terms.items()}}


def twin_totals(sw: an.SweepAccumulator, cells: an.CellFields,
                twins: np.ndarray) -> np.ndarray:
    """(n, k): the LineTotals.twin_terms of cells as the full interval sweep
    sw gives them: the twin intervals' bv_chi, bv_grad and (with offsets)
    continuity terms, each reduced over the pairs of a cell that owns them
    (the lower cell of the two)."""
    mask = twin_intervals(sw, twins)
    owner = np.minimum(sw.left_owner, sw.right_owner)[mask]
    terms = _interval_terms(sw, cells)
    names = [name for name in an.TWIN_COLUMNS if name in terms]
    out = np.zeros((twins.shape[0], len(names)))
    for c, name in enumerate(names):
        reduce = np.add if name != "continuity" else np.maximum
        reduce.at(out[:, c], owner, terms[name][mask])
    return out


# ---------------------------------------------------------------------------
# the short-axis forms of the package's kernels, kept as references
# ---------------------------------------------------------------------------

def tri_perimeters_ref(verts: np.ndarray) -> np.ndarray:
    e = verts - np.roll(verts, 1, axis=1)
    return np.linalg.norm(e, axis=2).sum(axis=1)


def grad_jump_terms_ref(grads, lo, ro, dt, gid=None):
    both = (lo >= 0) & (ro >= 0)
    jump = np.linalg.norm(np.take(grads, an._rows(lo, gid), axis=0)
                          - np.take(grads, an._rows(ro, gid), axis=0),
                          axis=(1, 2))
    return np.where(both, jump, 0.0) * dt


def continuity_terms_ref(grads, offs, lo, ro, p_lo, p_hi, gid=None):
    both = (lo >= 0) & (ro >= 0)
    out = np.zeros(lo.shape[0])
    lo, ro = lo[both], ro[both]
    dg = (np.take(grads, an._rows(lo, gid), axis=0)
          - np.take(grads, an._rows(ro, gid), axis=0))
    do = np.take(offs, lo, axis=0) - np.take(offs, ro, axis=0)
    out[both] = np.maximum(*(
        np.abs(np.einsum("nij,nj->ni", dg, np.compress(both, pts, axis=0))
               + do).max(axis=1)
        for pts in (p_lo, p_hi)))
    return out


def trace_terms_ref(grads, offs, M, hull_segments, lo, ro, p_lo, p_hi, dt,
                    diam, gid=None):
    trace, stray = np.zeros(lo.shape[0]), np.zeros(lo.shape[0])
    at = np.flatnonzero((lo >= 0) ^ (ro >= 0))
    own = np.where(lo >= 0, lo, ro)[at]
    p_lo, p_hi = np.take(p_lo, at, axis=0), np.take(p_hi, at, axis=0)
    hs = np.asarray(hull_segments, dtype=float)
    a = hs[:, 0]
    d = hs[:, 1] - hs[:, 0]
    length = np.linalg.norm(d, axis=1)
    tang = d / length[:, None]
    nrm = np.stack([-tang[:, 1], tang[:, 0]], axis=1)
    cs = np.einsum("mj,mj->m", nrm, a)
    ts = np.einsum("mj,mj->m", tang, a)
    tol = 1e-8 * diam

    def within(p):
        t = p @ tang.T - ts[None, :]
        return ((np.abs(p @ nrm.T - cs[None, :]) <= tol) & (t >= -tol)
                & (t <= length[None, :] + tol))

    on = np.any(within(p_lo) & within(p_hi), axis=1)
    stray[at[~on]] = dt[at[~on]]
    dg = np.take(grads, an._rows(own[on], gid), axis=0) - M[None]
    do = np.take(offs, own[on], axis=0)
    trace[at[on]] = np.maximum(*(
        np.abs(np.einsum("nij,nj->ni", dg, np.compress(on, pts, axis=0))
               + do).max(axis=1)
        for pts in (p_lo, p_hi)))
    return trace, stray


def edge_chunk_ref(verts, frame, eid):
    center, diam = frame
    p0, p1 = ((p - center) / diam for p in an._edge_ends(verts, eid))
    d = p1 - p0
    length = np.linalg.norm(d, axis=1)
    good = length > 0
    eid, length = eid[good], length[good]
    p0, p1, d = (np.compress(good, a, axis=0) for a in (p0, p1, d))
    dh = d / length[:, None]
    nx, ny = -dh[:, 1], dh[:, 0]
    qnx = np.round(nx / an.LINE_QUANTUM).astype(np.int32)
    qny = np.round(ny / an.LINE_QUANTUM).astype(np.int32)
    flip = (qnx < 0) | ((qnx == 0) & (qny < 0))
    s = np.where(flip, -1.0, 1.0)
    nx, ny = nx * s, ny * s
    qnx, qny = np.where(flip, -qnx, qnx), np.where(flip, -qny, qny)
    c = nx * p0[:, 0] + ny * p0[:, 1]
    qc = np.round(c / an.LINE_QUANTUM).astype(np.int32)
    t0 = ny * p0[:, 0] - nx * p0[:, 1]
    t1 = ny * p1[:, 0] - nx * p1[:, 1]
    left = t1 > t0
    key = np.stack([qnx, qny, qc], axis=1)
    return eid, key, np.minimum(t0, t1), np.maximum(t0, t1), left


def pair_twins_ref(twins, verts, first, table):
    flat = twins.reshape(-1)
    step = max(an.SWEEP_CHUNK // max(table.shape[0], 1), 1)
    for s in range(0, first.shape[0], step):
        at = 3 * first[s:s + step, None]
        e = (at + 3 * table[:, 0] + table[:, 1]).reshape(-1)
        f = (at + 3 * table[:, 2] + table[:, 3]).reshape(-1)
        e0, e1 = an._edge_ends(verts, e)
        f0, f1 = an._edge_ends(verts, f)
        same = ((e0 == f1) & (e1 == f0)).all(axis=1)
        e, f = e[same], f[same]
        flat[e], flat[f] = f, e


def twin_terms_ref(verts, twins, cells, diam, rows):
    names = an._term_names(cells)[:3]
    out = np.empty((rows.shape[0], len(names)))
    for i in range(0, rows.shape[0], an.SWEEP_CHUNK):
        r = rows[i:i + an.SWEEP_CHUNK]
        e = 3 * r[:, None] + np.arange(3)
        f = np.take(twins, r, axis=0)
        own = np.flatnonzero(f > e)
        e, f = e.reshape(-1)[own], f.reshape(-1)[own]
        p0, p1 = an._edge_ends(verts, e)
        dt = np.linalg.norm(p1 - p0, axis=1)
        dt[dt <= an.SLIVER * diam] = 0.0
        a, b = e // 3, f // 3
        terms = [an.jump_terms(cells.chi, a, b, dt, gid=cells.gid),
                 grad_jump_terms_ref(cells.grads, a, b, dt, gid=cells.gid)]
        if len(names) == 3:
            terms.append(np.where(dt > 0, continuity_terms_ref(
                cells.grads, cells.offs, a, b, p0, p1, gid=cells.gid), 0.0))
        for c, (name, t) in enumerate(zip(names, terms)):
            slots = np.zeros(3 * r.shape[0])
            slots[own] = t
            out[i:i + r.shape[0], c] = an.TERM_REDUCTIONS[name].reduce(
                slots.reshape(-1, 3), axis=1)
    return out


# analysis and covering attributes and their references
KERNEL_REFS = {
    (an, "grad_jump_terms"): grad_jump_terms_ref,
    (an, "continuity_terms"): continuity_terms_ref,
    (an, "trace_terms"): trace_terms_ref,
    (an, "_edge_chunk"): edge_chunk_ref,
    (an, "pair_twins"): pair_twins_ref,
    (an, "_twin_terms"): twin_terms_ref,
    (cv, "tri_perimeters"): tri_perimeters_ref,
}
