"""Closed forms and scans that only the tests read.

They check the package from outside: the rank-one connection scan of the
diagonal pair, the well separation, the gap coefficient and the
Lipschitz constant of the Gram map, and the area of a cover's diamond
pieces, the normal form of the wells, the names of the cell's five
gradient slots, and the per-line reduction of a full interval sweep that
analysis.sweep_totals must equal.  dist_to_wells and rank_one_factors
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


def line_totals(sw: an.SweepAccumulator, cells: an.CellFields) -> dict:
    """{column: array} of the LineTotals of cells over the full interval
    sweep sw, and its frame under "frame": the line keys of its runs of
    intervals, whether a run holds a doubly covered interval, and each
    public term function over sw, reduced over each run with
    np.add.reduceat, or np.maximum.reduceat for continuity and trace."""
    lo, ro, dt = sw.left_owner, sw.right_owner, sw.dt
    head = np.ones(dt.shape[0], dtype=bool)
    head[1:] = (sw.line[1:] != sw.line[:-1]).any(axis=1)
    starts = np.flatnonzero(head)
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
    add = ("bv_chi", "bv_grad", "stray")
    return {"frame": sw.frame, "line": np.take(sw.line, starts, axis=0),
            "overlap": np.logical_or.reduceat(sw.overlap, starts),
            **{name: (np.add if name in add else np.maximum).reduceat(
                t, starts) for name, t in terms.items()}}
