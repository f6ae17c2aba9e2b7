"""Piecewise-affine replacement cell on a diamond.

Given rank-one-connected A, B with barycenter C = lam A + (1-lam) B, the
cell interpolates between boundary values Cx and a two-scale laminate
whose gradients sit near A on a lam-fraction of the diamond and near B on
the rest, using ten affine pieces and exactly five distinct gradients.

The construction is assembled in a normalized frame where C = Id and
A - B is a vertical shear of signed size g0 across horizontal interfaces;
the physical cell is the exact conjugation of that template by the
rank-one frame of A - B and left-multiplication by C.  All ten pieces
have determinant-one gradients and the boundary trace is Cx exactly.
A plan (RefinePlan) holds one such cell on the unit diamond, and
RefinePlan.place lays it at any center and scale.
"""

from __future__ import annotations

from dataclasses import dataclass
import itertools
from typing import Optional

import numpy as np

from . import matgeo as mg
from . import inapprox as ia
from .errors import (AspectFailureError, ConstructionFailureError,
                     InvalidPairError, InvalidParameterError,
                     WrongEntryPointError, clean, fail, raise_first)

H_MAX = 0.125           # diamond aspect bound; calibration grid starts here
H_FLOOR = 2.0 ** -20    # verify-and-shrink giving up threshold

# triangle -> gradient slot (blue,blue,green,green,orange,orange,red,red,yel,yel)
GRAD_INDEX = np.array([0, 0, 1, 1, 2, 2, 3, 3, 4, 4])


def _diamond_points(h: float) -> np.ndarray:
    return np.array([[0.0, 1.0], [0.0, -1.0], [h, 0.0], [-h, 0.0]])


#                  blue            green          orange        red        yellow
_TRIS = np.array([
    [4, 7, 6], [4, 6, 5],          # core quad xa xd xc / xa xc xb
    [5, 2, 6], [7, 3, 4],          # flanks at the right/left tips
    [4, 5, 0], [6, 7, 1],          # caps toward top/bottom
    [5, 2, 0], [7, 3, 1],          # corrector NE / SW
    [4, 0, 3], [6, 1, 2],          # corrector NW / SE
])


def _template_grads(lam: np.ndarray, h: float, g0: np.ndarray,
                    mu_g: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The five closed-form gradients (n,5,2,2) of n normalized cells."""
    Abar = mg.mat2(1.0, 0.0, (1.0 - lam) * g0, 1.0)
    Bbar = mg.mat2(1.0, 0.0, -lam * g0, 1.0)
    E = mg.mat2(1.0, -q * (1.0 - mu_g), 0.0, 1.0)
    Fcap = mg.mat2(1.0, q * mu_g, 0.0, 1.0)
    sG = -(1.0 - lam) * h * (1.0 - h - g0 * lam * h)
    G = np.eye(2) + ((g0 * lam * (1.0 - lam) * h / sG)[:, None, None]
                     * np.outer([-h, 1.0], [1.0, h]))
    sH = h * (1.0 - lam) * (1.0 - h + g0 * lam * h)
    H = np.eye(2) - ((g0 * lam * (1.0 - lam) * h / sH)[:, None, None]
                     * np.outer([h, 1.0], [1.0, -h]))
    return np.stack([Abar @ E, Bbar @ E, Abar @ Fcap, G, H], axis=1)


@dataclass
class _Templates:
    """The normalized cells of a stack of (lam, g0) at one aspect h.

    errors[i] is row i's first failing check, or None.  The arrays hold
    the rows in `rows`: those that pass the parameter and fit checks (a
    built row may fail a later check).
    """
    errors: list
    rows: np.ndarray         # (n,)
    points: np.ndarray       # (n,8,2): top, bottom, right, left, xa..xd
    values: np.ndarray       # (n,8,2) boundary-compatible displacements
    tris: np.ndarray         # (n,10,3) indices into points, CCW
    grads: np.ndarray        # (n,5,2,2) the distinct gradients
    offs: np.ndarray         # (n,10,2) per-triangle affine offsets
    areas: np.ndarray        # (n,10)


def _templates(lam: np.ndarray, h: float, g0: np.ndarray) -> _Templates:
    """The normalized ten-piece cells of a stack of non-trivial (lam, g0),
    0 < lam < 1 and g0 != 0, at one aspect h; see module docstring.

    A row fails with AspectFailureError if its shear is too strong for
    the aspect h, and with ConstructionFailureError if a closed-form
    gradient disagrees with the corner interpolation beyond PIPE_TOL, a
    piece is not affine, the pieces fail to tile or a determinant drifts.
    """
    b = lam.shape[0]
    errors = [None] * b
    fail(errors, ~((0.0 <= lam) & (lam <= 1.0)), lambda i:
         InvalidParameterError(f"lam must be in [0,1], got {lam[i]}"))
    if not (0.0 < h <= H_MAX + 1e-15):
        fail(errors, np.ones(b, dtype=bool), lambda i:
             InvalidParameterError(f"h must be in (0, {H_MAX}], got {h}"))
    fit = h * (1.0 + np.abs(g0) * np.maximum(lam, 1.0 - lam))
    fail(errors, fit >= 1.0, lambda i: AspectFailureError(
        "shear too strong for this aspect: "
        f"h(1+|g0|max(lam,1-lam)) = {fit[i]:.3f}"))
    rows = np.flatnonzero(clean(errors))
    lam, g0 = lam[rows], g0[rows]
    n = rows.shape[0]

    mu_g = (1.0 - lam) * h
    P = g0 * lam * (1.0 - lam) * h
    kk = P * h
    q = kk / (mu_g * (1.0 - mu_g))

    pts = np.empty((n, 8, 2))
    pts[:, :4] = _diamond_points(h)
    pts[:, 4, 0], pts[:, 4, 1] = -lam * h + kk, mu_g
    pts[:, 5, 0], pts[:, 5, 1] = lam * h + kk, mu_g
    pts[:, 6:] = -pts[:, 4:6]                      # xc, xd = -xa, -xb
    vals = pts.copy()
    vals[:, 4, 0], vals[:, 4, 1] = -lam * h, mu_g - P
    vals[:, 5, 0], vals[:, 5, 1] = lam * h, mu_g + P
    vals[:, 6:] = -vals[:, 4:6]

    # fix orientation: all pieces CCW
    at = np.arange(n)[:, None, None]
    tris = np.repeat(_TRIS[None], n, axis=0)
    tp = pts[at, tris]
    e1, e2 = tp[:, :, 1] - tp[:, :, 0], tp[:, :, 2] - tp[:, :, 0]
    flip = e1[..., 0] * e2[..., 1] - e1[..., 1] * e2[..., 0] < 0
    tris[flip] = tris[flip][:, [0, 2, 1]]

    grads = _template_grads(lam, h, g0, mu_g, q)
    gtri = grads[:, GRAD_INDEX]
    tp, tv = pts[at, tris], vals[at, tris]
    e1, e2 = tp[:, :, 1] - tp[:, :, 0], tp[:, :, 2] - tp[:, :, 0]
    # the affine interpolation of each piece's corner values
    interp = (np.stack([tv[:, :, 1] - tv[:, :, 0], tv[:, :, 2] - tv[:, :, 0]],
                       axis=-1)
              @ np.linalg.inv(np.stack([e1, e2], axis=-1)))
    dev = np.abs(interp - gtri).max(axis=(2, 3))
    resid = tv - tp @ np.swapaxes(gtri, 2, 3)
    skew = np.abs(resid - resid[:, :, :1]).max(axis=(2, 3))
    offs = resid[:, :, 0].copy()
    areas = 0.5 * (e1[..., 0] * e2[..., 1] - e1[..., 1] * e2[..., 0])

    bad = (dev > mg.PIPE_TOL) | (skew > mg.PIPE_TOL)
    first = np.argmax(bad, axis=1)

    def piece_error(j):
        i = first[j]
        if dev[j, i] > mg.PIPE_TOL:
            return ConstructionFailureError(
                f"piece {i}: closed-form gradient disagrees with corner "
                f"interpolation by {dev[j, i]:.2e}")
        return ConstructionFailureError(f"piece {i} is not affine")

    fail(errors, bad.any(axis=1), piece_error, rows)
    fail(errors, np.abs(areas.sum(axis=1) - 2.0 * h) > 1e-12 * (2.0 * h),
         lambda j: ConstructionFailureError("pieces do not tile the diamond"),
         rows)
    fail(errors, np.abs(np.linalg.det(grads) - 1.0).max(axis=1) > 1e-10,
         lambda j: ConstructionFailureError("gradient determinant drift"),
         rows)
    return _Templates(errors, rows, pts, vals, tris, grads, offs, areas)


# ---------------------------------------------------------------------------
# physical cells
# ---------------------------------------------------------------------------

def _rank_one(D: np.ndarray):
    """D = rho0 a (x) n with |a| = |n| = 1 and a1 >= 0 for a stack D (b,2,2):
    (rho0, a, n, errors); InvalidPairError unless D has rank one, singular
    values s0 > PIPE_TOL and s1 <= PIPE_TOL max(s0, 1)."""
    U, s, Vt = np.linalg.svd(D)
    errors = [None] * D.shape[0]
    fail(errors, (s[:, 0] <= mg.PIPE_TOL)
         | (s[:, 1] > mg.PIPE_TOL * np.maximum(s[:, 0], 1.0)),
         lambda i: InvalidPairError(
             f"A - B must have rank one, singular values {s[i]}"))
    a, n = U[:, :, 0], Vt[:, 0]
    flip = ((a[:, 0] < 0) | ((a[:, 0] == 0) & (a[:, 1] < 0)))[:, None]
    return s[:, 0], np.where(flip, -a, a), np.where(flip, -n, n), errors


def _shears(D: np.ndarray, C: np.ndarray):
    """(g0, S, errors) of the pairs with A - B = D (b,2,2) about C (b,2,2):
    S = [n, n_perp] and the signed shear g0 of C^-1 D along n_perp, per
    row; a row's error is an InvalidPairError when its pair does not
    transport to a shear of det-1 matrices."""
    rho0, a, n, errors = _rank_one(D)
    Cinv_a = np.linalg.solve(C, a[:, :, None])
    fail(errors, np.abs((n[:, None] @ Cinv_a)[:, 0, 0]) > 1e-7, lambda i:
         InvalidPairError("pair is inconsistent with det-1 transport"))
    n_perp = np.stack([-n[:, 1], n[:, 0]], axis=1)
    g0 = (n_perp[:, None] @ Cinv_a)[:, 0, 0] * rho0
    fail(errors, g0 == 0.0, lambda i: InvalidPairError("degenerate shear"))
    return g0, np.stack([n, n_perp], axis=2), errors


@dataclass
class _Pairs:
    """A stack of pairs (A, B) about C, with what does not depend on the
    aspect: the shear g0 and frame S of each pair (zero where they were
    not made) and each row's first failing check so far."""
    A: np.ndarray              # (b,2,2)
    C: np.ndarray
    lam: np.ndarray            # (b,)
    trivial: np.ndarray        # (b,) A = B or lam in {0, 1}
    g0: np.ndarray             # (b,)
    S: np.ndarray              # (b,2,2)
    errors: list


def _pairs(A: np.ndarray, B: np.ndarray, C: np.ndarray,
           lam: np.ndarray) -> _Pairs:
    b = lam.shape[0]
    errors = [None] * b
    for M, name in ((A, "A"), (B, "B")):
        det = np.linalg.det(M)
        fail(errors, np.abs(det - 1.0) > 1e-9, lambda i:
             InvalidPairError(f"det {name} = {det[i]:.12f}, need 1"))
    w = lam[:, None, None]
    fail(errors, np.abs(w * A + (1.0 - w) * B - C).max(axis=(1, 2))
         > 100 * mg.PIPE_TOL,
         lambda i: InvalidPairError("C is not the lam-barycenter of (A, B)"))
    trivial = ((np.abs(A - B).max(axis=(1, 2)) <= mg.PIPE_TOL)
               | (lam == 0.0) | (lam == 1.0))
    g0, S = np.zeros(b), np.zeros((b, 2, 2))
    live = np.flatnonzero(clean(errors) & ~trivial)
    g0[live], S[live], shear_errors = _shears(A[live] - B[live], C[live])
    fail(errors, ~clean(shear_errors), lambda j: shear_errors[j], live)
    return _Pairs(A, C, lam, trivial, g0, S, errors)


@dataclass
class _Cells:
    """The cells of a stack of pairs at one aspect h.

    grads holds every row's five physical slot gradients: C in each slot
    of a trivial row, zero in a row that failed.  errors[i] is row i's
    first failing check, or None.
    """
    pairs: _Pairs
    templates: _Templates      # of the rows that were built
    grads: np.ndarray          # (b,5,2,2)
    errors: list


def _cells(p: _Pairs, h: float) -> _Cells:
    """The stacked construction behind every plan and calibrate_h0."""
    errors = list(p.errors)
    live = np.flatnonzero(clean(errors) & ~p.trivial)
    t = _templates(p.lam[live], h, p.g0[live])
    fail(errors, ~clean(t.errors), lambda j: t.errors[j], live)
    rows = live[t.rows]
    S, C = p.S[rows], p.C[rows]
    grads = np.zeros((len(errors), 5, 2, 2))
    grads[rows] = np.einsum("bij,bnjk,blk->bnil", C @ S, t.grads, S)
    # exactness of the frame transport: A = C S Abar S^T etc.
    Abar = np.swapaxes(S, 1, 2) @ np.linalg.solve(C, p.A[rows]) @ S
    want = mg.mat2(1, 0, (1 - p.lam[rows]) * p.g0[rows], 1)
    fail(errors, np.abs(Abar - want).max(axis=(1, 2)) > 1e-7, lambda j:
         InvalidPairError("frame transport failed to normalize A"), rows)
    trivial = np.flatnonzero(clean(p.errors) & p.trivial)
    grads[trivial] = p.C[trivial, None]
    return _Cells(p, t, grads, errors)


# ---------------------------------------------------------------------------
# stage-driven replacement plans (placement-free, cached by the engine)
# ---------------------------------------------------------------------------

@dataclass
class RefinePlan:
    """Everything needed to refine cells sharing one gradient.

    Placement-independent: physical gradients depend only on (M, rule),
    vertices and offsets are affine in the diamond (center, scale), and
    place lays them.  unit_verts live on the unit diamond (center 0,
    scale 1).
    """
    M: np.ndarray
    stage: int
    h: float
    S: np.ndarray
    unit_verts: np.ndarray      # (n,3,2)
    grads: np.ndarray           # (n,2,2) per piece (expanded, not slots)
    bvec: np.ndarray            # (n,2): offset = (M - G_i) y0 + r bvec + o_p
    stages: np.ndarray          # (n,)
    phases: np.ndarray          # (n,) 1 or 2
    areas_unit: np.ndarray      # (n,)
    # per-diamond metric contributions at unit scale; a placed diamond at
    # scale r adds r^2*flip_area_unit to the chi L1 step difference,
    # r^2*grad_l1_unit to the gradient L1 difference, and the displacement
    # w = u_new - u_old obeys sup|w| = r*wsup_unit, int|w| <= r^3*w_l1_unit
    parent_phase: int
    flip_area_unit: float
    grad_l1_unit: float
    wsup_unit: float
    w_l1_unit: float
    perim_unit: float

    @property
    def n_pieces(self) -> int:
        return self.unit_verts.shape[0]

    @property
    def dhat(self) -> np.ndarray:
        """Diamond axis direction (the long direction of the stack)."""
        return self.S[:, 1]

    def place(self, centers: np.ndarray, r: np.ndarray, off: np.ndarray):
        """(verts (m,n,3,2), offs (m,n,2)): the pieces of m diamonds at
        centers (m,2) and scales r (m,) in a parent whose map is
        u = M y + off[d] (off (m,2)).  Piece i of diamond d has vertices
        centers[d] + r[d] unit_verts[i] and offset
        (M - G_i) centers[d] + r[d] bvec[i] + off[d]; its map agrees with
        the parent's on the diamond's boundary."""
        # sums in place: a batch's verts and offs are both live on return,
        # so each is built with one temporary at most
        verts = r[:, None, None, None] * self.unit_verts[None]
        verts += centers[:, None, None, :]
        offs = np.einsum("jkl,il->ijk", self.M[None] - self.grads, centers)
        offs += r[:, None, None] * self.bvec[None]
        offs += off[:, None]
        return verts, offs


def _cell_pair(sr: mg.SplitResult):
    """(lam, A, B) of a split, the cell's A side the minority child; of
    each row for the SplitResult of a stack."""
    flip = np.asarray(sr.rho >= 0.5)
    lam = np.where(flip, 1.0 - sr.rho, sr.rho)[()]
    flip = flip[..., None, None]
    return (lam, np.where(flip, sr.Fminus, sr.Fplus),
            np.where(flip, sr.Fplus, sr.Fminus))


def _plan_from_split(M: np.ndarray, stage: int, sr: mg.SplitResult, h: float,
                     delta: float, wells: mg.WellPair) -> Optional[RefinePlan]:
    """The plan of the cell of the split sr of M at aspect h: row 0 of the
    stacked construction (_cells).  None when the template does not fit h
    (AspectFailureError) or the pair is trivial (A = B or lam in {0, 1}),
    whose every piece would keep M and so advance nothing; any other
    failed check raises its error."""
    lam, A, B = _cell_pair(sr)
    cells = _cells(_pairs(A[None], B[None], M[None],
                          np.array([lam], dtype=float)), h)
    try:
        raise_first(cells.errors)
    except AspectFailureError:
        return None
    if cells.pairs.trivial[0]:
        return None
    t, S = cells.templates, cells.pairs.S[0]
    MS = M @ S
    points, tris, areas = t.points[0], t.tris[0], t.areas[0]
    grads = cells.grads[0][GRAD_INDEX]
    # hull exit of a corrector gradient counts as a failed attempt (-1),
    # prompting the callers' verify-and-shrink loop to reduce h
    stages = ia.classify_stack(cells.grads[0], delta)[GRAD_INDEX]
    phases = mg.phases(grads, wells)
    unit_verts = points[tris] @ S.T
    parent_phase = int(mg.phases(M[None], wells)[0])
    flip_area = float(areas[phases != parent_phase].sum())
    grad_l1 = float(np.sum(areas * np.linalg.norm(grads - M, axis=(1, 2))))
    # vertex displacements in unit coords: w_j = (M S)(v_j - p_j)
    w8 = (t.values[0] - points) @ MS.T
    wn = np.linalg.norm(w8, axis=1)
    wsup = float(wn.max())
    w_l1 = float(np.sum(areas * wn[tris].mean(axis=1)))
    edges = unit_verts - np.roll(unit_verts, 1, axis=1)
    perim = float(np.linalg.norm(edges, axis=2).sum())
    return RefinePlan(M, stage, h, S, unit_verts, grads, t.offs[0] @ MS.T,
                      stages, phases, areas, parent_phase, flip_area,
                      grad_l1, wsup, w_l1, perim)


def _aspects():
    """The aspect ladder H_MAX, H_MAX/2, ... H_FLOOR.  A rung fails when the
    template does not fit h (AspectFailureError) or the plan does not
    advance; every search on it, run_construction's too, takes the next."""
    h = H_MAX
    while h >= H_FLOOR:
        yield h
        h *= 0.5


def _advances(stages: np.ndarray, stage):
    """The dyadic rule: every piece (or slot) of a stage >= 2 plan
    classifies to stage + 1; over the last axis of stages."""
    return np.all(stages == stage + 1, axis=-1)


def _dyadic_plan(M: np.ndarray, stage: int, h: float, delta: float,
                 wells: mg.WellPair) -> Optional[RefinePlan]:
    """The plan of a stage >= 2 matrix at aspect h when it fits h and
    advances (_advances), else None."""
    branch, eps = ia.dyadic_split_target(stage, delta)
    sr = mg.split(M, branch, eps, delta)
    plan = _plan_from_split(M, stage, sr, h, delta, wells)
    return plan if plan is not None and _advances(plan.stages, stage) else None


def replace_dyadic_stage(M: np.ndarray, delta: float,
                         h0: float) -> RefinePlan:
    """Replacement plan for a stage >= 2 gradient at uniform aspect h0.

    This is where the dyadic stage rule holds (_dyadic_plan): the template
    fits h0 and every piece classifies to stage + 1, which a calibrated h0
    guarantees; otherwise AspectFailureError, the one failure on which
    run_construction restarts (at h0 / 2, see _aspects).  Covers take the
    plan's stages as they are.
    """
    stage = ia.classify(M, delta)
    if stage < 2:
        raise WrongEntryPointError(f"stage {stage} needs the low-stage rule")
    plan = _dyadic_plan(M, stage, h0, delta, mg.make_wells(delta))
    if plan is None:
        raise AspectFailureError(
            f"stage {stage} cell does not advance cleanly at h = {h0:.2e}")
    return plan


def replace_low_stage(M: np.ndarray, delta: float) -> RefinePlan:
    """Replacement plan for stage-0/1 gradients; h by verify-and-shrink.

    This is where the low-stage rule holds: the first rung of the aspect
    ladder (_aspects) at which every piece classifies strictly above the
    input stage wins (a piece may jump several stages); none down to
    H_FLOOR raises ConstructionFailureError, which is not retried.  Covers
    take the plan's stages as they are.
    """
    stage = ia.classify(M, delta)
    if stage >= 2:
        raise WrongEntryPointError(f"stage {stage} uses the dyadic rule")
    target = ia.low_stage_split_target(M, delta)
    sr = mg.split(M, target.branch, target.eps, delta)
    wells = mg.make_wells(delta)
    for h in _aspects():
        plan = _plan_from_split(M, stage, sr, h, delta, wells)
        if plan is not None and np.all(plan.stages > stage):
            return plan
    raise ConstructionFailureError(
        f"no admissible aspect above {H_FLOOR:.1e} for stage {stage} input")


# ---------------------------------------------------------------------------
# h0 calibration
# ---------------------------------------------------------------------------

_H0_CACHE: dict = {}
CALIBRATION_STAGES = range(2, 17)
# the band fractions of the engine's stress grid: the corridor its
# gradients visit, improved entries landing mid-band
CORRIDOR = (0.25, 0.5, 0.75)


def calibrate_h0(delta: float, fracs: tuple = (0.02, 0.5, 0.98)) -> float:
    """Largest h of the aspect ladder (_aspects) at which the dyadic plan of
    every grid matrix fits and advances; ConstructionFailureError if none.

    Stress grid: CALIBRATION_STAGES (2..16), band positions at the given
    fractions of each band, both off-diagonal signs.  The default pushes
    2% inside the edges (worst case); engine runs and the covering
    verifier calibrate on the narrower CORRIDOR their gradients actually
    visit (improved entries land mid-band).  The result is cached per
    (delta, fracs).

    The splits (one stacked split of the grid) and cell frames do not
    depend on h and are made once; a rung is then one pass of the stacked
    construction (_cells) and of the slot classification over the whole
    grid.  The rung is decided by the
    first grid matrix, in grid order, whose plan does not fit and advance,
    as in a search one matrix at a time: when that plan is None
    (_dyadic_plan) the next rung is taken, when a check failed its error
    is raised.  Failures at later matrices are not looked at.
    """
    key = (round(delta, 12), fracs)
    if key in _H0_CACHE:
        return _H0_CACHE[key]
    rows = []
    for k in CALIBRATION_STAGES:
        (lo1, hi1), (lo2, hi2) = ia.stage_band(k, delta)
        target = ia.dyadic_split_target(k, delta)
        rows += [(k, *target, lo1 + f1 * (hi1 - lo1),
                  lo2 + f2 * (hi2 - lo2), sign)
                 for f1, f2, sign in itertools.product(fracs, fracs,
                                                       (1.0, -1.0))]
    ks, branch, eps, d1, d2, signs = (np.array(c) for c in zip(*rows))
    Fs = ia.matrices_from_gaps(d1, d2, delta, signs)
    sr, split_errors = mg.split_stack(Fs, branch, eps, delta)
    lam, A, B = _cell_pair(sr)
    pairs = _pairs(A, B, Fs, lam)
    pairs.errors = [pe if se is None else se
                    for se, pe in zip(split_errors, pairs.errors)]
    stage = ks[:, None]
    for h in _aspects():
        cells = _cells(pairs, h)
        ok = clean(cells.errors) & _advances(
            ia.classify_stack(cells.grads, delta), stage)
        if ok.all():
            _H0_CACHE[key] = h
            return h
        first = cells.errors[int(np.argmin(ok))]
        if first is not None and not isinstance(first, AspectFailureError):
            raise first
    raise ConstructionFailureError(f"no uniform aspect calibrates for delta={delta}")


# ---------------------------------------------------------------------------
# the cell verification suite
# ---------------------------------------------------------------------------

@dataclass
class CellCheckReport:
    delta: float
    samples: int
    failures: int
    max_partition_err: float   # |sum of piece areas - area| / area
    max_trace_err: float       # boundary deviation from the affine map / scale
    max_stray_len: float       # boundary interval off the diamond / scale
    max_det_err: float         # worst |det(grad) - 1| over the five slots
    max_fraction_err: float    # |a_fraction - lam (1 + (1 - lam) h)|

    @property
    def ok(self) -> bool:
        return self.failures == 0


def verify_cells(delta: float, samples: int = 1_000,
                 seed: int = 0) -> CellCheckReport:
    """Exactness sweep over the plans of random admissible (A, B, lam, h).

    Pairs come from dyadic splits of random band matrices, so they are
    genuinely rank-one connected with unit determinants; h runs over the
    admissible aspect range below the pair's shear bound.  Each pair's
    plan (_plan_from_split) is laid by RefinePlan.place, as the covers lay
    it, at a random center and scale.  Per cell: exact partition of the
    diamond, unimodular piece gradients, majority fraction
    lam (1 + (1 - lam) h), and the affine boundary trace on the diamond's
    four sides (analysis.boundary_trace_residual, the covers' check), with
    no boundary interval off them.
    """
    from . import analysis as an
    rng = np.random.default_rng(seed)
    wells = mg.make_wells(delta)
    a_slots = np.isin(GRAD_INDEX, (0, 2))
    failures = 0
    mp = mt = ms = md = mf = 0.0
    for _ in range(samples):
        stage = int(rng.integers(2, 9))
        F = ia.sample_stage(stage, delta, rng)
        branch, eps = ia.dyadic_split_target(stage, delta)
        sr = mg.split(F, branch, eps, delta)
        lam, A, B = _cell_pair(sr)
        # h below the pair's shear bound, at which its template fits
        g0, _, errors = _shears((A - B)[None], F[None])
        raise_first(errors)
        h = float(rng.uniform(2.0 ** -10, min(
            H_MAX, 1.0 / (1.0 + abs(g0[0]) * max(lam, 1.0 - lam)))))
        center = rng.uniform(-2.0, 2.0, 2)
        scale = float(2.0 ** rng.uniform(-8, 1))
        plan = _plan_from_split(F, stage, sr, h, delta, wells)
        verts, offs = plan.place(center[None], np.array([scale]),
                                 np.zeros((1, 2)))
        corners = center + scale * (_diamond_points(h)[[0, 2, 1, 3]]
                                    @ plan.S.T)
        tr, stray = an.boundary_trace_residual(
            verts[0], plan.grads, offs[0], F,
            hull_segments=np.stack([corners, np.roll(corners, -1, axis=0)],
                                   axis=1))
        tr /= scale
        part = abs(plan.areas_unit.sum() - 2.0 * h) / (2.0 * h)
        det = float(np.abs(np.linalg.det(plan.grads) - 1.0).max())
        frac = abs(plan.areas_unit[a_slots].sum() / (2.0 * h)
                   - lam * (1.0 + (1.0 - lam) * h))
        mp, mt, ms = max(mp, part), max(mt, tr), max(ms, stray / scale)
        md, mf = max(md, det), max(mf, frac)
        if (part > 1e-12 or tr > 1e-10 or det > 1e-10 or frac > 1e-12
                or stray > 1e-8 * scale):
            failures += 1
    return CellCheckReport(delta, samples, failures, mp, mt, ms, md, mf)
