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
"""

from __future__ import annotations

from dataclasses import dataclass
import itertools
from typing import Optional

import numpy as np

from . import matgeo as mg
from . import inapprox as ia
from .errors import (
    InvalidParameterError,
    InvalidPairError,
    AspectFailureError,
    ConstructionFailureError,
    WrongEntryPointError,
    NotClassifiableError,
)

H_MAX = 0.125           # diamond aspect bound; calibration grid starts here
H_FLOOR = 2.0 ** -20    # verify-and-shrink giving up threshold

GRAD_NAMES = ("a_core", "b_flank", "a_cap", "corr_ne", "corr_nw")
# triangle -> gradient slot (blue,blue,green,green,orange,orange,red,red,yel,yel)
GRAD_INDEX = np.array([0, 0, 1, 1, 2, 2, 3, 3, 4, 4])


def _affine_gradient(tri: np.ndarray, vals: np.ndarray) -> np.ndarray:
    P = np.column_stack([tri[1] - tri[0], tri[2] - tri[0]])
    V = np.column_stack([vals[1] - vals[0], vals[2] - vals[0]])
    return V @ np.linalg.inv(P)


@dataclass
class CellTemplate:
    """Normalized cell: C = Id, interfaces normal to e2, unit diamond."""
    lam: float
    h: float
    q: float                 # inner-shear coefficient of the E/F factors
    mu_geom: float           # geometric interface height (1-lam) h
    points: np.ndarray       # (8,2): top, bottom, right, left, xa, xb, xc, xd
    values: np.ndarray       # (8,2) boundary-compatible displacement values
    tris: np.ndarray         # (10,3) indices into points, CCW
    grads: np.ndarray        # (5,2,2) distinct gradients
    offs: np.ndarray         # (10,2) per-triangle affine offsets
    areas: np.ndarray        # (10,)
    trivial: bool = False

    @property
    def area(self) -> float:
        return 2.0 * self.h

    def a_fraction(self) -> float:
        return float(self.areas[GRAD_INDEX == 0].sum()
                     + self.areas[GRAD_INDEX == 2].sum()) / self.area


def _diamond_points(h: float) -> np.ndarray:
    return np.array([[0.0, 1.0], [0.0, -1.0], [h, 0.0], [-h, 0.0]])


def _trivial_template(lam: float, h: float) -> CellTemplate:
    pts = _diamond_points(h)
    tris = np.array([[3, 1, 2], [3, 2, 0]])
    areas = np.full(2, h)
    tpl = CellTemplate(lam, h, 0.0, (1.0 - lam) * h, pts, pts.copy(),
                       tris, np.eye(2)[None], np.zeros((2, 2)), areas,
                       trivial=True)
    return tpl


def build_template(lam: float, h: float, g0: float) -> CellTemplate:
    """The normalized ten-piece cell; see module docstring.

    Raises AspectFailureError if the shear is too strong for the aspect
    h, and ConstructionFailureError if a closed-form gradient disagrees
    with the corner interpolation beyond PIPE_TOL or the pieces fail to tile.
    """
    if not (0.0 <= lam <= 1.0):
        raise InvalidParameterError(f"lam must be in [0,1], got {lam}")
    if not (0.0 < h <= H_MAX + 1e-15):
        raise InvalidParameterError(f"h must be in (0, {H_MAX}], got {h}")
    if lam == 0.0 or lam == 1.0 or g0 == 0.0:
        return _trivial_template(lam, h)
    if h * (1.0 + abs(g0) * max(lam, 1.0 - lam)) >= 1.0:
        raise AspectFailureError("shear too strong for this aspect: "
                                 f"h(1+|g0|) = {h * (1 + abs(g0)):.3f}")

    mu_g = (1.0 - lam) * h
    P = g0 * lam * (1.0 - lam) * h
    kk = P * h
    q = kk / (mu_g * (1.0 - mu_g))

    top, bot = np.array([0.0, 1.0]), np.array([0.0, -1.0])
    rgt, lft = np.array([h, 0.0]), np.array([-h, 0.0])
    xa = np.array([-lam * h + kk, mu_g])
    xb = np.array([lam * h + kk, mu_g])
    xc, xd = -xa, -xb
    pts = np.stack([top, bot, rgt, lft, xa, xb, xc, xd])

    vals = pts.copy()
    vals[4] = [-lam * h, mu_g - P]
    vals[5] = [lam * h, mu_g + P]
    vals[6], vals[7] = -vals[4], -vals[5]

    #           blue            green          orange        red        yellow
    tris = np.array([
        [4, 7, 6], [4, 6, 5],          # core quad xa xd xc / xa xc xb
        [5, 2, 6], [7, 3, 4],          # flanks at the right/left tips
        [4, 5, 0], [6, 7, 1],          # caps toward top/bottom
        [5, 2, 0], [7, 3, 1],          # corrector NE / SW
        [4, 0, 3], [6, 1, 2],          # corrector NW / SE
    ])
    # fix orientation: all pieces CCW
    for t in tris:
        e1, e2 = pts[t[1]] - pts[t[0]], pts[t[2]] - pts[t[0]]
        if e1[0] * e2[1] - e1[1] * e2[0] < 0:
            t[1], t[2] = t[2], t[1]

    Abar = np.array([[1.0, 0.0], [(1.0 - lam) * g0, 1.0]])
    Bbar = np.array([[1.0, 0.0], [-lam * g0, 1.0]])
    E = np.array([[1.0, -q * (1.0 - mu_g)], [0.0, 1.0]])
    Fcap = np.array([[1.0, q * mu_g], [0.0, 1.0]])
    sG = -(1.0 - lam) * h * (1.0 - h - g0 * lam * h)
    G = np.eye(2) + (g0 * lam * (1.0 - lam) * h / sG) * np.outer([-h, 1.0], [1.0, h])
    sH = h * (1.0 - lam) * (1.0 - h + g0 * lam * h)
    H = np.eye(2) - (g0 * lam * (1.0 - lam) * h / sH) * np.outer([h, 1.0], [1.0, -h])
    grads = np.stack([Abar @ E, Bbar @ E, Abar @ Fcap, G, H])

    offs = np.empty((10, 2))
    areas = np.empty(10)
    for i, t in enumerate(tris):
        Mi = grads[GRAD_INDEX[i]]
        interp = _affine_gradient(pts[t], vals[t])
        if np.abs(interp - Mi).max() > mg.PIPE_TOL:
            raise ConstructionFailureError(
                f"piece {i}: closed-form gradient disagrees with corner "
                f"interpolation by {np.abs(interp - Mi).max():.2e}")
        resid = vals[t] - pts[t] @ Mi.T
        if np.abs(resid - resid[0]).max() > mg.PIPE_TOL:
            raise ConstructionFailureError(f"piece {i} is not affine")
        offs[i] = resid[0]
        e1, e2 = pts[t[1]] - pts[t[0]], pts[t[2]] - pts[t[0]]
        areas[i] = 0.5 * (e1[0] * e2[1] - e1[1] * e2[0])

    tpl = CellTemplate(lam, h, q, mu_g, pts, vals, tris, grads, offs, areas)
    if abs(areas.sum() - tpl.area) > 1e-12 * tpl.area:
        raise ConstructionFailureError("pieces do not tile the diamond")
    dets = np.linalg.det(grads)
    if np.abs(dets - 1.0).max() > 1e-10:
        raise ConstructionFailureError("gradient determinant drift")
    return tpl


# ---------------------------------------------------------------------------
# physical cells
# ---------------------------------------------------------------------------

def rank_one_factors(D: np.ndarray):
    """D = rho0 a (x) n with |a| = |n| = 1, a oriented to a1 >= 0.

    Rank one means the singular values s0 > PIPE_TOL and
    s1 <= PIPE_TOL max(s0, 1); otherwise InvalidPairError.
    """
    U, s, Vt = np.linalg.svd(D)
    if s[0] <= mg.PIPE_TOL or s[1] > mg.PIPE_TOL * max(s[0], 1.0):
        raise InvalidPairError(f"A - B must have rank one, singular values {s}")
    a, n = U[:, 0], Vt[0]
    if a[0] < 0 or (a[0] == 0 and a[1] < 0):
        a, n = -a, -n
    return float(s[0]), a, n


@dataclass
class CellConstruction:
    """A placed cell: pieces u(y) = grads[gidx[i]] y + offsets[i] on tris[i]."""
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    lam: float
    h: float
    scale: float
    frame: np.ndarray          # rotation S with S e1 = n, S e2 = n_perp
    diamond: np.ndarray        # (4,2) physical diamond vertices
    tris: np.ndarray           # (n,3,2) physical triangles
    grads: np.ndarray          # (5,2,2) or (1,2,2) physical gradients
    gidx: np.ndarray           # (n,) triangle -> gradient slot
    offsets: np.ndarray        # (n,2)
    areas: np.ndarray          # (n,)
    template: CellTemplate

    @property
    def area(self) -> float:
        return 2.0 * self.h * self.scale * self.scale

    def a_fraction(self) -> float:
        mask = (self.gidx == 0) | (self.gidx == 2)
        if self.template.trivial:
            return 1.0 if self.lam >= 0.5 else 0.0
        return float(self.areas[mask].sum() / self.area)

    def gradient_error(self) -> float:
        """max over pieces of min(|grad - A|, |grad - B|), Frobenius."""
        dA = np.linalg.norm(self.grads - self.A, axis=(1, 2))
        dB = np.linalg.norm(self.grads - self.B, axis=(1, 2))
        return float(np.minimum(dA, dB).max())

    def displacement_sup(self) -> float:
        """sup over the diamond of |u - (Cx + offset)|; attained at vertices."""
        dev = (self.template.values - self.template.points)
        dev = dev @ (self.C @ self.frame).T
        return self.scale * float(np.abs(np.hypot(dev[:, 0], dev[:, 1])).max())

    def boundary_values(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(points, u(points)) along the diamond boundary, ts in [0,4)."""
        pts, vals = [], []
        corners = self.diamond[[0, 2, 1, 3]]      # cyclic: top right bottom left
        for t in ts:
            i = int(t) % 4
            frac = t - int(t)
            y = corners[i] * (1 - frac) + corners[(i + 1) % 4] * frac
            pts.append(y)
            vals.append(self.evaluate(y))
        return np.array(pts), np.array(vals)

    def evaluate(self, y: np.ndarray) -> np.ndarray:
        for tri, gi, off in zip(self.tris, self.gidx, self.offsets):
            if _point_in_tri(y, tri, 1e-12 * max(self.scale, 1.0)):
                return self.grads[gi] @ y + off
        raise InvalidParameterError("point is outside the cell")


def _point_in_tri(y, tri, tol):
    for i in range(3):
        e = tri[(i + 1) % 3] - tri[i]
        if e[0] * (y[1] - tri[i][1]) - e[1] * (y[0] - tri[i][0]) < -tol:
            return False
    return True


def build_cell(A: np.ndarray, B: np.ndarray, C: np.ndarray, lam: float,
               h: float, center=(0.0, 0.0),
               scale: float = 1.0) -> CellConstruction:
    """Place the replacement cell for the pair (A, B) on a diamond.

    Preconditions: det A = det B = 1, rank(A - B) = 1 and
    C = lam A + (1 - lam) B.  lam in {0, 1} or A = B give the trivial
    single-gradient cell.
    """
    A = np.asarray(A, float)
    B = np.asarray(B, float)
    C = np.asarray(C, float)
    for M, name in ((A, "A"), (B, "B")):
        if abs(np.linalg.det(M) - 1.0) > 1e-9:
            raise InvalidPairError(f"det {name} = {np.linalg.det(M):.12f}, need 1")
    if np.abs(lam * A + (1.0 - lam) * B - C).max() > 100 * mg.PIPE_TOL:
        raise InvalidPairError("C is not the lam-barycenter of (A, B)")
    center = np.asarray(center, float)

    D = A - B
    if np.abs(D).max() <= mg.PIPE_TOL or lam in (0.0, 1.0):
        tpl = _trivial_template(lam, h)
        S = np.eye(2)
        tris = center + scale * tpl.points[tpl.tris]
        grads = C[None]
        offs = np.tile(C @ center - C @ center, (2, 1))   # zero: u = Cy
        areas = tpl.areas * scale * scale
        diamond = center + scale * _diamond_points(h)
        return CellConstruction(A, B, C, lam, h, scale, S, diamond, tris,
                                grads, tpl.tris[:, 0] * 0, offs, areas, tpl)

    rho0, a_hat, n_hat = rank_one_factors(D)
    Cinv_a = np.linalg.solve(C, a_hat)
    if abs(n_hat @ Cinv_a) > 1e-7:
        raise InvalidPairError("pair is inconsistent with det-1 transport")
    n_perp = np.array([-n_hat[1], n_hat[0]])
    g0 = float(n_perp @ Cinv_a) * rho0
    if g0 == 0.0:
        raise InvalidPairError("degenerate shear")
    S = np.column_stack([n_hat, n_perp])

    tpl = build_template(lam, h, g0)
    CS = C @ S
    # exactness of the frame transport: A = C S Abar S^T etc.
    Abar = S.T @ np.linalg.solve(C, A) @ S
    if np.abs(Abar - np.array([[1, 0], [(1 - lam) * g0, 1]])).max() > 1e-7:
        raise InvalidPairError("frame transport failed to normalize A")

    tris = center + scale * (tpl.points[tpl.tris] @ S.T)
    grads = np.einsum("ij,njk,lk->nil", CS, tpl.grads, S)
    gtri = grads[GRAD_INDEX]
    offs = (center @ C.T - np.einsum("nij,j->ni", gtri, center)
            + scale * tpl.offs @ CS.T)
    areas = tpl.areas * scale * scale
    diamond = center + scale * (_diamond_points(h) @ S.T)
    return CellConstruction(A, B, C, lam, h, scale, S, diamond, tris,
                            grads, GRAD_INDEX.copy(), offs, areas, tpl)


# ---------------------------------------------------------------------------
# stage-driven replacement plans (placement-free, cached by the engine)
# ---------------------------------------------------------------------------

@dataclass
class RefinePlan:
    """Everything needed to refine cells sharing one gradient.

    Placement-independent: physical gradients depend only on (M, rule),
    vertices and offsets are affine in the diamond (center, scale).
    unit_verts live on the unit diamond (center 0, scale 1).
    """
    M: np.ndarray
    stage: int
    lam_cell: float
    h: float
    S: np.ndarray
    unit_verts: np.ndarray      # (n,3,2)
    grads: np.ndarray           # (n,2,2) per piece (expanded, not slots)
    bvec: np.ndarray            # (n,2): offset = (M - G_i) y0 + r bvec + o_p
    stages: np.ndarray          # (n,)
    phases: np.ndarray          # (n,) 1 or 2
    areas_unit: np.ndarray      # (n,)
    gradient_error: float
    A_cell: np.ndarray = None
    B_cell: np.ndarray = None
    # per-diamond metric contributions at unit scale; a placed diamond at
    # scale r adds r^2*flip_area_unit to the chi L1 step difference,
    # r^2*grad_l1_unit to the gradient L1 difference, and the displacement
    # w = u_new - u_old obeys sup|w| = r*wsup_unit, int|w| <= r^3*w_l1_unit
    parent_phase: int = 1
    flip_area_unit: float = 0.0
    grad_l1_unit: float = 0.0
    wsup_unit: float = 0.0
    w_l1_unit: float = 0.0
    perim_unit: float = 0.0

    @property
    def n_pieces(self) -> int:
        return self.unit_verts.shape[0]

    @property
    def dhat(self) -> np.ndarray:
        """Diamond axis direction (the long direction of the stack)."""
        return self.S[:, 1]


def _plan_from_split(M: np.ndarray, stage: int, sr: mg.SplitResult, h: float,
                     delta: float, wells: mg.WellPair) -> Optional[RefinePlan]:
    # normalize so the cell's A side is the minority child
    if sr.rho >= 0.5:
        lam_cell, A_cell, B_cell = 1.0 - sr.rho, sr.Fminus, sr.Fplus
    else:
        lam_cell, A_cell, B_cell = sr.rho, sr.Fplus, sr.Fminus
    try:
        cc = build_cell(A_cell, B_cell, M, lam_cell, h)
    except AspectFailureError:      # the template does not fit h
        return None
    grads = cc.grads[cc.gidx]
    # hull exit of a corrector gradient counts as a failed attempt (-1),
    # prompting the callers' verify-and-shrink loop to reduce h
    slot_stages = []
    for g in cc.grads:
        try:
            slot_stages.append(ia.classify(g, delta))
        except NotClassifiableError:
            slot_stages.append(-1)
    stages = np.asarray(slot_stages)[cc.gidx]
    phases = mg.phases(grads, wells)
    unit_verts = cc.tris.copy()
    bvec = cc.template.offs @ (M @ cc.frame).T if not cc.template.trivial \
        else np.zeros((cc.tris.shape[0], 2))
    parent_phase = int(mg.phases(M[None], wells)[0])
    flip_area = float(cc.areas[phases != parent_phase].sum())
    grad_l1 = float(np.sum(cc.areas
                           * np.linalg.norm(grads - M, axis=(1, 2))))
    # vertex displacements in unit coords: w_j = (M S)(v_j - p_j)
    w8 = (cc.template.values - cc.template.points) @ (M @ cc.frame).T
    wn = np.linalg.norm(w8, axis=1)
    wsup = float(wn.max())
    w_l1 = float(np.sum(cc.areas * wn[cc.template.tris].mean(axis=1)))
    edges = unit_verts - np.roll(unit_verts, 1, axis=1)
    perim = float(np.linalg.norm(edges, axis=2).sum())
    return RefinePlan(M, stage, lam_cell, h, cc.frame, unit_verts,
                      grads, bvec, stages, phases, cc.areas,
                      cc.gradient_error(), A_cell, B_cell,
                      parent_phase, flip_area, grad_l1, wsup, w_l1, perim)


def _aspects():
    """The aspect ladder H_MAX, H_MAX/2, ... H_FLOOR.  A rung fails when the
    template does not fit h (AspectFailureError) or the plan does not
    advance; every search on it, run_construction's too, takes the next."""
    h = H_MAX
    while h >= H_FLOOR:
        yield h
        h *= 0.5


def _dyadic_plan(M: np.ndarray, stage: int, h: float, delta: float,
                 wells: mg.WellPair) -> Optional[RefinePlan]:
    """The dyadic rule: the plan of a stage >= 2 matrix at aspect h when it
    fits h and every piece classifies to stage + 1, else None."""
    branch, eps = ia.dyadic_split_target(stage, delta)
    sr = mg.split(M, branch, eps, delta)
    plan = _plan_from_split(M, stage, sr, h, delta, wells)
    return (plan if plan is not None and np.all(plan.stages == stage + 1)
            else None)


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


def calibrate_h0(delta: float, fracs: tuple = (0.02, 0.5, 0.98)) -> float:
    """Largest h of the aspect ladder (_aspects) at which the dyadic plan of
    every grid matrix fits and advances; ConstructionFailureError if none.

    Stress grid: CALIBRATION_STAGES (2..16), band positions at the given
    fractions of each band, both off-diagonal signs.  The default pushes
    2% inside the edges (worst case); engine runs calibrate on the
    narrower corridor their gradients actually visit (improved entries
    land mid-band).  The result is cached per (delta, fracs).
    """
    key = (round(delta, 12), fracs)
    if key in _H0_CACHE:
        return _H0_CACHE[key]
    wells = mg.make_wells(delta)
    grid = []
    for k in CALIBRATION_STAGES:
        (lo1, hi1), (lo2, hi2) = ia.stage_band(k, delta)
        grid += [(k, ia.matrix_from_gaps(lo1 + f1 * (hi1 - lo1),
                                         lo2 + f2 * (hi2 - lo2), delta, sign))
                 for f1, f2, sign in itertools.product(fracs, fracs,
                                                       (1.0, -1.0))]
    for h in _aspects():
        if all(_dyadic_plan(F, k, h, delta, wells) is not None
               for k, F in grid):
            _H0_CACHE[key] = h
            return h
    raise ConstructionFailureError(f"no uniform aspect calibrates for delta={delta}")


# ---------------------------------------------------------------------------
# the cell verification suite
# ---------------------------------------------------------------------------

@dataclass
class CellCheckReport:
    delta: float
    samples: int
    failures: int
    failure_examples: list
    max_partition_err: float   # |sum of piece areas - area| / area
    max_trace_err: float       # boundary deviation from the affine map / scale
    max_det_err: float         # worst |det(grad) - 1| over the five slots
    max_fraction_err: float    # |a_fraction - lam (1 + (1 - lam) h)|

    @property
    def ok(self) -> bool:
        return self.failures == 0


VERIFY_TRACE_POINTS = 24   # boundary points per cell in verify_cells


def verify_cells(delta: float, samples: int = 1_000,
                 seed: int = 0) -> CellCheckReport:
    """Exactness sweep over random admissible (A, B, lam, h).

    Pairs come from dyadic splits of random band matrices, so they are
    genuinely rank-one connected with unit determinants; h runs over the
    admissible aspect range and the placement over random centers and
    scales.  Per cell: exact partition of the diamond, affine boundary
    trace, unimodular piece gradients, majority fraction
    lam (1 + (1 - lam) h).
    """
    rng = np.random.default_rng(seed)
    failures = 0
    examples: list = []
    mp = mt = md = mf = 0.0
    for _ in range(samples):
        stage = int(rng.integers(2, 9))
        F = ia.sample_stage(stage, delta, rng)
        branch, eps = ia.dyadic_split_target(stage, delta)
        sr = mg.split(F, branch, eps, delta)
        if sr.rho >= 0.5:
            lam, A, B = 1.0 - sr.rho, sr.Fminus, sr.Fplus
        else:
            lam, A, B = sr.rho, sr.Fplus, sr.Fminus
        h = float(rng.uniform(2.0 ** -10, H_MAX))
        center = rng.uniform(-2.0, 2.0, 2)
        scale = float(2.0 ** rng.uniform(-8, 1))
        cc = build_cell(A, B, F, lam, h, center=center, scale=scale)
        part = abs(cc.areas.sum() - cc.area) / cc.area
        ts = rng.uniform(0.0, 4.0, VERIFY_TRACE_POINTS)
        pts, vals = cc.boundary_values(ts)
        tr = float(np.abs(vals - pts @ F.T).max()) / cc.scale
        det = float(np.abs(np.linalg.det(cc.grads) - 1.0).max())
        frac = abs(cc.a_fraction() - lam * (1.0 + (1.0 - lam) * h))
        mp, mt = max(mp, part), max(mt, tr)
        md, mf = max(md, det), max(mf, frac)
        if part > 1e-12 or tr > 1e-10 or det > 1e-10 or frac > 1e-12:
            failures += 1
            if len(examples) < 5:
                examples.append((stage, float(lam), h, part, tr, det, frac))
    return CellCheckReport(delta, samples, failures, examples, mp, mt, md, mf)
