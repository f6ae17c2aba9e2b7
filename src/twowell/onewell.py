"""Diagonal two-well pair with a single rank-one connection.

For the wells SO(2)diag(1, 1+delta) and SO(2)diag(1, 1-delta) the
lamination hull is the one-parameter family SO(2)diag(1, 1-delta+2*lam*delta),
every admissible affine datum is a unique simple laminate, and no
oscillating construction exists.  The shear pair handled by the rest of
this package has two rank-one connections; this pair has one, and the
refinement engine refuses it at the door.  What this module does provide
is numerical certification of the inequalities that rigidity rests on:
the polyconvex witness f stays below (1-delta)^{-1} on the hull and the
first column of any hull matrix is isometric (F^T F e1 = e1).  That no
rotation other than the identity rank-one connects the two wells is
scanned by the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import matgeo as mg
from .errors import InvalidParameterError

QC_TOL = 1e-9


@dataclass(frozen=True)
class DiagonalWellPair:
    """Wells diag(1, 1+delta), diag(1, 1-delta); F2 = F1 - 2 delta e2 x e2."""
    delta: float
    F1: np.ndarray
    F2: np.ndarray


def make_diagonal_wells(delta: float) -> DiagonalWellPair:
    if not -1.0 < delta < 1.0 or delta == 0.0:
        raise InvalidParameterError(
            f"delta must lie in (-1,1) \\ {{0}}, got {delta}")
    F1 = np.diag([1.0, 1.0 + delta])
    F2 = np.diag([1.0, 1.0 - delta])
    return DiagonalWellPair(float(delta), F1, F2)


def hull_point(lam: float, Q: np.ndarray, delta: float) -> np.ndarray:
    """Q diag(1, 1-delta+2*lam*delta): the lam-laminate of the two wells."""
    return np.asarray(Q) @ np.diag([1.0, 1.0 - delta + 2.0 * lam * delta])


def lc_membership(F: np.ndarray,
                  delta: float) -> tuple[bool, float, np.ndarray]:
    """Test F in the lamination hull; recover (lam, Q) regardless.

    Membership means F^T F = diag(1, b) with b between (1-delta)^2 and
    (1+delta)^2 and det F > 0, each within QC_TOL relative to the largest
    entry of F^T F (at least 1).  The returned lam solves
    1 - delta + 2 lam delta = sqrt(b) and Q = F diag(1, sqrt(b))^{-1};
    both are best-effort values when member is False.
    """
    F = np.asarray(F, dtype=float)
    C = F.T @ F
    b = float(C[1, 1])
    sb = math.sqrt(max(b, 0.0))
    lam = (sb - (1.0 - delta)) / (2.0 * delta)
    Q = F @ np.diag([1.0, 1.0 / sb]) if sb > 0 else F.copy()
    b_lo, b_hi = sorted(((1.0 - delta) ** 2, (1.0 + delta) ** 2))
    slack = QC_TOL * max(1.0, float(np.abs(C).max()))
    member = (abs(C[0, 1]) <= slack
              and abs(C[0, 0] - 1.0) <= slack
              and b_lo - slack <= b <= b_hi + slack
              and np.linalg.det(F) > 0.0)
    return bool(member), float(lam), Q


def polyconvex_witness(F: np.ndarray, delta: float):
    """f(F): 1/det above det = 1-delta, its tangent line below.

    F is one matrix (a float comes back) or a stack (...,2,2) (an array).
    The tangent continuation keeps f convex in det (hence polyconvex)
    while preserving the value (1-delta)^{-1} on the lower well.
    """
    d = np.linalg.det(np.asarray(F, dtype=float))
    lo = 1.0 - delta
    # np.where takes 1/d also where the tangent line is used (d = 0, tiny)
    with np.errstate(divide="ignore", over="ignore"):
        return np.where(d > lo, 1.0 / d, -d / lo ** 2 + 2.0 / lo)[()]


@dataclass
class QcBoundsReport:
    delta: float
    samples: int
    violations: int
    sup_det: float = 0.0
    inf_det: float = 0.0
    sup_col1: float = 0.0           # max |F e1| over the sampled hull
    sup_witness: float = 0.0        # max f(F), must stay <= (1-delta)^{-1}
    max_isometry_defect: float = 0.0  # max |F^T F e1 - e1|
    laminate_failures: int = 0

    @property
    def ok(self) -> bool:
        return self.violations == 0 and self.laminate_failures == 0


LAMINATE_SAMPLES = 1_000   # rank-one hull pairs in verify_qc_bounds


def verify_qc_bounds(delta: float, samples: int = 100_000,
                     seed: int = 0) -> QcBoundsReport:
    """Sample the hull uniformly in (lam, theta) and test every bound.

    Checks per sample, each with slack QC_TOL: det F within
    [1-delta, 1+delta], |F e1| <= 1, |F^{-T} e1| <= 1, F^T F e1 = e1, and
    f(F) <= (1-delta)^{-1}.  The
    endpoint laminates lam in {0, 1} land on the wells exactly, and
    barycenters of random rank-one connected hull pairs stay in the hull
    with the interpolated lam (no second-order growth).
    """
    if samples < 1:
        raise InvalidParameterError("samples must be >= 1")
    if not 0.0 < delta < 1.0:
        # the witness cap (1-delta)^{-1} is the delta > 0 normalization;
        # swap the wells to flip the sign
        raise InvalidParameterError(
            f"qc bound checks need delta in (0,1), got {delta}")
    wells = make_diagonal_wells(delta)
    rng = np.random.default_rng(seed)
    lam = rng.uniform(0.0, 1.0, samples)
    theta = rng.uniform(0.0, 2.0 * math.pi, samples)
    b2 = 1.0 - delta + 2.0 * lam * delta
    c, s = np.cos(theta), np.sin(theta)
    # R(theta) diag(1, b2) assembled columnwise
    Fs = np.empty((samples, 2, 2))
    Fs[:, 0, 0], Fs[:, 0, 1] = c, -s * b2
    Fs[:, 1, 0], Fs[:, 1, 1] = s, c * b2
    dets = np.linalg.det(Fs)
    col1 = np.hypot(Fs[:, 0, 0], Fs[:, 1, 0])
    # F^{-T} e1 = cof(F) e1 / det = (F11, -F01)/det
    inv_col1 = np.hypot(Fs[:, 1, 1], Fs[:, 0, 1]) / dets
    CG1 = np.einsum("nji,nj->ni", Fs, Fs[:, :, 0])    # F^T (F e1)
    iso_defect = np.hypot(CG1[:, 0] - 1.0, CG1[:, 1])
    fvals = polyconvex_witness(Fs, delta)
    lo, hi = sorted((1.0 - delta, 1.0 + delta))
    fcap = 1.0 / (1.0 - delta)
    bad = ((dets < lo - QC_TOL) | (dets > hi + QC_TOL)
           | (col1 > 1.0 + QC_TOL) | (inv_col1 > 1.0 + QC_TOL)
           | (iso_defect > QC_TOL) | (fvals > fcap + QC_TOL))
    report = QcBoundsReport(
        delta=delta, samples=samples, violations=int(np.count_nonzero(bad)),
        sup_det=float(dets.max()), inf_det=float(dets.min()),
        sup_col1=float(col1.max()), sup_witness=float(fvals.max()),
        max_isometry_defect=float(iso_defect.max()))
    # lam endpoints must land on the wells exactly
    for lam_end, well in ((0.0, wells.F2), (1.0, wells.F1)):
        for th in (0.0, 1.0, 2.5, 4.0):
            F = hull_point(lam_end, mg.rot(th), delta)
            if mg.rotation_distance_sq(F, well) > QC_TOL:
                report.violations += 1
    # barycenters of rank-one connected hull pairs: same rotation,
    # different lam; the mixture must recover the interpolated lam
    for _ in range(LAMINATE_SAMPLES):
        l1, l2, mu = rng.uniform(0.0, 1.0, 3)
        Q = mg.rot(rng.uniform(0.0, 2.0 * math.pi))
        F = mu * hull_point(l1, Q, delta) + (1 - mu) * hull_point(l2, Q, delta)
        member, lam_bar, Qr = lc_membership(F, delta)
        target = mu * l1 + (1 - mu) * l2
        if (not member or abs(lam_bar - target) > 1e-7
                or np.abs(Qr - Q).max() > 1e-7):
            report.laminate_failures += 1
    return report
