"""Exact 2x2 geometry of the shear two-well problem.

Wells SO(2)F0 and SO(2)F0inv with F0 = [[1, d],[0, 1]], the two rank-one
coordinate systems on the lamination hull, hull membership in Cauchy-Green
coordinates, and the gap-splitting lemma that drives the refinement engine.

All operations are pure and deterministic.  The closed forms of the
coordinate maps take a scalar lam/mu or arrays of them (results gain the
broadcast leading axes); rotation_distance_sq, dist_to_wells_b and phases
work on stacks of gradients, and dist_to_wells_b is rotation_distance_sq
to each well.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .errors import (
    InvalidParameterError,
    NotAttainableError,
    DegenerateCoordinatesError,
    NotSplittableError,
    InvalidTargetError,
)

PIPE_TOL = 1e-9       # accumulated pipeline checks

_EYE = np.eye(2)


# ---------------------------------------------------------------------------
# rotations and wells
# ---------------------------------------------------------------------------

def rot(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


def is_rotation(R: np.ndarray, tol: float = PIPE_TOL) -> bool:
    return (
        abs(R[0, 0] - R[1, 1]) <= tol
        and abs(R[0, 1] + R[1, 0]) <= tol
        and abs(R[0, 0] ** 2 + R[1, 0] ** 2 - 1.0) <= tol
    )


@dataclass(frozen=True)
class WellPair:
    """The two shear wells and the auxiliary transformed ("tilde") frame.

    tilde_plus/tilde_minus are the lower-triangular shears [[1,0],[+-dbar,1]]
    obtained by the normal-form transformation D @ Q @ F0; they are exposed
    for verification only, the construction itself works on F0, F0inv.
    """

    delta: float
    F0: np.ndarray
    F0inv: np.ndarray
    dbar: float
    tilde_plus: np.ndarray
    tilde_minus: np.ndarray


def make_wells(delta: float) -> WellPair:
    if not (delta > 0.0) or not math.isfinite(delta):
        raise InvalidParameterError(f"delta must be positive and finite, got {delta}")
    d = float(delta)
    F0 = np.array([[1.0, d], [0.0, 1.0]])
    F0inv = np.array([[1.0, -d], [0.0, 1.0]])
    dbar = d / (1.0 + d * d)
    Q = np.array([[1.0, -d], [d, 1.0]])
    D = np.diag([1.0, 1.0 / (1.0 + d * d)])
    tp = D @ Q @ F0
    tm = D @ Q.T @ F0inv
    return WellPair(d, F0, F0inv, dbar, tp, tm)


def rotation_distance_sq(F: np.ndarray, G: np.ndarray):
    """dist^2(F, SO(2)G) in closed form via the polar maximum over
    rotations; F is one matrix or a stack (...,2,2), G one matrix."""
    F = np.asarray(F, dtype=float)
    Fs = F.reshape(-1, 2, 2)
    M = np.einsum("nij,kj->nik", Fs, G)
    tr = M[:, 0, 0] + M[:, 1, 1]
    skew = M[:, 1, 0] - M[:, 0, 1]
    d2 = (np.einsum("nij,nij->n", Fs, Fs) + np.sum(G * G)
          - 2.0 * np.hypot(tr, skew))
    return np.maximum(d2, 0.0).reshape(F.shape[:-2])[()]


def dist_to_wells(F: np.ndarray, wells: WellPair) -> tuple[float, int]:
    """Distance from F to the union of the wells and which well is closer.

    Returns (dist, phase) with the phase as in phases.
    """
    Fs = np.asarray(F, dtype=float)[None]
    phase = int(phases(Fs, wells)[0])
    return float(dist_to_wells_b(Fs, wells)[0, phase - 1]), phase


def dist_to_wells_b(Fs: np.ndarray, wells: WellPair) -> np.ndarray:
    """Batch distances to both wells; Fs (n,2,2) -> (n,2) array."""
    d = np.stack([rotation_distance_sq(Fs, wells.F0),
                  rotation_distance_sq(Fs, wells.F0inv)], axis=1)
    return np.sqrt(d, out=d)


def phases(Fs: np.ndarray, wells: WellPair) -> np.ndarray:
    """Phase of each gradient of Fs (n,2,2) as uint8: 1 where SO(2)F0 is
    at least as close as SO(2)F0inv (ties go to phase 1), else 2."""
    d = dist_to_wells_b(Fs, wells)
    return np.where(d[:, 0] <= d[:, 1], 1, 2).astype(np.uint8)


# ---------------------------------------------------------------------------
# the two rank-one coordinate systems
# ---------------------------------------------------------------------------
# Branch 1 moves along the direct segment between the wells (normal e1),
# branch 2 along the segment from F0 to the rotated second well (normal e2).
# Both segments are parametrized by lam in [0,1]; mu in [0,1] runs along the
# rank-one line A(lam) + mu * w(lam) (x) u.

def base_matrix(branch: int, lam, delta: float) -> np.ndarray:
    """A(lam), shape lam.shape + (2,2)."""
    d = delta
    lam = np.asarray(lam, dtype=float)
    A = np.empty(lam.shape + (2, 2))
    A[...] = _EYE
    if branch == 1:
        A[..., 0, 1] = d * (1.0 - 2.0 * lam)
    elif branch == 2:
        s = 1.0 + d * d
        A[..., 0, 0] = 1.0 - 2.0 * lam * d * d / s
        A[..., 0, 1] = d
        A[..., 1, 0] = -2.0 * lam * d / s
    else:
        raise InvalidParameterError(f"branch must be 1 or 2, got {branch}")
    return A


def _rank_one_vector(branch: int, lam, delta: float):
    """(w, u, gamma) of the rank-one line A(lam) + mu * w (x) u."""
    d = delta
    lam = np.asarray(lam, dtype=float)
    dt = d * (1.0 - 2.0 * lam)
    gamma = 2.0 * d * (2.0 * lam - 1.0) / (1.0 + dt * dt)
    w = np.empty(lam.shape + (2,))
    if branch == 1:
        w[..., 0] = gamma * dt
        w[..., 1] = gamma
        u = np.array([1.0, 0.0])
    elif branch == 2:
        w[..., 0] = gamma * ((1.0 - 2.0 * lam) * d * d + 1.0)
        w[..., 1] = gamma * (-2.0 * lam * d)
        u = np.array([0.0, 1.0])
    else:
        raise InvalidParameterError(f"branch must be 1 or 2, got {branch}")
    return w, u, gamma


def rank_one_params(branch: int, lam, delta: float):
    """(Q, w, u, gamma) with Q @ A(1-lam) = A(lam) + w (x) u exactly."""
    lam = np.asarray(lam, dtype=float)
    w, u, gamma = _rank_one_vector(branch, lam, delta)
    lhs = base_matrix(branch, lam, delta) + w[..., :, None] * u
    Q = lhs @ np.linalg.inv(base_matrix(branch, 1.0 - lam, delta))
    return Q, w, u, gamma


def laminate_matrix(branch: int, mu, lam, delta: float) -> np.ndarray:
    w, u, _ = _rank_one_vector(branch, lam, delta)
    mu = np.asarray(mu, dtype=float)
    return (base_matrix(branch, lam, delta)
            + mu[..., None, None] * w[..., :, None] * u)


def laminate_gram(branch: int, mu, lam, delta: float) -> np.ndarray:
    """Closed-form Cauchy-Green tensor of laminate_matrix (printed formulas)."""
    d = delta
    mu = np.asarray(mu, dtype=float)
    lam = np.asarray(lam, dtype=float)
    dt = d * (1.0 - 2.0 * lam)
    g1 = 4.0 * dt * dt / (1.0 + dt * dt)
    c12 = dt * (1.0 - 2.0 * mu)
    C = np.empty(np.shape(c12) + (2, 2))
    C[..., 0, 1] = C[..., 1, 0] = c12
    if branch == 1:
        C[..., 0, 0] = 1.0 - g1 * mu * (1.0 - mu)
        C[..., 1, 1] = 1.0 + dt * dt
    elif branch == 2:
        s = 1.0 + d * d
        C[..., 0, 0] = 1.0 - 4.0 * d * d * lam * (1.0 - lam) / s
        C[..., 1, 1] = s - s * g1 * mu * (1.0 - mu)
    else:
        raise InvalidParameterError(f"branch must be 1 or 2, got {branch}")
    return C


@dataclass(frozen=True)
class LaminateCoords:
    branch: int
    mu: float
    lam: float
    rotation: np.ndarray


def coords_to_matrix(c: LaminateCoords, delta: float) -> np.ndarray:
    return c.rotation @ laminate_matrix(c.branch, c.mu, c.lam, delta)


def gram(F: np.ndarray) -> np.ndarray:
    return F.T @ F


def face_gaps(C: np.ndarray, delta: float) -> tuple[float, float]:
    """Gaps to the two hull faces: (1 - c11, 1 + delta^2 - c22)."""
    return 1.0 - C[0, 0], 1.0 + delta * delta - C[1, 1]


def cg_membership(C: np.ndarray, delta: float, margin: float = 0.0) -> str:
    """Classify a Cauchy-Green tensor against the hull conditions.

    The hull in C-coordinates: c11 <= 1, c22 <= 1 + delta^2, c11 c22 >= 1,
    det C = 1.  'interior' requires all three inequalities strict by at
    least `margin`; 'boundary' allows slack PIPE_TOL; anything else
    (including det C farther than PIPE_TOL from 1) is 'outside'.
    """
    if C.shape != (2, 2) or abs(C[0, 1] - C[1, 0]) > PIPE_TOL:
        raise InvalidParameterError("C must be a symmetric 2x2 matrix")
    if C[0, 0] <= 0 or C[1, 1] <= 0 or np.linalg.det(C) <= 0:
        raise InvalidParameterError("C must be positive definite")
    if abs(float(np.linalg.det(C)) - 1.0) > PIPE_TOL:
        return "outside"
    d1, d2 = face_gaps(C, delta)
    prod = C[0, 0] * C[1, 1] - 1.0
    if d1 > margin and d2 > margin and prod > margin:
        return "interior"
    if d1 >= -PIPE_TOL and d2 >= -PIPE_TOL and prod >= -PIPE_TOL:
        return "boundary"
    return "outside"


def matrix_to_coords(F: np.ndarray, branch: int,
                     delta: float) -> LaminateCoords:
    """Invert the coordinate map on the hull for the requested branch.

    lam is read from the mu-independent diagonal entry of C = F^T F and
    brought to the canonical half [0, 1/2]; mu from the off-diagonal entry;
    the rotation is whatever is left over (and is checked to be one).  The
    walls and ranges are checked with slack PIPE_TOL.
    """
    C = gram(F)
    loc = cg_membership(C, delta, margin=0.0)
    if loc == "outside":
        raise NotAttainableError("F is not in the lamination hull")
    d = delta
    if branch == 1:
        t = C[1, 1] - 1.0
        if t <= PIPE_TOL:
            raise DegenerateCoordinatesError("c22 = 1: branch-1 lam = 1/2 wall")
        dt = math.sqrt(t)                      # = d*(1-2lam) >= 0
        lam = 0.5 * (1.0 - dt / d)
    elif branch == 2:
        prod = (1.0 - C[0, 0]) * (1.0 + d * d) / (4.0 * d * d)   # lam(1-lam)
        disc = 1.0 - 4.0 * prod
        if disc <= PIPE_TOL:
            raise DegenerateCoordinatesError("c11 at the branch-2 lam = 1/2 wall")
        lam = 0.5 * (1.0 - math.sqrt(disc))
        dt = d * (1.0 - 2.0 * lam)
    else:
        raise InvalidParameterError(f"branch must be 1 or 2, got {branch}")
    if not (-PIPE_TOL <= lam <= 0.5):
        raise NotAttainableError(f"no admissible lam on branch {branch}")
    lam = min(max(lam, 0.0), 0.5)
    mu = 0.5 * (1.0 - C[0, 1] / dt)
    if not (-PIPE_TOL <= mu <= 1.0 + PIPE_TOL):
        raise NotAttainableError(f"no admissible mu on branch {branch}")
    mu = min(max(mu, 0.0), 1.0)
    base = laminate_matrix(branch, mu, lam, delta)
    R = F @ np.linalg.inv(base)
    if not is_rotation(R, 100.0 * PIPE_TOL):
        raise NotAttainableError("residual factor is not a rotation")
    return LaminateCoords(branch, mu, lam, R)


# ---------------------------------------------------------------------------
# the splitting lemma
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SplitResult:
    rho: float
    Fplus: np.ndarray          # child at mu*
    Fminus: np.ndarray         # child at 1 - mu*
    chi: int
    eps: float
    eps0: float
    branch: int
    normal_axis: int           # 0: interfaces normal to e1, 1: normal to e2


def split(F: np.ndarray, branch: int, eps: float,
          delta: float) -> SplitResult:
    """Split F into two rank-one-connected children with gap exactly eps.

    The improved diagonal Cauchy-Green entry of both children moves to
    1 - eps (branch 1) resp. 1 + delta^2 - eps (branch 2); the other
    diagonal entry is inherited unchanged.  F = rho Fplus + (1-rho) Fminus.
    """
    C = gram(F)
    loc = cg_membership(C, delta, margin=0.0)
    if loc == "boundary":
        raise NotSplittableError("F lies on the hull boundary")
    coords = matrix_to_coords(F, branch, delta)
    mu, lam, R = coords.mu, coords.lam, coords.rotation
    d1, d2 = face_gaps(C, delta)
    eps0 = d1 if branch == 1 else d2
    if not (0.0 < eps <= eps0 * (1.0 + 1e-12)):
        raise InvalidTargetError(f"eps must be in (0, eps0={eps0:.3e}], got {eps:.3e}")
    eps = min(eps, eps0)
    beta = eps / eps0
    target = beta * mu * (1.0 - mu)
    disc = max(1.0 - 4.0 * target, 0.0)
    root = math.sqrt(disc)
    # keep mu* on mu's side of 1/2 so the heavier child stays near F (chi=+1)
    mu_star = 0.5 * (1.0 - root) if mu <= 0.5 else 0.5 * (1.0 + root)
    if root == 0.0:
        rho = 0.5           # eps = eps0 at mu = 1/2: the split is F itself twice
    else:
        rho = (mu + mu_star - 1.0) / (2.0 * mu_star - 1.0)
    rho = min(max(rho, 0.0), 1.0)
    chi = 1 if (0.5 - mu) * (0.5 - mu_star) >= 0 else -1
    Fp = R @ laminate_matrix(branch, mu_star, lam, delta)
    Fm = R @ laminate_matrix(branch, 1.0 - mu_star, lam, delta)
    return SplitResult(rho, Fp, Fm, chi, eps, eps0, branch,
                       0 if branch == 1 else 1)


# ---------------------------------------------------------------------------
# the lemma-level verification suite
# ---------------------------------------------------------------------------

def verify_identities(delta: float, samples: int = 10_000, seed: int = 0) -> dict:
    """Residual suite for the closed forms; all entries should sit at ~1e-15.

    Covers: the rank-one frame identity, agreement of the printed Gram
    formulas with F^T F, determinant of the coordinate map, the split
    decomposition, the improved/preserved child entries, and round-trips
    of matrix_to_coords.
    """
    rng = np.random.default_rng(seed)
    res = {k: 0.0 for k in ("rank_one", "gram_closed_form", "det",
                            "split_decomp", "split_children", "roundtrip")}
    for branch in (1, 2):
        lams = rng.uniform(0.0, 1.0, samples)
        mus = rng.uniform(0.0, 1.0, samples)
        Q, _, _, _ = rank_one_params(branch, lams, delta)
        ortho = np.einsum("nji,njk->nik", Q, Q) - _EYE
        res["rank_one"] = max(res["rank_one"], float(np.abs(ortho).max()))
        F = laminate_matrix(branch, mus, lams, delta)
        CF = np.einsum("nji,njk->nik", F, F)
        Cc = laminate_gram(branch, mus, lams, delta)
        res["gram_closed_form"] = max(res["gram_closed_form"],
                                      float(np.abs(CF - Cc).max()))
        dets = F[:, 0, 0] * F[:, 1, 1] - F[:, 0, 1] * F[:, 1, 0]
        res["det"] = max(res["det"], float(np.abs(dets - 1.0).max()))

    # splits on random interior points, random admissible targets
    m = min(samples, 2000)
    for branch in (1, 2):
        lams = rng.uniform(0.02, 0.48, m)
        mus = rng.uniform(0.02, 0.98, m)
        angs = rng.uniform(0.0, 2.0 * math.pi, m)
        fracs = rng.uniform(0.05, 1.0, m)
        for i in range(m):
            F = rot(angs[i]) @ laminate_matrix(branch, mus[i], lams[i], delta)
            C = gram(F)
            d1, d2 = face_gaps(C, delta)
            eps0 = d1 if branch == 1 else d2
            sr = split(F, branch, fracs[i] * eps0, delta)
            recon = sr.rho * sr.Fplus + (1.0 - sr.rho) * sr.Fminus
            res["split_decomp"] = max(res["split_decomp"],
                                      float(np.abs(recon - F).max()))
            for child in (sr.Fplus, sr.Fminus):
                Cc = gram(child)
                gap = (1.0 - Cc[0, 0]) if branch == 1 else (1 + delta ** 2 - Cc[1, 1])
                keep = Cc[1, 1] - C[1, 1] if branch == 1 else Cc[0, 0] - C[0, 0]
                res["split_children"] = max(res["split_children"],
                                            abs(gap - sr.eps), abs(keep))
            back = matrix_to_coords(F, branch, delta)
            F2 = coords_to_matrix(back, delta)
            res["roundtrip"] = max(res["roundtrip"], float(np.abs(F2 - F).max()))
    return res
