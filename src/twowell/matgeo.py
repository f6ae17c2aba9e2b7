"""Exact 2x2 geometry of the shear two-well problem.

Wells SO(2)F0 and SO(2)F0inv with F0 = [[1, d],[0, 1]], the two rank-one
coordinate systems on the lamination hull, hull membership in Cauchy-Green
coordinates, and the gap-splitting lemma that drives the refinement engine.

All operations are pure and deterministic, and each formula has one
stacked implementation.  rot and the closed forms of the coordinate maps
take scalars or arrays (results gain the broadcast leading axes); gram,
face_gaps, is_rotation, rotation_distance_sq, dist_to_wells_b and phases
take stacks of matrices.  membership_stack, coords_stack and split_stack
take stacks (n,2,2) and return each row's first failing check
(errors.fail); cg_membership, matrix_to_coords and split are their
one-row cases and raise it.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
import math

import numpy as np

from .errors import (DegenerateCoordinatesError, InvalidParameterError,
                     InvalidTargetError, NotAttainableError,
                     NotSplittableError, clean, fail, raise_first)

PIPE_TOL = 1e-9       # accumulated pipeline checks

_EYE = np.eye(2)


# ---------------------------------------------------------------------------
# rotations and wells
# ---------------------------------------------------------------------------

def mat2(m00, m01, m10, m11) -> np.ndarray:
    """2x2 matrices from their entries, scalars or arrays: shape
    broadcast shape + (2,2)."""
    m = np.broadcast_arrays(m00, m01, m10, m11)
    out = np.empty(m[0].shape + (2, 2))
    out[..., 0, 0], out[..., 0, 1], out[..., 1, 0], out[..., 1, 1] = m
    return out


def rot(angle) -> np.ndarray:
    """R(angle), shape angle.shape + (2,2)."""
    c, s = np.cos(angle), np.sin(angle)
    return mat2(c, -s, s, c)


def is_rotation(R: np.ndarray, tol: float = PIPE_TOL):
    """Whether R, or each matrix of a stack (...,2,2), is a rotation."""
    return ((np.abs(R[..., 0, 0] - R[..., 1, 1]) <= tol)
            & (np.abs(R[..., 0, 1] + R[..., 1, 0]) <= tol)
            & (np.abs(R[..., 0, 0] ** 2 + R[..., 1, 0] ** 2 - 1.0) <= tol))


@dataclass(frozen=True)
class WellPair:
    """The two shear wells F0 = [[1,delta],[0,1]] and its inverse."""

    delta: float
    F0: np.ndarray
    F0inv: np.ndarray


def make_wells(delta: float) -> WellPair:
    if not (delta > 0.0) or not math.isfinite(delta):
        raise InvalidParameterError(f"delta must be positive and finite, got {delta}")
    d = float(delta)
    F0 = np.array([[1.0, d], [0.0, 1.0]])
    F0inv = np.array([[1.0, -d], [0.0, 1.0]])
    return WellPair(d, F0, F0inv)


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
    if branch == 1:
        return mat2(1.0, d * (1.0 - 2.0 * lam), 0.0, 1.0)
    if branch == 2:
        s = 1.0 + d * d
        return mat2(1.0 - 2.0 * lam * d * d / s, d, -2.0 * lam * d / s, 1.0)
    raise InvalidParameterError(f"branch must be 1 or 2, got {branch}")


def _rank_one_vector(branch: int, lam, delta: float):
    """(w, u, gamma) of the rank-one line A(lam) + mu * w (x) u."""
    d = delta
    lam = np.asarray(lam, dtype=float)
    dt = d * (1.0 - 2.0 * lam)
    gamma = 2.0 * d * (2.0 * lam - 1.0) / (1.0 + dt * dt)
    if branch == 1:
        w, u = (gamma * dt, gamma), np.array([1.0, 0.0])
    elif branch == 2:
        w = (gamma * ((1.0 - 2.0 * lam) * d * d + 1.0),
             gamma * (-2.0 * lam * d))
        u = np.array([0.0, 1.0])
    else:
        raise InvalidParameterError(f"branch must be 1 or 2, got {branch}")
    return np.stack(w, axis=-1), u, gamma


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


def _laminates(branch: np.ndarray, mu, lam, delta: float) -> np.ndarray:
    """laminate_matrix with a branch per row ((n,) arrays); branch 2's
    formula where the branch is not 1."""
    return np.where((branch == 1)[:, None, None],
                    laminate_matrix(1, mu, lam, delta),
                    laminate_matrix(2, mu, lam, delta))


def laminate_gram(branch: int, mu, lam, delta: float) -> np.ndarray:
    """Closed-form Cauchy-Green tensor of laminate_matrix (printed formulas)."""
    d = delta
    mu = np.asarray(mu, dtype=float)
    lam = np.asarray(lam, dtype=float)
    dt = d * (1.0 - 2.0 * lam)
    g1 = 4.0 * dt * dt / (1.0 + dt * dt)
    c12 = dt * (1.0 - 2.0 * mu)
    if branch == 1:
        return mat2(1.0 - g1 * mu * (1.0 - mu), c12, c12, 1.0 + dt * dt)
    if branch == 2:
        s = 1.0 + d * d
        return mat2(1.0 - 4.0 * d * d * lam * (1.0 - lam) / s, c12, c12,
                    s - s * g1 * mu * (1.0 - mu))
    raise InvalidParameterError(f"branch must be 1 or 2, got {branch}")


@dataclass(frozen=True)
class LaminateCoords:
    branch: int
    mu: float
    lam: float
    rotation: np.ndarray


def gram(F: np.ndarray) -> np.ndarray:
    """F^T F of one matrix or of a stack (...,2,2)."""
    return np.swapaxes(F, -1, -2) @ F


def face_gaps(C: np.ndarray, delta: float):
    """Gaps to the two hull faces: (1 - c11, 1 + delta^2 - c22)."""
    return 1.0 - C[..., 0, 0], 1.0 + delta * delta - C[..., 1, 1]


INTERIOR, BOUNDARY, OUTSIDE = range(3)
LOCATIONS = ("interior", "boundary", "outside")


def membership_stack(C: np.ndarray, delta: float, margin: float = 0.0):
    """cg_membership of a stack C (n,2,2): (loc, errors), loc (n,) the
    index of each row's location in LOCATIONS."""
    errors = [None] * C.shape[0]
    c11, c22 = C[:, 0, 0], C[:, 1, 1]
    fail(errors, np.abs(C[:, 0, 1] - C[:, 1, 0]) > PIPE_TOL, lambda i:
         InvalidParameterError("C must be a symmetric 2x2 matrix"))
    det = np.linalg.det(C)
    fail(errors, (c11 <= 0) | (c22 <= 0) | (det <= 0), lambda i:
         InvalidParameterError("C must be positive definite"))
    d1, d2 = face_gaps(C, delta)
    prod = c11 * c22 - 1.0
    loc = np.where((d1 > margin) & (d2 > margin) & (prod > margin), INTERIOR,
                   np.where((d1 >= -PIPE_TOL) & (d2 >= -PIPE_TOL)
                            & (prod >= -PIPE_TOL), BOUNDARY, OUTSIDE))
    loc[np.abs(det - 1.0) > PIPE_TOL] = OUTSIDE
    return loc, errors


def cg_membership(C: np.ndarray, delta: float, margin: float = 0.0) -> str:
    """Classify a Cauchy-Green tensor against the hull conditions.

    The hull in C-coordinates: c11 <= 1, c22 <= 1 + delta^2, c11 c22 >= 1,
    det C = 1.  'interior' requires all three inequalities strict by at
    least `margin`; 'boundary' allows slack PIPE_TOL; anything else
    (including det C farther than PIPE_TOL from 1) is 'outside'.
    """
    C = np.asarray(C, dtype=float)
    if C.shape != (2, 2):
        raise InvalidParameterError("C must be a symmetric 2x2 matrix")
    loc, errors = membership_stack(C[None], delta, margin)
    raise_first(errors)
    return LOCATIONS[loc[0]]


def _coords(F: np.ndarray, C: np.ndarray, loc: np.ndarray, errors: list,
            branch: np.ndarray, delta: float):
    """(mu, lam, R) of a stack F (n,2,2) with Gram stack C, locations loc
    and a branch per row; the checks of matrix_to_coords that follow the
    membership fill errors."""
    d = delta
    one, two = branch == 1, branch == 2
    fail(errors, loc == OUTSIDE, lambda i:
         NotAttainableError("F is not in the lamination hull"))
    t = C[:, 1, 1] - 1.0
    prod = (1.0 - C[:, 0, 0]) * (1.0 + d * d) / (4.0 * d * d)   # lam(1-lam)
    disc = 1.0 - 4.0 * prod
    fail(errors, one & (t <= PIPE_TOL), lambda i:
         DegenerateCoordinatesError("c22 = 1: branch-1 lam = 1/2 wall"))
    fail(errors, two & (disc <= PIPE_TOL), lambda i:
         DegenerateCoordinatesError("c11 at the branch-2 lam = 1/2 wall"))
    fail(errors, ~(one | two), lambda i:
         InvalidParameterError(f"branch must be 1 or 2, got {branch[i]}"))
    with np.errstate(divide="ignore", invalid="ignore"):
        dt = np.sqrt(t)                        # branch 1: = d*(1-2lam) >= 0
        lam = np.where(one, 0.5 * (1.0 - dt / d),
                       0.5 * (1.0 - np.sqrt(disc)))
        dt = np.where(one, dt, d * (1.0 - 2.0 * lam))
        fail(errors, ~((-PIPE_TOL <= lam) & (lam <= 0.5)), lambda i:
             NotAttainableError(f"no admissible lam on branch {branch[i]}"))
        lam = np.clip(lam, 0.0, 0.5)
        mu = 0.5 * (1.0 - C[:, 0, 1] / dt)
        fail(errors, ~((-PIPE_TOL <= mu) & (mu <= 1.0 + PIPE_TOL)), lambda i:
             NotAttainableError(f"no admissible mu on branch {branch[i]}"))
        mu = np.clip(mu, 0.0, 1.0)
        R = F @ np.linalg.inv(_laminates(branch, mu, lam, delta))
    fail(errors, ~is_rotation(R, 100.0 * PIPE_TOL), lambda i:
         NotAttainableError("residual factor is not a rotation"))
    return mu, lam, R


def coords_stack(F: np.ndarray, branch, delta: float):
    """matrix_to_coords of a stack F (n,2,2), one branch or a branch per
    row: (mu, lam, R, errors)."""
    C = gram(F)
    loc, errors = membership_stack(C, delta)
    branch = np.broadcast_to(branch, F.shape[:1])
    return (*_coords(F, C, loc, errors, branch, delta), errors)


def matrix_to_coords(F: np.ndarray, branch: int,
                     delta: float) -> LaminateCoords:
    """Invert the coordinate map on the hull for the requested branch.

    lam is read from the mu-independent diagonal entry of C = F^T F and
    brought to the canonical half [0, 1/2]; mu from the off-diagonal entry;
    the rotation is whatever is left over (and is checked to be one).  The
    walls and ranges are checked with slack PIPE_TOL.
    """
    mu, lam, R, errors = coords_stack(np.asarray(F, dtype=float)[None],
                                      branch, delta)
    raise_first(errors)
    return LaminateCoords(branch, mu[0], lam[0], R[0])


# ---------------------------------------------------------------------------
# the splitting lemma
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SplitResult:
    """One split; in split_stack's result every field is an array over
    the rows of the stack."""
    rho: float
    Fplus: np.ndarray          # child at mu*
    Fminus: np.ndarray         # child at 1 - mu*
    chi: int
    eps: float
    eps0: float
    branch: int
    normal_axis: int           # 0: interfaces normal to e1, 1: normal to e2


def split_stack(F: np.ndarray, branch, eps, delta: float):
    """split of a stack F (n,2,2), with one (branch, eps) or one per row:
    (SplitResult, errors).  A row that fails holds the trivial split of
    its F: rho = 1/2 and F as both children."""
    n = F.shape[0]
    branch = np.broadcast_to(branch, n)
    eps = np.broadcast_to(np.asarray(eps, dtype=float), n)
    C = gram(F)
    loc, errors = membership_stack(C, delta)
    fail(errors, loc == BOUNDARY, lambda i:
         NotSplittableError("F lies on the hull boundary"))
    mu, lam, R = _coords(F, C, loc, errors, branch, delta)
    d1, d2 = face_gaps(C, delta)
    eps0 = np.where(branch == 1, d1, d2)
    fail(errors, ~((0.0 < eps) & (eps <= eps0 * (1.0 + 1e-12))), lambda i:
         InvalidTargetError(
             f"eps must be in (0, eps0={eps0[i]:.3e}], got {eps[i]:.3e}"))
    eps = np.minimum(eps, eps0)
    with np.errstate(divide="ignore", invalid="ignore"):
        beta = eps / eps0
        target = beta * mu * (1.0 - mu)
        root = np.sqrt(np.maximum(1.0 - 4.0 * target, 0.0))
        # mu* on mu's side of 1/2 keeps the heavier child near F (chi=+1)
        mu_star = np.where(mu <= 0.5, 0.5 * (1.0 - root), 0.5 * (1.0 + root))
        # root = 0 is eps = eps0 at mu = 1/2: the split is F itself twice
        rho = np.where(root == 0.0, 0.5,
                       (mu + mu_star - 1.0) / (2.0 * mu_star - 1.0))
    ok = clean(errors)
    rho = np.where(ok, np.clip(rho, 0.0, 1.0), 0.5)
    chi = np.where((0.5 - mu) * (0.5 - mu_star) >= 0, 1, -1)
    Fp = R @ _laminates(branch, mu_star, lam, delta)
    Fm = R @ _laminates(branch, 1.0 - mu_star, lam, delta)
    ok = ok[:, None, None]
    return SplitResult(rho, np.where(ok, Fp, F), np.where(ok, Fm, F), chi,
                       eps, eps0, branch, np.where(branch == 1, 0, 1)), errors


def split(F: np.ndarray, branch: int, eps: float,
          delta: float) -> SplitResult:
    """Split F into two rank-one-connected children with gap exactly eps.

    The improved diagonal Cauchy-Green entry of both children moves to
    1 - eps (branch 1) resp. 1 + delta^2 - eps (branch 2); the other
    diagonal entry is inherited unchanged.  F = rho Fplus + (1-rho) Fminus.
    """
    sr, errors = split_stack(np.asarray(F, dtype=float)[None], branch, eps,
                             delta)
    raise_first(errors)
    return SplitResult(*(getattr(sr, f.name)[0] for f in fields(sr)))


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
        F = rot(angs) @ laminate_matrix(branch, mus, lams, delta)
        C = gram(F)
        d1, d2 = face_gaps(C, delta)
        eps0 = d1 if branch == 1 else d2
        sr, errors = split_stack(F, branch, fracs * eps0, delta)
        raise_first(errors)
        rho = sr.rho[:, None, None]
        recon = rho * sr.Fplus + (1.0 - rho) * sr.Fminus
        res["split_decomp"] = max(res["split_decomp"],
                                  float(np.abs(recon - F).max()))
        for child in (sr.Fplus, sr.Fminus):
            Cc = gram(child)
            gap = ((1.0 - Cc[:, 0, 0]) if branch == 1
                   else (1 + delta ** 2 - Cc[:, 1, 1]))
            keep = (Cc[:, 1, 1] - C[:, 1, 1] if branch == 1
                    else Cc[:, 0, 0] - C[:, 0, 0])
            res["split_children"] = max(res["split_children"],
                                        float(np.abs(gap - sr.eps).max()),
                                        float(np.abs(keep).max()))
        mu, lam, R, errors = coords_stack(F, branch, delta)
        raise_first(errors)
        F2 = R @ laminate_matrix(branch, mu, lam, delta)
        res["roundtrip"] = max(res["roundtrip"], float(np.abs(F2 - F).max()))
    return res
