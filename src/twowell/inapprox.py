"""Dyadic in-approximation stages for the two-well hull.

Interior matrices are graded into stages by how far their Cauchy-Green
tensor sits from the two hull faces.  Writing d1 = 1 - c11 and
d2 = 1 + delta^2 - c22, the stage-k sets for k >= 2 are open dyadic boxes

    stage 2j:   d1 in z0 2^-(j+3) (5,7)   and  d2 in z0 2^-j (1,2)
    stage 2j+1: d1 in z0 2^-(j+1) (1,2)   and  d2 in z0 2^-(j+3) (5,7)

with j >= 1 and z0 = 2^-4 min(delta^2, 1).  Stage 1 is the catch-all with
d1 in some band 2^-(m+1) z0 (1,2) and d2 >= 7 2^-(m+3) z0; stage 0 is the
rest of the interior.  Band membership is evaluated with strict
inequalities at tolerance zero; endpoint landings drop to the catch-alls.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from . import matgeo as mg
from .errors import (InvalidParameterError, NotClassifiableError, clean,
                     fail, raise_first)

M_CAP = 60      # dyadic exponents beyond this are numerically meaningless


def zeta0(delta: float) -> float:
    if delta <= 0:
        raise InvalidParameterError("delta must be positive")
    return 2.0 ** -4 * min(delta * delta, 1.0)


def stage_band(k: int, delta: float) -> tuple[tuple[float, float], tuple[float, float]]:
    """Open (d1, d2) intervals of stage k >= 2."""
    if k < 2:
        raise InvalidParameterError("bands are defined for stages k >= 2 only")
    z0 = zeta0(delta)
    j, odd = divmod(k, 2)
    if odd:
        lo1 = math.ldexp(z0, -(j + 1))
        lo2 = math.ldexp(z0, -(j + 3))
        return (lo1, 2.0 * lo1), (5.0 * lo2, 7.0 * lo2)
    lo1 = math.ldexp(z0, -(j + 3))
    lo2 = math.ldexp(z0, -j)
    return (5.0 * lo1, 7.0 * lo1), (lo2, 2.0 * lo2)


def _classify_gaps(d1: np.ndarray, d2: np.ndarray, z0: float) -> np.ndarray:
    """Vectorized stage classification from face gaps; -1 marks bad input.

    The log2 of each gap pins the only dyadic level whose open band could
    contain it, so checking three neighboring levels is exhaustive and
    equivalent to the full scan.
    """
    d1 = np.asarray(d1, dtype=float)
    d2 = np.asarray(d2, dtype=float)
    out = np.full(d1.shape, -1, dtype=np.int64)
    ok = (d1 > 0) & (d2 > 0)
    out[ok] = 0

    def band(vals, scale_exp, lo, hi):
        # strict membership of vals in z0 * 2^scale_exp * (lo, hi)
        base = np.ldexp(z0, scale_exp)
        return (vals > lo * base) & (vals < hi * base)

    with np.errstate(divide="ignore", invalid="ignore"):
        j2 = np.floor(np.log2(np.where(ok, z0 / d2, 1.0))).astype(np.int64)
        j1 = np.floor(np.log2(np.where(ok, z0 / d1, 1.0))).astype(np.int64)

    a1, a2, okc = d1[..., None], d2[..., None], ok[..., None]
    # even stages 2j, keyed by the d2 band
    je = j2[..., None] + np.arange(3)
    even = (okc & (je >= 1) & (je <= M_CAP)
            & band(a1, -(je + 3), 5.0, 7.0) & band(a2, -je, 1.0, 2.0))
    # odd stages 2j+1 and the stage 1 catch-all, keyed by the d1 band; the
    # catch-all asks d2 to stay clear of the well face
    jo = j1[..., None] + np.arange(-2, 1)
    in1 = okc & (jo >= 1) & (jo <= M_CAP) & band(a1, -(jo + 1), 1.0, 2.0)
    odd = in1 & band(a2, -(jo + 3), 5.0, 7.0)
    catch = in1 & (a2 >= 7.0 * np.ldexp(z0, -(jo + 3)))
    # the bands of one gap at different levels are disjoint, so at most
    # one level hits per kind; even beats odd beats the catch-all
    out[catch.any(axis=-1)] = 1
    hit = odd.any(axis=-1)
    out[hit] = 2 * (odd * jo).sum(axis=-1)[hit] + 1
    hit = even.any(axis=-1)
    out[hit] = 2 * (even * je).sum(axis=-1)[hit]
    return out


def _stages(Fs: np.ndarray, delta: float):
    """(stage, d1, d2, errors) of a stack Fs (n,2,2): classify's checks
    on the Gram stack, its face gaps, and stage -1 on a row that fails."""
    C = mg.gram(Fs)
    loc, errors = mg.membership_stack(C, delta)
    fail(errors, loc != mg.INTERIOR, lambda i: NotClassifiableError(
        "stage classification needs an interior matrix"))
    d1, d2 = mg.face_gaps(C, delta)
    stage = np.where(clean(errors), _classify_gaps(d1, d2, zeta0(delta)), -1)
    return stage, d1, d2, errors


def classify(F: np.ndarray, delta: float) -> int:
    """The unique stage of an interior matrix."""
    stage, _, _, errors = _stages(np.asarray(F, dtype=float)[None], delta)
    raise_first(errors)
    return int(stage[0])


def classify_stack(Fs: np.ndarray, delta: float) -> np.ndarray:
    """classify over a stack (..., 2, 2); -1 where classify raises."""
    Fs = np.asarray(Fs, dtype=float)
    return _stages(Fs.reshape(-1, 2, 2), delta)[0].reshape(Fs.shape[:-2])


# ---------------------------------------------------------------------------
# split targets
# ---------------------------------------------------------------------------

def dyadic_split_target(stage: int, delta: float) -> tuple[int, float]:
    """(branch, eps) moving a stage >= 2 parent's children into stage + 1.

    eps is the center of the next stage's improved band, which works out
    to (3/4) z0 2^-ceil(stage/2) on branch 2 (even parents, interfaces
    normal to e2) or branch 1 (odd parents, normal to e1).
    """
    if stage < 2:
        raise InvalidParameterError("dyadic targets exist for stages >= 2")
    branch = 2 if stage % 2 == 0 else 1
    eps = 0.75 * math.ldexp(zeta0(delta), -((stage + 1) // 2))
    return branch, eps


@dataclass(frozen=True)
class LowStageTarget:
    branch: int
    eps: float
    witness_m: int
    target_stage: int


def low_stage_split_target(F: np.ndarray, delta: float) -> LowStageTarget:
    """Split recipe lifting a stage-0 or stage-1 matrix up the ladder.

    Stage 1: the witness band exponent m gives a branch-2 split with
    eps = (3/4) z0 2^-m, landing both children in stage 2m+1.
    Stage 0: a branch-1 split with m one past the coarsest dyadic level
    of the two gaps lands the children in stage 1 (or accidentally
    higher, which is fine: stages only need to increase).
    """
    z0 = zeta0(delta)
    stage, d1, d2, errors = _stages(np.asarray(F, dtype=float)[None], delta)
    raise_first(errors)
    stage, d1, d2 = stage[0], d1[0], d2[0]
    if stage == 1:
        # the level of _classify_gaps' catch-all band that holds (d1, d2)
        m = np.arange(1, M_CAP + 1)
        base = np.ldexp(z0, -(m + 1))
        m = int(m[np.argmax((base < d1) & (d1 < 2.0 * base)
                            & (d2 >= 7.0 * np.ldexp(z0, -(m + 3))))])
        return LowStageTarget(2, 0.75 * math.ldexp(z0, -m), m, 2 * m + 1)
    if stage == 0:
        mbar = max(math.ceil(math.log2(z0 / d1)), math.ceil(math.log2(z0 / d2)))
        m = max(mbar + 1, 1)
        return LowStageTarget(1, 0.75 * math.ldexp(z0, -m), m, 1)
    raise InvalidParameterError(f"matrix already classifies to stage {stage}")


# ---------------------------------------------------------------------------
# constructing representatives and samples
# ---------------------------------------------------------------------------

def matrices_from_gaps(d1, d2, delta: float, c12_sign,
                       angle=0.0) -> np.ndarray:
    """Interior matrices (n,2,2) with prescribed face gaps d1[i], d2[i]:
    the det-1 upper-triangular square root of C with the sign c12_sign[i]
    of its off-diagonal entry, rotated by angle[i] (one angle or one per
    row).

    Unrotated (angle 0), F is built so that face_gaps(gram(F)) classifies
    exactly as (d1, d2) do.  The computed gaps 1 - c11 and
    1 + delta^2 - c22 live on the float grid near 1; a gap on that grid
    comes back exactly, and a gap between two grid points comes back as a
    neighbour that classifies as (d1, d2) do.  (A band edge that is itself
    off the grid, as for a z0 that is not dyadic, cannot be hit exactly.)
    The unrotated rows go through _round_trip_roots together.  A rotated
    row is the plain root, rotated.  A gap, sign or angle that is not
    finite raises InvalidParameterError before any arithmetic.
    """
    d1, d2, sign, angle = np.broadcast_arrays(
        *(np.asarray(x, dtype=float) for x in (d1, d2, c12_sign, angle)))
    if not all(np.isfinite(x).all() for x in (d1, d2, sign, angle)):
        raise InvalidParameterError("gaps, signs and angles must be finite")
    rotated = angle != 0.0
    plain = ~rotated
    c11, c22 = 1.0 - d1, 1.0 + delta * delta - d2
    c11[plain], c22[plain] = _grid_targets(d1[plain], d2[plain], delta)
    U, c12 = _upper_root(c11, c22, sign)
    U[plain] = _round_trip_roots(U[plain], c11[plain], c22[plain], c12[plain])
    U[rotated] = mg.rot(angle[rotated]) @ U[rotated]
    return U


def matrix_from_gaps(d1: float, d2: float, delta: float,
                     c12_sign: float = 1.0, angle: float = 0.0) -> np.ndarray:
    """The one-row case of matrices_from_gaps."""
    return matrices_from_gaps([d1], [d2], delta, [c12_sign], [angle])[0]


def _upper_root(c11, c22, c12_sign):
    """(U, c12): the rounded upper-triangular det-1 roots of the Gram
    matrices with diagonals (c11, c22), scalars or arrays."""
    prod = c11 * c22 - 1.0
    if np.any((c11 <= 0.0) | (prod < 0.0)):
        raise InvalidParameterError("gaps are not realizable in the hull")
    c12 = c12_sign * np.sqrt(prod)
    r11 = np.sqrt(c11)
    return mg.mat2(r11, c12 / r11, 0.0, 1.0 / r11), c12


def _grid_targets(d1: np.ndarray, d2: np.ndarray, delta: float):
    """Gram diagonal targets (c11, c22) whose computed gaps classify as
    (d1, d2), for arrays of gaps.

    c = fl(top - d) gives the nearest grid gap; when that lands across a
    band edge from d, one of the grid neighbours of c does not.  The
    first of c and its two neighbours (for c11 and for c22) whose
    computed gaps classify as (d1, d2) is used, or c itself if none does.
    """
    top2 = 1.0 + delta * delta
    c11, c22 = 1.0 - d1, top2 - d2
    cand1 = np.stack([c11, np.nextafter(c11, -np.inf),
                      np.nextafter(c11, np.inf)])
    cand2 = np.stack([c22, np.nextafter(c22, -np.inf),
                      np.nextafter(c22, np.inf)])
    # the nine pairs (a, b), a from cand1 and b from cand2, a slowest
    a, b = np.repeat(cand1, 3, axis=0), np.tile(cand2, (3, 1))
    stages = _classify_gaps(np.concatenate([d1[None], 1.0 - a]),
                            np.concatenate([d2[None], top2 - b]),
                            zeta0(delta))
    hit = stages[1:] == stages[0]
    first, cols = np.argmax(hit, axis=0), np.arange(d1.shape[0])
    found = hit.any(axis=0)
    return (np.where(found, a[first, cols], c11),
            np.where(found, b[first, cols], c22))


def _ulp_ladder(x: np.ndarray, n: int) -> np.ndarray:
    """x moved by 0, +1, -1, ..., +n, -n ulps, on a new last axis."""
    out, up, down = [x], x, x
    for _ in range(n):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        out += [up, down]
    return np.stack(out, axis=-1)


def _round_trip_roots(U: np.ndarray, c11: np.ndarray, c22: np.ndarray,
                      c12: np.ndarray) -> np.ndarray:
    """Square roots F (n,2,2) of the Gram matrices (c11, c12, c22) whose
    computed Gram diagonals are (c11, c22), from their rounded
    upper-triangular roots U.

    c11: a = U[:, 0, 0] is the rounded root, so |a - sqrt(c11)| <=
    ulp(a) / 2 and |a^2 - c11| <= a ulp(a), while one ulp of a moves a^2
    by about 2a ulp(a).  Every other float squares at least about
    a ulp(a) >= ulp(c11) / sqrt(2) away from c11, beyond the half ulp of
    c11 that rounds to it; so when fl(a^2) != c11 no float squares to
    c11, and the float a' below a squares strictly below it.  Such a row
    takes (a', e) as its first column, with e = sqrt(c11 - fl(a'^2)) of
    order 1e-8 (a rotation of that order) closing the sum of squares;
    the second column keeps det = 1 and the off-diagonal c12.  A row
    whose closure still misses c11 keeps U.

    c22 = b^2 + f^2 for the second column (b, f): f moves by 0, +-1, +-2
    ulps, b = sqrt(c22 - f^2) then by 0, +-1, ..., +-8 ulps, and a row
    whose computed c22 misses takes the first of these candidates that
    hits, f slowest.  A row with no hit keeps its closed root.
    """
    F = U.copy()
    fix = U[:, 0, 0] * U[:, 0, 0] != c11
    a, c, s = np.nextafter(U[fix, 0, 0], 0.0), c11[fix], c12[fix]
    e = np.sqrt(c - a * a)
    F[fix] = mg.mat2(a, (s * a - e) / c, e, (s * e + a) / c)
    C = mg.gram(F)
    closed = C[:, 0, 0] == c11
    search = closed & (C[:, 1, 1] != c22)
    Fs, target = F[search], c22[search, None]
    f = _ulp_ladder(Fs[:, 1, 1], 2)
    rest = target - f * f
    with np.errstate(invalid="ignore"):
        b = _ulp_ladder(np.copysign(np.sqrt(rest), Fs[:, None, 0, 1]), 8)
    G = np.broadcast_to(Fs[:, None, None], b.shape + (2, 2)).copy()
    G[..., 0, 1], G[..., 1, 1] = b, f[..., None]
    # one row per searched root, its 85 candidates f slowest (-1 leads:
    # the search may have no rows)
    G = G.reshape(-1, b.shape[1] * b.shape[2], 2, 2)
    hit = ((mg.gram(G)[..., 1, 1] == target)
           & np.repeat(rest > 0.0, b.shape[2], axis=1))
    first = np.argmax(hit, axis=1)
    F[search] = np.where(hit.any(axis=1)[:, None, None],
                         G[np.arange(len(Fs)), first], Fs)
    return np.where(closed[:, None, None], F, U)


def stage_representative(stage: int, delta: float) -> np.ndarray:
    """A canonical interior matrix of the given stage (band centers).

    This is the plain upper-triangular root: band centers sit far from
    every band edge, so the ulp-exact gap round trip of matrix_from_gaps
    is not needed here, and the canonical datum keeps its bits.
    """
    z0 = zeta0(delta)
    if stage >= 2:
        (lo1, hi1), (lo2, hi2) = stage_band(stage, delta)
        gaps = (0.5 * (lo1 + hi1), 0.5 * (lo2 + hi2))
    elif stage == 1:
        gaps = (0.375 * z0, 1.2 * z0)
    elif stage == 0:
        gaps = (1.5 * z0, 1.5 * z0)
    else:
        raise InvalidParameterError("stage must be a nonnegative integer")
    return _upper_root(1.0 - gaps[0], 1.0 + delta * delta - gaps[1], 1.0)[0]


def sample_stage(stage: int, delta: float, rng: np.random.Generator,
                 frac: tuple[float, float] | None = None) -> np.ndarray:
    """Random matrix of a stage >= 2: uniform in the open band box,
    random off-diagonal sign and rotation.  frac pins the band positions
    (0 = lower edge, 1 = upper edge) for stress grids."""
    (lo1, hi1), (lo2, hi2) = stage_band(stage, delta)
    f1, f2 = frac if frac is not None else rng.uniform(0.02, 0.98, 2)
    d1 = lo1 + f1 * (hi1 - lo1)
    d2 = lo2 + f2 * (hi2 - lo2)
    sign = 1.0 if rng.uniform() < 0.5 else -1.0
    return matrix_from_gaps(d1, d2, delta, sign, rng.uniform(0.0, 2.0 * math.pi))


# ---------------------------------------------------------------------------
# the in-approximation verification suite
# ---------------------------------------------------------------------------

@dataclass
class InApproxReport:
    delta: float
    samples: int
    stages: tuple[int, ...]
    failures: int
    sup_dist: dict          # stage -> max dist_to_wells over samples
    dist_constant: float    # max over stages of sup_dist * 2^(k/2)

    @property
    def ok(self) -> bool:
        return self.failures == 0


def verify_in_approximation(delta: float, samples: int = 10_000,
                            stages: tuple[int, ...] = tuple(range(2, 15)),
                            seed: int = 0) -> InApproxReport:
    """Check that dyadic splits move stage-k samples into stage k+1.

    For each stage k, `samples` random band points are split with the
    branch-appropriate target; both children must classify to k + 1.
    Also records sup dist-to-wells per stage and the constant in the
    sup <= C 2^(-k/2) envelope.
    """
    rng = np.random.default_rng(seed)
    wells = mg.make_wells(delta)
    z0 = zeta0(delta)
    failures = 0
    sup_dist: dict = {}
    for k in stages:
        branch, eps = dyadic_split_target(k, delta)
        (lo1, hi1), (lo2, hi2) = stage_band(k, delta)
        d1 = rng.uniform(lo1, hi1, samples)
        d2 = rng.uniform(lo2, hi2, samples)
        # vectorized children gaps: the improved entry moves to exactly eps,
        # the other is inherited, so child stages follow from gap arithmetic;
        # spot checks below keep the full split path honest.
        improved = np.full(samples, eps)
        kid_stage = (_classify_gaps(improved, d2, z0) if branch == 1
                     else _classify_gaps(d1, improved, z0))
        failures += int(np.count_nonzero(kid_stage != k + 1))
        # full-pipeline spot checks through the split and the classification
        idx = rng.integers(0, samples, size=min(25, samples))
        draws = np.array([(rng.uniform(), rng.uniform(0, 2 * math.pi))
                          for _ in idx]).reshape(-1, 2)
        F = matrices_from_gaps(d1[idx], d2[idx], delta,
                               np.where(draws[:, 0] < 0.5, 1.0, -1.0),
                               draws[:, 1])
        sr, errors = mg.split_stack(F, branch, eps, delta)
        raise_first(errors)
        got, _, _, errors = _stages(
            np.stack([sr.Fplus, sr.Fminus], axis=1).reshape(-1, 2, 2), delta)
        raise_first(errors)
        failures += int(np.count_nonzero(got != k + 1))
        corners = mg.dist_to_wells_b(matrices_from_gaps(
            np.repeat([lo1 * 1.0000001, hi1 * 0.9999999], 2),
            np.tile([lo2 * 1.0000001, hi2 * 0.9999999], 2), delta, 1.0), wells)
        sup_dist[k] = float(corners.min(axis=1).max())
    const = max(s * 2.0 ** (k / 2.0) for k, s in sup_dist.items())
    return InApproxReport(delta, samples, tuple(stages), failures, sup_dist,
                          const)
