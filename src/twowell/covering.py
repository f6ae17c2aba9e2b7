"""Triangle covering constructions with perimeter accounting.

A refinement step replaces a triangle by diamond-carrying cells plus
controlled leftovers.  Matching isosceles triangles receive one inscribed
diamond (half the area; two leftovers similar to the parent at ratio 1/2);
generic triangles go through altitude split -> medial rectangle -> square
packing -> rotated inner squares -> diamond rows, each row of 1/h
diamonds with isosceles gap triangles between them and four end
triangles.  A generic cover is its list of right triangles (RightRow,
from generic_spec), its children counted in closed form by child_count;
lay_squares lays the squares of any set of rows at once, a whole batch
of covers for emit_spec.  Every cover takes the replacement plan of its
cell; choosing that plan is the engine's job.  A cover carries its plan,
its children and the scales of its diamonds, nothing more: a child names
its gradient by its plan piece, or -1 for a leftover that keeps its
parent's (the engine maps pieces to rows of its gradient table).

perimeter_ledger sums the child perimeters of a cover per class (good /
leftover-isosceles / leftover-generic) and checks them against the
perimeter of the covered triangles for the BV growth ledger; the good
area fraction of a generic cover is at least 2^-5 of the parent.
"""

from __future__ import annotations

from dataclasses import dataclass
import math
from typing import List

import numpy as np

from . import cell as cl
from . import inapprox as ia
from .errors import ConstructionFailureError, InvalidDomainError, \
    WrongEntryPointError

ISO_TOL = 1e-9           # aspect/axis tolerance for isosceles membership
GOOD_FRACTION = 2.0 ** -5
C2_UNIFORM = 42.0


def c0_constant(h: float) -> float:
    """Per-cover perimeter constant of the h-structured child class."""
    return 10.0 * np.floor(1.0 / h + 1e-12)


def tri_areas(verts: np.ndarray) -> np.ndarray:
    """Signed areas of triangles (n,3,2); positive for counterclockwise
    vertices."""
    a = verts[:, 1] - verts[:, 0]
    b = verts[:, 2] - verts[:, 0]
    return 0.5 * (a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0])


def tri_perimeters(verts: np.ndarray) -> np.ndarray:
    e = verts - np.roll(verts, 1, axis=1)
    return np.linalg.norm(e, axis=2).sum(axis=1)


def _fix_ccw(verts: np.ndarray) -> np.ndarray:
    flip = tri_areas(verts) < 0
    if np.any(flip):
        verts[flip] = verts[flip][:, [0, 2, 1]]
    return verts


def _norm(d: np.ndarray) -> np.ndarray:
    """Lengths of the vectors d (...,2); per vector the same bits as
    np.linalg.norm of one vector (np.linalg.norm(axis=-1) rounds
    differently)."""
    return np.sqrt(np.vecdot(d, d))


def iso_parts(v: np.ndarray):
    """(sides, apex, base ends b1 b2, base midpoint, height) of triangles
    v (...,3,2) read as isosceles: the apex faces the shortest side."""
    v = np.asarray(v, dtype=float)
    sides = _norm(np.roll(v, -2, axis=-2) - np.roll(v, -1, axis=-2))
    apex = np.argmin(sides, axis=-1)[..., None, None]
    a, b1, b2 = (np.take_along_axis(v, (apex + j) % 3, axis=-2)[..., 0, :]
                 for j in range(3))
    m = 0.5 * (b1 + b2)
    return sides, a, b1, b2, m, _norm(a - m)


def iso_layout(v: np.ndarray):
    """(center, scale, leftovers (...,2,3,2), apex axis) of the
    inscribed-diamond covers of v (...,3,2): the diamond spans the base
    midpoint to the apex, and the two leftovers hold the base halves."""
    _, a, b1, b2, m, height = iso_parts(v)
    leftovers = np.stack([np.stack([m, b1, 0.5 * (a + b1)], axis=-2),
                          np.stack([m, 0.5 * (a + b2), b2], axis=-2)],
                         axis=-3)
    return (0.5 * (a + m), 0.5 * height, leftovers,
            (a - m) / height[..., None])


def iso_membership(v: np.ndarray, h: float):
    """(member, apex_direction) of triangles v (...,3,2) against the
    base/height = 2h class.

    The base is the short side; the axis runs from the base midpoint to
    the apex.  Membership requires a height above ISO_TOL, base/height =
    2h and the two legs to match, all within ISO_TOL relative to the
    triangle scale.
    """
    sides, a, b1, b2, m, height = iso_parts(v)
    scale = ISO_TOL * sides.max(axis=-1)
    member = ((height > scale)
              & (np.abs(_norm(a - b1) - _norm(a - b2)) <= scale)
              & (np.abs(sides.min(axis=-1) - 2.0 * h * height) <= scale))
    with np.errstate(invalid="ignore", divide="ignore"):
        return member, (a - m) / height[..., None]


@dataclass
class CoverResult:
    """Children of one cover, or of a batch of covers of one plan laid
    cover after cover, and the scales of their diamonds.

    A child names its gradient by piece: the index of its plan piece in a
    replaced diamond (good, a new gradient), or -1 for a leftover, which
    keeps the parent's affine map.  grads, stages and phases gather the
    plan's values.  iso marks the leftovers in the isosceles class of the
    plan (base/height = 2 plan.h, apex axis along plan.dhat): they keep the
    parent's gradient, so they get the same plan again and take its
    inscribed-diamond cover.
    """
    plan: cl.RefinePlan
    verts: np.ndarray        # (n,3,2), counterclockwise
    offs: np.ndarray         # (n,2)
    piece: np.ndarray        # (n,) plan piece index, -1 for a leftover
    iso: np.ndarray          # (n,) bool, in the isosceles class of the plan
    diam_scales: np.ndarray  # (m,) scale of every placed diamond, in order

    @property
    def n_children(self) -> int:
        return self.verts.shape[0]

    @property
    def good(self) -> np.ndarray:
        return self.piece >= 0

    # a plan column with the parent's value appended: piece -1 reads it
    @property
    def grads(self) -> np.ndarray:
        return np.concatenate([self.plan.grads, self.plan.M[None]])[self.piece]

    @property
    def stages(self) -> np.ndarray:
        return np.append(self.plan.stages, self.plan.stage)[self.piece]

    @property
    def phases(self) -> np.ndarray:
        return np.append(self.plan.phases, self.plan.parent_phase)[self.piece]

    def areas(self) -> np.ndarray:
        return tri_areas(self.verts)

    def perimeters(self):
        """(good, leftover-iso, leftover-generic) sums of child perimeters."""
        per = tri_perimeters(self.verts)
        return (float(per[self.good].sum()), float(per[self.iso].sum()),
                float(per[~self.good & ~self.iso].sum()))


def runs(starts, counts) -> np.ndarray:
    """starts[k] + 0, 1, ..., counts[k] - 1 for every k, concatenated."""
    starts = np.asarray(starts, dtype=np.int64)
    counts = np.broadcast_to(counts, starts.shape).astype(np.int64)
    before = np.cumsum(counts) - counts
    return np.repeat(starts - before, counts) + np.arange(int(counts.sum()))


def _emit(plan: cl.RefinePlan, n: int, pieces_at: np.ndarray,
          centers: np.ndarray, r: np.ndarray, dia_off: np.ndarray,
          left_at: np.ndarray, left: np.ndarray, left_off: np.ndarray,
          n_iso: int) -> CoverResult:
    """The n children of a batch of covers of one plan.

    Diamond d (center centers[d], scale r[d], parent offset dia_off[d])
    puts the plan's P pieces at pieces_at[d*P:(d+1)*P]; leftover k keeps
    its parent's map at left_at[k], and the first n_iso leftovers are in
    the isosceles class of the plan.
    """
    res = CoverResult(plan, np.empty((n, 3, 2)), np.empty((n, 2)),
                      np.full(n, -1, dtype=np.int16),
                      np.zeros(n, dtype=bool), r)
    at = pieces_at.reshape(centers.shape[0], plan.n_pieces)
    res.verts[at], res.offs[at] = plan.place(centers, r, dia_off)
    res.piece[at] = np.arange(plan.n_pieces)
    res.verts[left_at] = _fix_ccw(left)
    res.offs[left_at] = left_off
    res.iso[left_at[:n_iso]] = True
    return res


def _perp(d: np.ndarray) -> np.ndarray:
    return np.array([-d[1], d[0]])


def stack_centers(rows, h: float, s: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Centers of the diamonds j of the diamond rows s (int arrays); rows
    is the (p0, e_len, e_w, length, n) tuple of lay_squares, and the
    diamonds' scale is length/2."""
    p0, e_len, e_w, length, _ = rows
    mid = p0[s] + (0.5 * length[s])[:, None] * e_len[s]
    return mid + ((j + 0.5) * (h * length[s]))[:, None] * e_w[s]


def stack_leftovers(rows, h: float, s: np.ndarray, g: np.ndarray):
    """(upper, lower, ends): the leftovers of the diamond rows (lay_squares).

    upper[k] and lower[k] are the isosceles gap triangles between the
    diamonds g[k] and g[k] + 1 of the row s[k], with apex axes -e_len and
    +e_len; ends (S,4,3,2) holds the four right-angled end triangles
    (legs w/2 and length/2) of every row.
    """
    p0, e_len, e_w, length, n = rows
    w = (h * length)[:, None]
    mid = p0 + (0.5 * length)[:, None] * e_len
    far = p0 + length[:, None] * e_len

    def tip(base, i, at=slice(None)):
        """Outer tip of the diamonds i on the side of base."""
        return base[at] + (i + 0.5)[:, None] * w[at] * e_w[at]

    touch = mid[s] + (g + 1)[:, None] * w[s] * e_w[s]
    nw = n[:, None] * w * e_w
    ends = np.stack([
        np.stack([p0, tip(p0, 0 * n), mid], axis=1),
        np.stack([far, mid, tip(far, 0 * n)], axis=1),
        np.stack([p0 + nw, mid + nw, tip(p0, n - 1)], axis=1),
        np.stack([far + nw, tip(far, n - 1), mid + nw], axis=1),
    ], axis=1)
    return (np.stack([tip(far, g, s), tip(far, g + 1, s), touch], axis=1),
            np.stack([tip(p0, g + 1, s), tip(p0, g, s), touch], axis=1),
            ends)


@dataclass
class RightRow:
    """One right triangle of a generic cover.

    The right angle sits at v0 with the shorter leg along e1.  The medial
    rectangle [0, a] e1 x [0, width] e2 (a = half the short leg) holds a
    row of m squares of side a starting at v0 along e2 (lay_squares); the
    two medial leftovers lie outside it and the residual end of the
    rectangle, when the squares do not fill it, is split into two
    triangles.
    """
    v0: np.ndarray
    e1: np.ndarray
    e2: np.ndarray
    a: float
    m: int
    medial: np.ndarray      # (2,3,2)
    residual: np.ndarray    # (0,3,2) or (2,3,2)
    rotated: bool           # no side of its squares is parallel to dhat


def _right_row(v0: np.ndarray, va: np.ndarray, vb: np.ndarray,
               dhat: np.ndarray) -> RightRow:
    """Right triangle with the right angle at v0: medial rectangle + packing."""
    la = np.linalg.norm(va - v0)
    lb = np.linalg.norm(vb - v0)
    if la > lb:
        va, vb, la, lb = vb, va, lb, la
    e1 = (va - v0) / la
    e2 = (vb - v0) / lb
    m1 = v0 + 0.5 * la * e1
    m2 = v0 + 0.5 * lb * e2
    hyp = v0 + 0.5 * la * e1 + 0.5 * lb * e2
    medial = np.stack([np.stack([m1, va, hyp]), np.stack([m2, hyp, vb])])
    a = 0.5 * la
    width = 0.5 * lb
    m = int(np.floor(width / a + 1e-9))
    residual = np.zeros((0, 3, 2))
    res = width - m * a
    if res > 1e-12 * a:
        c0 = v0 + m * a * e2
        c1 = c0 + res * e2
        residual = np.stack([np.stack([c0, c1, c1 + a * e1]),
                             np.stack([c0, c1 + a * e1, c0 + a * e1])])
    rotated = bool(np.all(np.abs(np.vecdot([e1, e2], dhat)) > ISO_TOL))
    return RightRow(v0, e1, e2, a, m, medial, residual, rotated)


def generic_spec(tri: np.ndarray, plan: cl.RefinePlan) -> List[RightRow]:
    """The generic cover of tri: its right triangles, in cover order; no
    square laid, no child materialized."""
    v = np.asarray(tri, dtype=float)
    area = tri_areas(v[None])[0]
    if area < 0:
        v = v[[0, 2, 1]]
        area = -area
    if area <= 0.0:
        raise InvalidDomainError("degenerate triangle")
    if abs(int(round(1.0 / plan.h)) * plan.h - 1.0) > 1e-9:
        raise InvalidDomainError(f"aspect {plan.h} does not divide the unit "
                                 "square row")
    # right-angle detection at each corner
    rights = []
    for i in range(3):
        d = float(np.dot(v[(i + 1) % 3] - v[i], v[(i + 2) % 3] - v[i]))
        lens = (np.linalg.norm(v[(i + 1) % 3] - v[i])
                * np.linalg.norm(v[(i + 2) % 3] - v[i]))
        rights.append(abs(d) <= 1e-12 * lens)
    if any(rights):
        i = rights.index(True)
        return [_right_row(v[i], v[(i + 1) % 3], v[(i + 2) % 3],
                           plan.dhat)]
    # altitude from the vertex opposite the longest side
    sides = np.array([np.linalg.norm(v[2] - v[1]),
                      np.linalg.norm(v[0] - v[2]),
                      np.linalg.norm(v[1] - v[0])])
    i = int(np.argmax(sides))
    p, q, o = v[(i + 1) % 3], v[(i + 2) % 3], v[i]
    d = (q - p) / sides[i]
    foot = p + np.dot(o - p, d) * d
    return [_right_row(foot, p, o, plan.dhat),
            _right_row(foot, o, q, plan.dhat)]


def lay_squares(rows: List[RightRow], ri, i, plan: cl.RefinePlan):
    """The squares i of the rows ri (int arrays) as diamond rows along dhat.

    Square i of a row spans q + [0,a] e1 x [0,a] e2 with e1 = row.e2,
    e2 = row.e1 and q = v0 + i a e1; a side is flipped where c = dhat.e1
    or s = dhat.e2 is negative.  If a side is then parallel to dhat, the
    diamond row fills the square; otherwise it fills an inner square
    rotated onto the dhat frame (side a/(c+s), at least half the area)
    and leaves four corner triangles.
    Returns the (p0, e_len, e_w, length, n) arrays of the diamond rows,
    n = 1/h diamonds across p0 + [0,length] e_len x [0,n h length] e_w,
    and the counterclockwise corners (4k,3,2) of the k rotated squares.
    """
    ri, i = np.asarray(ri, dtype=np.int64), np.asarray(i, dtype=np.int64)
    v0, e1, e2, a, rotated = (np.array([getattr(row, f) for row in rows])[ri]
                              for f in ("v0", "e2", "e1", "a", "rotated"))
    c, s = np.vecdot(e1, plan.dhat), np.vecdot(e2, plan.dhat)
    ac = a[:, None]
    q = v0 + (i * a)[:, None] * e1
    flip = (c < 0)[:, None]
    q, e1 = np.where(flip, q + ac * e1, q), np.where(flip, -e1, e1)
    flip = (s < 0)[:, None]
    q, e2 = np.where(flip, q + ac * e2, q), np.where(flip, -e2, e2)
    c, s = np.abs(c), np.abs(s)
    # the inner square of a rotated square: side ap from v0 along dhat
    t = (s / (c + s))[:, None]
    ap = a / (c + s)
    ta = t * ac
    q1 = q + ac * e1
    q12 = q1 + ac * e2
    v0 = q + ta * e1
    v1 = q1 + ta * e2
    v2 = q12 - ta * e1
    v3 = q + ((1.0 - t) * ac) * e2
    across = ((s > ISO_TOL) & (c <= ISO_TOL))[:, None]
    rot = rotated[:, None]
    corners = np.stack([q, v0, v3, q1, v1, v0, q12, v2, v1, q + ac * e2, v3,
                        v2], axis=1)[rotated]
    return ((np.where(rot, v0, q),
             np.where(rot, plan.dhat, np.where(across, e2, e1)),
             np.where(rot, (v3 - v0) / ap[:, None], np.where(across, e1, e2)),
             np.where(rotated, ap, a),
             np.full(a.shape[0], int(round(1.0 / plan.h)), dtype=np.int64)),
            _fix_ccw(corners.reshape(-1, 3, 2)))


def child_count(rows: List[RightRow], plan: cl.RefinePlan) -> int:
    """Children of the generic cover with the right triangles rows.

    Per row: two medial triangles, the residual ones and, per square, one
    diamond row (P n pieces, 2(n-1) gaps, four ends) plus four corner
    triangles when the squares are rotated.
    """
    n = int(round(1.0 / plan.h))
    square = plan.n_pieces * n + 2 * (n - 1) + 4
    return sum(2 + row.residual.shape[0]
               + row.m * (square + 4 * row.rotated) for row in rows)


def _emit_rows(plan: cl.RefinePlan, rows, cell: np.ndarray,
               nt: np.ndarray, tris: np.ndarray, offset) -> CoverResult:
    """Children of the covers k = 0..len(nt)-1 of one plan, cover after
    cover: cover k lists its diamond rows (rows, the tuple of lay_squares,
    those with cell == k in order; each row's diamonds, its upper and
    lower gap triangles, its four end triangles), then its nt[k]
    triangles of tris, in order."""
    m = nt.shape[0]
    off = np.broadcast_to(np.asarray(offset, dtype=float), (m, 2))
    n = rows[4]
    P = plan.n_pieces
    size = P * n + 2 * (n - 1) + 4
    tris_before = np.cumsum(nt) - nt
    start = np.cumsum(size) - size + tris_before[cell]
    rows_upto = np.cumsum(np.bincount(cell, size, m)).astype(np.int64)
    s = np.repeat(np.arange(n.shape[0]), n)
    sg = np.repeat(np.arange(n.shape[0]), n - 1)
    upper, lower, ends = stack_leftovers(rows, plan.h, sg,
                                         runs(np.zeros_like(n), n - 1))
    gap_at = start + P * n
    left_at = np.concatenate([runs(gap_at, n - 1), runs(gap_at + n - 1, n - 1),
                              runs(gap_at + 2 * (n - 1), 4),
                              runs(rows_upto + tris_before, nt)])
    left_cell = np.concatenate([cell[sg], cell[sg], np.repeat(cell, 4),
                                np.repeat(np.arange(m), nt)])
    return _emit(plan, int(size.sum() + nt.sum()), runs(start, P * n),
                 stack_centers(rows, plan.h, s, runs(np.zeros_like(n), n)),
                 0.5 * rows[3][s], off[cell[s]], left_at,
                 np.concatenate([upper, lower, ends.reshape(-1, 3, 2), tris]),
                 off[left_cell], 2 * sg.shape[0])


def emit_spec(covers: List[List[RightRow]], plan: cl.RefinePlan,
              offset) -> CoverResult:
    """Children of the generic covers of cells of one plan, cover after
    cover.

    covers holds the generic_spec rows of each cell and offset (2,) or
    (n,2) their maps; one lay_squares call lays all their squares.  A
    cover lists the diamond rows of its squares, then its triangles: per
    right row the medial ones, its squares' corners, the residual ones.
    """
    rows = [row for cover in covers for row in cover]
    cell = np.repeat(np.arange(len(covers)), [len(c) for c in covers])
    m = np.array([row.m for row in rows], dtype=np.int64)
    ri = np.repeat(np.arange(len(rows)), m)
    stacks, corners = lay_squares(rows, ri, runs(np.zeros_like(m), m), plan)
    ncorner = 4 * m * np.array([row.rotated for row in rows])
    nres = np.array([row.residual.shape[0] for row in rows], dtype=np.int64)
    nt = 2 + ncorner + nres
    first = np.cumsum(nt) - nt
    tris = np.empty((int(nt.sum()), 3, 2))
    tris[runs(first, 2)] = np.concatenate([row.medial for row in rows])
    tris[runs(first + 2, ncorner)] = corners
    tris[runs(first + 2 + ncorner, nres)] = np.concatenate(
        [row.residual for row in rows])
    return _emit_rows(plan, stacks, cell[ri],
                      np.bincount(cell, nt, len(covers)).astype(np.int64),
                      tris, offset)


def cover_isosceles(tri: np.ndarray, plan: cl.RefinePlan,
                    offset=(0.0, 0.0)) -> CoverResult:
    """Inscribed-diamond covers of matching isosceles triangles.

    tri is one triangle (3,2) or a batch (n,3,2) of cells of one plan,
    with offsets (n,2) their maps; the children follow cover after cover.
    The diamond takes exactly half the area (scale H/2 between the base
    midpoint and the apex, equatorial vertices at the leg midpoints); the
    two leftovers are similar copies of the parent at ratio 1/2 with the
    same apex axis.
    """
    v = np.asarray(tri, dtype=float).reshape(-1, 3, 2)
    member, axis = iso_membership(v, plan.h)
    if not np.all(member):
        raise WrongEntryPointError("triangle is not in the matching "
                                   "isosceles class")
    if np.any(np.abs(np.vecdot(axis, plan.dhat)) < 1.0 - ISO_TOL):
        raise WrongEntryPointError("isosceles axis does not match the "
                                   "diamond frame")
    center, r, leftovers, _ = iso_layout(v)
    n, P = v.shape[0], plan.n_pieces
    at = np.arange(n) * (P + 2)
    off = np.broadcast_to(np.asarray(offset, dtype=float), (n, 2))
    return _emit(plan, n * (P + 2), runs(at, P), center, r, off,
                 runs(at + P, 2), leftovers.reshape(-1, 3, 2),
                 np.repeat(off, 2, axis=0), 2 * n)


def cover_generic(tri: np.ndarray, plan: cl.RefinePlan,
                  offset=(0.0, 0.0)) -> CoverResult:
    """Full generic-triangle cover; good area is at least 2^-5 of the parent."""
    return emit_spec([generic_spec(tri, plan)], plan, offset)


def perimeter_ledger(result: CoverResult, tri: np.ndarray, h: float,
                     iso: bool):
    """(sum_good, sum_iso, sum_generic); ConstructionFailureError when a
    per-cover bound fails.

    result covers the triangles tri ((3,2) or (n,3,2)), with Per(T)
    their total perimeter; iso says whether it is their inscribed-diamond
    cover.  Isosceles covers obey total <= C2 * Per(T); generic covers
    obey good <= C0 * Per(T), leftover-iso <= C0 * Per(T) and
    leftover-generic <= C2 * Per(T), with C0 = 10*floor(1/h) for the
    plan's aspect h and C2 = 42.
    """
    if result.n_children == 0:
        return (0.0, 0.0, 0.0)
    sums = result.perimeters()
    per = float(tri_perimeters(
        np.asarray(tri, dtype=float).reshape(-1, 3, 2)).sum())
    if iso:
        bounds = [("iso cover", sum(sums), C2_UNIFORM)]
    else:
        bounds = [("iso-part", sums[1], c0_constant(h)),
                  ("good", sums[0], c0_constant(h)),
                  ("generic-part", sums[2], C2_UNIFORM)]
    for name, total, c in bounds:
        if not total <= c * per:
            raise ConstructionFailureError(f"{name} perimeter bound: "
                                           f"{total:.6g} > {c} * {per:.6g}")
    return sums


# ---------------------------------------------------------------------------
# the covering verification suite
# ---------------------------------------------------------------------------

@dataclass
class CoveringCheckReport:
    delta: float
    h0: float                   # the aspect of the dyadic covers checked
    cases: int
    failures: int
    max_partition_err: float    # relative to the parent area
    max_continuity_err: float
    max_trace_err: float
    max_stray_len: float        # interface length on the parent boundary
    min_good_fraction: float    # over the generic cases

    @property
    def ok(self) -> bool:
        return self.failures == 0


def _check_cover(res: CoverResult, tri: np.ndarray, plan: cl.RefinePlan,
                 iso: bool, report: CoveringCheckReport):
    from . import analysis as an
    area = abs(tri_areas(np.asarray(tri, dtype=float)[None])[0])
    part = abs(float(tri_areas(res.verts).sum()) - area) / area
    sweep = an.sweep_intervals(res.verts)
    cont = an.continuity_residual(res.verts, res.grads, res.offs,
                                  sweep=sweep)
    v = np.asarray(tri, dtype=float)
    hull = np.stack([v, np.roll(v, -1, axis=0)], axis=1)
    trace, stray = an.boundary_trace_residual(res.verts, res.grads, res.offs,
                                              plan.M, hull_segments=hull,
                                              sweep=sweep)
    report.max_partition_err = max(report.max_partition_err, part)
    report.max_continuity_err = max(report.max_continuity_err, cont)
    report.max_trace_err = max(report.max_trace_err, trace)
    report.max_stray_len = max(report.max_stray_len, stray)
    ledger_ok = True
    try:
        perimeter_ledger(res, tri, plan.h, iso)
    except ConstructionFailureError:
        ledger_ok = False
    # every placed diamond carries the plan's pieces, in the plan's order
    layout_ok = np.array_equal(res.piece[res.good],
                               np.tile(np.arange(plan.n_pieces),
                                       len(res.diam_scales)))
    scale = math.sqrt(area)
    if (part > 1e-12 or cont > 1e-10 or trace > 1e-10 * max(scale, 1.0)
            or stray > 1e-8 * scale or not ledger_ok or not layout_ok):
        report.failures += 1


VERIFY_STAGES = (2, 3)


def verify_covering(delta: float) -> CoveringCheckReport:
    """Partition/continuity/trace/ledger/layout sweep over all cover kinds.

    For each of VERIFY_STAGES, at the aspect an engine calibrates (the
    CORRIDOR fractions of cell.calibrate_h0): the matching
    isosceles cover and generic covers of a scalene triangle in two
    placements (their squares are the diamond rows); plus one low-stage
    cover.  Everything must partition exactly, glue continuously, match the
    affine datum on the parent boundary, keep interface segments off the
    parent boundary, respect the perimeter ledger and give every diamond
    the plan's pieces.
    """
    h0 = cl.calibrate_h0(delta, fracs=cl.CORRIDOR)
    report = CoveringCheckReport(delta, h0, 0, 0, 0.0, 0.0, 0.0, 0.0, 1.0)
    for stage in VERIFY_STAGES:
        M = ia.stage_representative(stage, delta)
        plan = cl.replace_dyadic_stage(M, delta, h0)
        d, p = plan.dhat, _perp(plan.dhat)
        m = np.array([0.15, -0.4])
        H = 0.37
        iso_tri = _fix_ccw(np.stack([m + H * d, m - plan.h * H * p,
                                     m + plan.h * H * p])[None])[0]
        res = cover_isosceles(iso_tri, plan)
        report.cases += 1
        if res.n_children != 12:
            report.failures += 1
        _check_cover(res, iso_tri, plan, True, report)
        for tri in (np.array([[0.0, 0.0], [0.9, 0.15], [0.25, 0.8]]),
                    np.array([[1.0, 1.0], [1.2, 1.9], [0.3, 1.5]])):
            res = cover_generic(tri, plan)
            report.cases += 1
            _check_cover(res, tri, plan, False, report)
            good_frac = float(tri_areas(res.verts[res.good]).sum()
                              / abs(tri_areas(tri[None])[0]))
            report.min_good_fraction = min(report.min_good_fraction,
                                           good_frac)
            if good_frac < GOOD_FRACTION:
                report.failures += 1
    z0 = ia.zeta0(delta)
    M0 = ia.matrix_from_gaps(0.75 * z0, 0.75 * z0, delta, 1.0)
    tri = np.array([[0.0, 0.0], [0.5, 0.1], [0.1, 0.45]])
    plan = cl.replace_low_stage(M0, delta)
    res = cover_generic(tri, plan)
    report.cases += 1
    _check_cover(res, tri, plan, False, report)
    return report
