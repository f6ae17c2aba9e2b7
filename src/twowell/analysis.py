"""Quantitative certification of refinement runs.

Exact integrals over piecewise-constant/affine fields on triangulations:
BV seminorms and continuity/boundary checks via a vectorized line sweep
over coincident edge intervals, interpolated W^{s,p} bounds,
geometric-rate fits, the regularity threshold, and box-counting dimension
of interface edge sets.

The line sweep keys every triangle edge by its carrying line (the
quantized normal form (nx, ny, c)) in an edge table of five columns:
eid, key, tlo and thi (its interval along the line), and left (the side
of its cell).  It sorts the interval endpoints of all edges by line,
then position along the line.  Running sums of per-side coverage counts
and active edges then give the owners of every subinterval, so jumps
across partially overlapping child/neighbor edges are integrated exactly
without any pairwise matching; a subinterval's endpoints are read from
verts through the eid of an edge that owns it.  A side covered by
exactly one edge is owned by its cell; by none or by more than one (an
overlap), it has owner -1.  So a line's owners depend on its own edges
only, and the sweep runs on pieces of whole lines of about SWEEP_CHUNK
edges (the table stably sorted by line key, then cut at line starts).
The sweep has two readers.  sweep_intervals joins the pieces' intervals
into one SweepAccumulator (for the domain check, the cover and cell
verifiers, the lineage's plan data and twowell dim).  sweep_totals, the
engine's, reduces each piece per line as soon as it is swept and keeps
only LineTotals: one row per line, so no interval outlives its piece.

Across a refinement step the totals are incremental.  Every kept cell is
frozen, so a line that carries no edge of a new cell or of a covered one
holds the same edges as before, and its totals do not change.  Every
state carries its predecessor's totals (a run's first state empty ones
in its own frame) and keys its lines in their frame, so a run has one
frame.  sweep_totals sweeps only the dirty lines and merges their totals
with the clean ones by key; no owner is carried, and overlap is a
per-line fact like the sums, so the result equals the per-line reduction
of a full sweep in the run's frame.  Dirty lines are found through a
32-bit hash of every cell edge's line key (edge_hash), carried with the
kept cells: a line's bucket is the top bits of its hash, and a bucket
shared by two lines only re-sweeps a clean one.

Twin edges skip the sweep.  Two edges are twins when they have the same
two endpoints, exactly, in opposite order: the interior edges of a
placed diamond, whose pieces share their plan's unit vertices
(cell.plan_twins), and RefinePlan.place computes every vertex as
r * u + c, so the bits as well.  The engine pairs them on the laid cells
(pair_twins, which checks the endpoints) and carries the pairs of the
kept cells (carry_twins).  A twin is one interval, interior, owned by
its two cells, so sweep_totals leaves it out of the edge table and
evaluates its terms directly, with the same term functions: per cell,
over the pairs it owns (LineTotals.twin_terms).  A kept cell's twin
terms are carried while its twins are; a kept edge whose twin's cell is
covered enters the lines (its hash is computed then, and its bucket is
dirty) and its cell's twin terms are evaluated again.  The line totals
cover the intervals of the edges with no twin, and a row value combines
a line column with its twin column (LineTotals.value); the twin terms
use the edge's own length and vertices, so the BV and continuity values
differ from the full sweep's by ulps.  The sweep's work in a step scales
with the new edges that are not twins (28% of the child edges of the
benchmark's big_run on its input 3) and the twins that dissolve.

The engine's checks are split into a per-interval term and a reduction.
jump_terms (phase jump x length), grad_jump_terms (Frobenius norm of the
gradient jump x length), continuity_terms (affine mismatch at both
endpoints) and trace_terms (the mismatch with the boundary datum on the
domain boundary, and the stray length of outer intervals off it) give
one entry per interval.  bv_seminorm_cells, bv_seminorm and the stray of
boundary_trace_residual sum them per line, then over the lines in key
order; continuity_residual and the trace are their max.  sweep_totals
reduces the same terms of the cells' fields (CellFields) per line with
np.add.reduceat and np.maximum.reduceat, so the np.sum or max of a line
column has the bits of the public function on the full sweep of the
state's edges with no twin.  A twin adds no trace or stray term.

Rows of an array with more than one column (points, line keys,
gradients) are gathered with np.take(a, idx, axis=0) and selected with
np.compress(mask, a, axis=0), not with a[idx] or a[mask]: with numpy 2.4
the indexing forms take 2-10 times as long on such arrays.  Both copy the
same elements in the same order, so every result keeps its bits.  A 1-D
array keeps a[idx], which is as fast there.

Reductions over a short axis (2 to 4 entries: a point's coordinates, a
2x2 gradient, a cell's three edges) are written elementwise on the
columns, not as .max(axis=1), .all/.any(axis=1), ufunc.reduce(axis=1) or
np.linalg.norm(axis=...): with numpy 2.4 the reduction forms take up to
40 times as long.  The columns are combined in the order the reduction
takes them, so every result keeps its bits: a length is sqrt(x*x + y*y)
(_lengths), a Frobenius norm sqrt(((a*a + b*b) + c*c) + d*d), a sum of
three (a + b) + c (the reduction starts from +0, so the two differ only
on three -0 entries, which no length or term is); a maximum is exact in
any order.  np.hypot scales its arguments and np.vecdot
(covering._norm) sums otherwise, so both round differently and are not
used for these.  tests/oracles.py keeps the reduction forms, and the
tests compare the two bit for bit.

Line grouping works in bbox-normalized coordinates: each edge's line
(nx, ny, c) is rounded to LINE_QUANTUM = 1e-9, and the edges with equal
rounded keys form one line.  Two edges of one line whose values differ
in their last bits can fall on either side of a rounding boundary and
get two keys, at any feature size and noise level; their shared interval
is then swept as two one-sided intervals (ROADMAP item 11: big_run input
3 has stray_boundary_len 2.28e-4).  Meshes stored with a large
translation relative to their feature size lose coincidence information
in the float format itself; overlap_error flags them.

overlap_error detects collinear double coverage (two cells claiming the
same side of the same edge interval), the failure mode of misplaced
refinement children.  Off the axes it also fires on conforming meshes:
two collinear edges that meet at a vertex take its t from their own
normals, which can differ by more than the sliver cut (ROADMAP item 18).
A twin is not in the sweep, so it is covered by its two cells only: a
foreign edge collinear with a twin and overlapping it reads as a
one-sided interval off the domain boundary, that is stray length, where
the full sweep would read a doubly covered side.
A cell strictly inside another shares no edge line and is invisible to
the sweep; total-area conservation is the guard for that case and is
checked by the engine on every step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import covering
from .errors import InvalidParameterError, UndefinedDimensionError

LINE_QUANTUM = 1e-9
SLIVER = 1e-12           # shortest interval kept, in units of the frame diameter
SWEEP_CHUNK = 1 << 16    # edges per piece of the edge table and the sweep
BOX_POINTS = 1 << 18     # sample points per run of box_dimension


# ---------------------------------------------------------------------------
# edge extraction and the line sweep
# ---------------------------------------------------------------------------

def _frame(verts: np.ndarray):
    """Normalizing frame (center, diameter) so line quantization is
    invariant under translation and scaling of the mesh."""
    x, y = verts[..., 0], verts[..., 1]
    lo = np.array([x.min(), y.min()])
    hi = np.array([x.max(), y.max()])
    diam = max(float(hi[0] - lo[0]), float(hi[1] - lo[1]))
    if diam <= 0:
        raise InvalidParameterError("degenerate mesh extent")
    return 0.5 * (lo + hi), diam


def _edge_ends(verts: np.ndarray, eid: np.ndarray):
    """(first, second) vertex of the edges eid of verts: edge 3i + j runs
    from vertex j to vertex j + 1 (mod 3) of cell i."""
    flat = verts.reshape(-1, 2)
    return (np.take(flat, eid, axis=0),
            np.take(flat, eid + 1 - 3 * (eid % 3 == 2), axis=0))


def _edge_chunks(verts: np.ndarray, frame, eid: np.ndarray) -> list:
    """The edge tables of the edges eid of verts (_edge_ends) in frame, one
    per chunk of SWEEP_CHUNK edges (one chunk at least), to be joined by
    the caller (_join).  A table has five columns: eid, key (the line key,
    (E,3) int32), tlo, thi and left (bool: the owning cell lies left of the
    canonical tangent); zero-length edges are dropped.  Works in normalized
    coordinates (the frame's center and diameter divided out); every value
    of an edge depends on that edge and the frame only, so the table is
    built a chunk at a time and its temporaries stay that small.
    """
    return [list(_edge_chunk(verts, frame, eid[i:i + SWEEP_CHUNK]))
            for i in range(0, max(eid.shape[0], 1), SWEEP_CHUNK)]


def _join(parts: list) -> list:
    """The columns of parts (lists of columns) concatenated, column by
    column, each part's copy set to None once joined."""
    cols = []
    for i in range(len(parts[0])):
        cols.append(np.concatenate([p[i] for p in parts]))
        for p in parts:
            p[i] = None
    return cols


def _lengths(d: np.ndarray) -> np.ndarray:
    """Lengths of the vectors d (n,2), sqrt(x*x + y*y): the bits of
    np.linalg.norm(d, axis=1)."""
    x, y = d[:, 0], d[:, 1]
    return np.sqrt(x * x + y * y)


def _edge_chunk(verts: np.ndarray, frame, eid: np.ndarray):
    """The table (_edge_chunks) of one chunk of edges."""
    center, diam = frame
    p0, p1 = ((p - center) / diam for p in _edge_ends(verts, eid))
    d = p1 - p0
    length = _lengths(d)
    good = length > 0
    eid, length = eid[good], length[good]
    p0, p1, d = (np.compress(good, a, axis=0) for a in (p0, p1, d))
    dh = d / length[:, None]
    nx, ny = -dh[:, 1], dh[:, 0]
    # |qnx|, |qny| <= 1e9 and, with every point within 0.5 of the center
    # per axis, |qc| <= 0.71e9: int32 holds the keys
    qnx = np.round(nx / LINE_QUANTUM).astype(np.int32)
    qny = np.round(ny / LINE_QUANTUM).astype(np.int32)
    flip = (qnx < 0) | ((qnx == 0) & (qny < 0))
    s = np.where(flip, -1.0, 1.0)
    nx, ny = nx * s, ny * s
    qnx, qny = np.where(flip, -qnx, qnx), np.where(flip, -qny, qny)
    c = nx * p0[:, 0] + ny * p0[:, 1]
    qc = np.round(c / LINE_QUANTUM).astype(np.int32)
    # tangent = perp of canonical normal; the CCW cell lies left of p0->p1
    t0 = ny * p0[:, 0] - nx * p0[:, 1]
    t1 = ny * p1[:, 0] - nx * p1[:, 1]
    left = t1 > t0
    key = np.stack([qnx, qny, qc], axis=1)
    return eid, key, np.minimum(t0, t1), np.maximum(t0, t1), left


def _sweep(edges, rows: np.ndarray, line: np.ndarray, verts: np.ndarray,
           frame):
    """Subintervals of a run of whole lines of an edge table of verts in
    frame, in the order line, then t: rows are the table rows of the run's
    edges, line their ascending line numbers.  Edges are numbered by table
    row.  A side covered by exactly one edge is owned by that edge's cell;
    a side covered by none or by more than one gets owner -1, and more
    than one sets the interval's overlap flag.  So a line's result depends
    on its own edges only, and any run of lines sweeps them as the whole
    table does.  Returns (dt, left owner, right owner, point_lo, point_hi,
    line key, overlap)."""
    eid, key, tlo, thi, left = edges
    center, diam = frame
    # two events per edge (event i belongs to row rows[i >> 1]), sorted by
    # line, then t; events at equal t bound only zero-length intervals,
    # which are dropped, so their order among themselves does not matter
    ev_t = np.empty(2 * rows.shape[0])
    ev_t[0::2], ev_t[1::2] = tlo[rows], thi[rows]
    ev_line = np.repeat(line, 2)            # ascending, so also sorted
    order = np.lexsort((ev_t, ev_line))
    ev_t = ev_t[order]
    ev_open = 1 - 2 * (order & 1)
    ev_edge = rows[order >> 1]
    ev_left = left[ev_edge]
    # both events of an edge carry its line, so every running sum below
    # returns to exactly 0 at the end of each line and plain cumsums are
    # per-line sums; where a side's count is 1, the running sum of
    # (row+1)*sign on that side is the active row + 1
    contrib = (ev_edge + 1) * ev_open
    el = np.cumsum(np.where(ev_left, contrib, 0))
    er = np.cumsum(np.where(ev_left, 0, contrib))
    nl = np.cumsum(np.where(ev_left, ev_open, 0))
    nr = np.cumsum(np.where(ev_left, 0, ev_open))
    dt = np.where(ev_line[1:] == ev_line[:-1], ev_t[1:] - ev_t[:-1], 0.0)
    # event t values that should tie differ by float noise ~1e-16, which
    # makes sliver subintervals with transiently wrong coverage counts;
    # they carry no measure and are dropped
    keep = dt > SLIVER
    nl, nr = nl[:-1][keep], nr[:-1][keep]
    eL = np.where(nl == 1, el[:-1][keep] - 1, -1)
    eR = np.where(nr == 1, er[:-1][keep] - 1, -1)
    overlap = (nl > 1) | (nr > 1)
    # row -1 reads the last row; its owner is masked
    lo = np.where(eL >= 0, eid[eL] // 3, -1)
    ro = np.where(eR >= 0, eid[eR] // 3, -1)
    # interval endpoints in absolute coordinates, on the owning edge's own
    # segment (read from verts by its eid, ordered by t): the quantized
    # frame only groups lines, so points must not be rebuilt from it; an
    # interval with no owner on either side gets NaN endpoints
    src = np.where(eL >= 0, eL, eR)
    gap = src < 0
    src = np.maximum(src, 0)
    t0 = tlo[src]
    span = np.maximum(thi[src] - t0, 1e-300)
    s0 = np.clip((ev_t[:-1][keep] - t0) / span, 0.0, 1.0)
    s1 = np.clip((ev_t[1:][keep] - t0) / span, 0.0, 1.0)
    # a vertex goes through the frame and back, not as its own bits:
    # twowell dim's box counts read these points, and exact vertices
    # change them on some meshes (ROADMAP item 10)
    a0, a1 = ((p - center) / diam * diam + center
              for p in _edge_ends(verts, eid[src]))
    swap = ~left[src][:, None]
    p0 = np.where(swap, a1, a0)
    seg = np.where(swap, a0, a1) - p0
    plo = p0 + s0[:, None] * seg
    phi = p0 + s1[:, None] * seg
    plo[gap] = phi[gap] = np.nan
    return (dt[keep] * diam, lo, ro, plo, phi,
            np.take(key, ev_edge[:-1][keep], axis=0), overlap)


def _line_hash(key: np.ndarray) -> np.ndarray:
    """32-bit multiplicative hash of the line keys key (rows of (qnx, qny,
    qc)), uint32: equal keys hash equal, distinct keys may collide.  A
    key's hash depends on that key only, so the keys are hashed SWEEP_CHUNK
    rows at a time and the 64-bit temporaries stay that small."""
    out = np.empty(key.shape[0], dtype=np.uint32)
    m = np.uint64(0x9E3779B97F4A7C15)
    for i in range(0, key.shape[0], SWEEP_CHUNK):
        k = key[i:i + SWEEP_CHUNK].astype(np.int64).view(np.uint64)
        h = ((k[:, 0] * m + k[:, 1]) * m + k[:, 2]) * m
        out[i:i + SWEEP_CHUNK] = h >> np.uint64(32)
    return out


def _buckets(h: np.ndarray, bits: int) -> np.ndarray:
    """Bucket in [0, 2**bits) of each line hash (_line_hash), bits <= 32:
    its top bits.  Equal lines share a bucket; distinct lines may share one
    too, and a line is dirty when its bucket is, so a shared bucket only
    re-sweeps a clean one."""
    return (h >> np.uint32(32 - bits)).astype(np.intp)


def _line_starts(line: np.ndarray) -> np.ndarray:
    """First index of every run of equal line keys."""
    head = np.ones(line.shape[0], dtype=bool)
    a, b = line[1:], line[:-1]
    head[1:] = (a[:, 0] != b[:, 0]) | (a[:, 1] != b[:, 1]) \
        | (a[:, 2] != b[:, 2])
    return np.flatnonzero(head)


class CellFields(NamedTuple):
    """The fields of a state's cells that the engine's checks read.  Cell
    i has the gradient grads[gid[i]] and the phase indicator chi[gid[i]]
    (both per gradient-table row) and the affine offset offs[i].  offs
    None leaves out the full check's terms (continuity, trace and stray);
    with offs, M (the boundary datum) and hull_segments (the domain
    boundary, as boundary_trace_residual takes it) are given too."""
    grads: np.ndarray        # (r,2,2)
    gid: np.ndarray          # (n,)
    chi: np.ndarray          # (r,) float
    offs: Optional[np.ndarray] = None    # (n,2)
    M: Optional[np.ndarray] = None       # (2,2)
    hull_segments: Optional[np.ndarray] = None    # (m,2,2)


# each term column and how LineTotals reduces it over a line's intervals
TERM_REDUCTIONS = {"bv_chi": np.add, "bv_grad": np.add,
                   "continuity": np.maximum, "trace": np.maximum,
                   "stray": np.add}
TERM_COLUMNS = tuple(TERM_REDUCTIONS)
# the term columns a twin pair adds to: a twin is interior, so it has no
# trace or stray term
TWIN_COLUMNS = TERM_COLUMNS[:3]


def _term_names(cells: CellFields) -> tuple:
    return TERM_COLUMNS if cells.offs is not None else TERM_COLUMNS[:2]


def _terms(fields, cells: CellFields, diam: float) -> tuple:
    """The term columns (_term_names) of cells over the intervals fields
    (as _sweep returns them) of a mesh of diameter diam."""
    dt, lo, ro, p_lo, p_hi = fields[:5]
    out = (jump_terms(cells.chi, lo, ro, dt, gid=cells.gid),
           grad_jump_terms(cells.grads, lo, ro, dt, gid=cells.gid))
    if cells.offs is None:
        return out
    return out + (continuity_terms(cells.grads, cells.offs, lo, ro, p_lo,
                                   p_hi, gid=cells.gid),) \
        + trace_terms(cells.grads, cells.offs, cells.M, cells.hull_segments,
                      lo, ro, p_lo, p_hi, dt, diam, gid=cells.gid)


def _line_totals(fields, cells: CellFields, diam: float) -> list:
    """[line key of every line of the intervals fields (as _sweep returns
    them), whether one of the line's intervals is doubly covered, then each
    term column of cells reduced over the line's intervals
    (TERM_REDUCTIONS)]."""
    starts = _line_starts(fields[5])
    return [np.take(fields[5], starts, axis=0),
            np.logical_or.reduceat(fields[6], starts)] + [
        TERM_REDUCTIONS[name].reduceat(terms, starts)
        for name, terms in zip(_term_names(cells),
                               _terms(fields, cells, diam))]


def _sweep_lines(edges, verts: np.ndarray, frame, piece=list):
    """_sweep the edge table edges of verts in frame a piece of whole lines
    at a time, each piece's fields mapped through piece to a list of
    columns as soon as it is swept: the table is stably sorted by line key,
    its lines numbered in that order, and cut at line starts into pieces of
    about SWEEP_CHUNK edges (a small table is one piece, an empty one one
    empty piece).  A line's owners depend on its own edges only, so the
    pieces' intervals joined equal one sweep of the whole table element
    for element; only their temporaries are smaller.  Returns the pieces'
    columns joined."""
    order = np.lexsort(edges[1].T[::-1])
    n = order.shape[0]
    starts = _line_starts(np.take(edges[1], order, axis=0))
    line = np.repeat(np.arange(starts.shape[0]), np.diff(starts, append=n))
    at = np.searchsorted(starts, np.arange(SWEEP_CHUNK, n, SWEEP_CHUNK))
    inner = starts[at[at < starts.shape[0]]]        # ascending, all > 0
    cuts = np.concatenate([[0], inner[np.diff(inner, prepend=0) > 0], [n]])
    return _join([piece(_sweep(edges, order[a:b], line[a:b], verts, frame))
                  for a, b in zip(cuts[:-1], cuts[1:])])


class _Overlap:
    @property
    def overlap_error(self) -> bool:
        return bool(self.overlap.any())


@dataclass
class SweepAccumulator(_Overlap):
    """Subinterval decomposition of all coincident-edge lines.

    For every maximal subinterval on every line, in the order line key,
    then position along the line: dt (length), the owning cell on each
    side (-1 for a side covered by no edge or by more than one, which sets
    overlap), the endpoints in absolute coordinates and the line key
    (line).  An interval with no owner on either side (a gap between two
    edges of one line, or a doubly covered interval) has NaN endpoints; it
    stays in place, so sums over dt keep their bits.  frame is the
    normalizing (center, diam) of the line keys.
    """
    dt: np.ndarray
    left_owner: np.ndarray
    right_owner: np.ndarray
    point_lo: np.ndarray
    point_hi: np.ndarray
    line: np.ndarray
    overlap: np.ndarray
    frame: tuple


@dataclass
class LineTotals(_Overlap):
    """The engine's checks of a state: per line of its sweep of the edges
    with no twin, and per cell of its twins.

    Per line: line (the keys of the lines with an interval, ascending),
    overlap (a doubly covered interval on the line), bv_chi and bv_grad
    (sums of jump_terms of the phase indicator and of grad_jump_terms), and
    with offsets continuity and trace (maxima of continuity_terms and of
    the trace terms of trace_terms) and stray (sums of its stray lengths).
    Per cell: twins, the twin of each of its edges (the flat edge id 3c + j
    of edge j of cell c, as in _edge_ends; -1 for none; (n,3) int32), and
    twin_terms, the TWIN_COLUMNS it asks for, each reduced over the twin
    pairs the cell owns (those whose other edge has the larger id; (n,2)
    or (n,3)).  A row value (value) is the np.sum, max or any of a column,
    combined with that of its twin column.  The next state's sweep_totals
    carries the clean lines through edge_hash (_line_hash of every cell's
    three edges, (n,3) uint32; 0 for a zero-length edge and for a twin)
    and frame (the run's normalizing (center, diam), which every line key
    is taken in), and the twin terms of the kept cells whose twins are
    kept through twins."""
    line: np.ndarray
    overlap: np.ndarray
    bv_chi: np.ndarray
    bv_grad: np.ndarray
    edge_hash: np.ndarray
    twins: np.ndarray
    twin_terms: np.ndarray
    frame: tuple
    continuity: Optional[np.ndarray] = None
    trace: Optional[np.ndarray] = None
    stray: Optional[np.ndarray] = None

    @classmethod
    def empty(cls, frame) -> "LineTotals":
        """No line and no cell, every column, in frame: a run's first
        state's."""
        z = np.empty(0)
        return cls(np.empty((0, 3), np.int32), z.astype(bool), z, z,
                   np.empty((0, 3), np.uint32), np.empty((0, 3), np.int32),
                   np.empty((0, len(TWIN_COLUMNS))), frame, z, z, z)

    def value(self, name: str) -> float:
        """The row value of the term column name: the np.sum (or max) of
        its line column, plus (or the max with) that of its twin column."""
        cols = [getattr(self, name)]
        if name in TWIN_COLUMNS:
            cols.append(self.twin_terms[:, TWIN_COLUMNS.index(name)])
        if TERM_REDUCTIONS[name] is np.add:
            return sum(float(np.sum(c)) for c in cols)
        return max(float(c.max(initial=0.0)) for c in cols)


def carry_twins(twins: np.ndarray, prev_index: np.ndarray, n_kept: int,
                n: int) -> np.ndarray:
    """The twins (LineTotals.twins) of a state of n cells whose first
    n_kept are the cells prev_index[:n_kept] of a state with twins twins:
    a kept edge keeps its twin, at the twin's new id, while the twin's
    cell is kept too, and has none (-1) once it is not; the new cells'
    edges have none until pair_twins pairs them.  The kept cells are
    carried SWEEP_CHUNK at a time, so the temporaries stay that small."""
    kept = prev_index[:n_kept]
    at = np.full(twins.shape[0], -1, dtype=np.int32)
    at[kept] = np.arange(n_kept, dtype=np.int32)
    out = np.full((n, 3), -1, dtype=np.int32)
    for i in range(0, n_kept, SWEEP_CHUNK):
        t = np.take(twins, kept[i:i + SWEEP_CHUNK], axis=0)
        cell = at[t // 3]           # t = -1 reads some cell; masked below
        out[i:i + t.shape[0]] = np.where((t >= 0) & (cell >= 0),
                                         3 * cell + t % 3, -1)
    return out


def pair_twins(twins: np.ndarray, verts: np.ndarray, first: np.ndarray,
               table: np.ndarray) -> None:
    """Pair the twins of the table (rows i, j, k, l: edge j of cell i and
    edge l of cell k, as cell.plan_twins gives them) in each group of cells
    of verts that starts at a cell of first, in place in twins: the two
    edges become twins of each other where they have the same two
    endpoints, exactly, in opposite order; a pair whose endpoints differ is
    left as it was.  About SWEEP_CHUNK pairs at a time, so the temporaries
    stay that small."""
    flat = twins.reshape(-1)
    step = max(SWEEP_CHUNK // max(table.shape[0], 1), 1)
    for s in range(0, first.shape[0], step):
        at = 3 * first[s:s + step, None]
        e = (at + 3 * table[:, 0] + table[:, 1]).reshape(-1)
        f = (at + 3 * table[:, 2] + table[:, 3]).reshape(-1)
        e0, e1 = _edge_ends(verts, e)
        f0, f1 = _edge_ends(verts, f)
        same = ((e0[:, 0] == f1[:, 0]) & (e0[:, 1] == f1[:, 1])
                & (e1[:, 0] == f0[:, 0]) & (e1[:, 1] == f0[:, 1]))
        e, f = e[same], f[same]
        flat[e], flat[f] = f, e


def _twin_terms(verts: np.ndarray, twins: np.ndarray, cells: CellFields,
                diam: float, rows: np.ndarray) -> np.ndarray:
    """The twin terms (LineTotals.twin_terms) of the cells rows of verts,
    SWEEP_CHUNK cells at a time.  A twin pair is the one interval its two
    edges make, so its terms are those of the sweep's intervals, with the
    two cells as owners, the two shared vertices as endpoints and the edge
    length as dt; a twin shorter than SLIVER diam adds nothing, as the
    sweep drops such an interval."""
    names = _term_names(cells)[:3]
    out = np.empty((rows.shape[0], len(names)))
    for i in range(0, rows.shape[0], SWEEP_CHUNK):
        r = rows[i:i + SWEEP_CHUNK]
        e = 3 * r[:, None] + np.arange(3)
        f = np.take(twins, r, axis=0)
        own = np.flatnonzero(f > e)
        e, f = e.reshape(-1)[own], f.reshape(-1)[own]
        p0, p1 = _edge_ends(verts, e)
        dt = _lengths(p1 - p0)
        dt[dt <= SLIVER * diam] = 0.0
        a, b = e // 3, f // 3
        terms = [jump_terms(cells.chi, a, b, dt, gid=cells.gid),
                 grad_jump_terms(cells.grads, a, b, dt, gid=cells.gid)]
        if len(names) == 3:
            terms.append(np.where(dt > 0, continuity_terms(
                cells.grads, cells.offs, a, b, p0, p1, gid=cells.gid), 0.0))
        for c, (name, t) in enumerate(zip(names, terms)):
            slots = np.zeros((r.shape[0], 3))
            slots.reshape(-1)[own] = t
            op = TERM_REDUCTIONS[name]
            out[i:i + r.shape[0], c] = op(op(slots[:, 0], slots[:, 1]),
                                          slots[:, 2])
    return out


def _dirty_lines(verts: np.ndarray, old: LineTotals, prev_index: np.ndarray,
                 n_kept: int, twins: np.ndarray):
    """What a refinement step changed, for sweep_totals: (edge_hash of
    verts, the edge table in old's frame of every edge on a dirty line, the
    clean lines of old as a mask over old.line, and the kept edges whose
    twin was not kept, as a mask over the flat ids of the kept cells).

    Only the edges with no twin (in twins) are on lines.  A kept edge's
    hash is carried, not computed again; only the keys of the edges that
    enter the lines are hashed, a chunk at a time: the new cells' edges
    with no twin, and the kept edges whose twin was not kept.  A twin's
    hash stays 0 until then.  The chunks of the re-swept kept edges and of
    the entering ones are joined once."""
    n = verts.shape[0]
    kept = prev_index[:n_kept]
    edge_hash = np.zeros((n, 3), dtype=np.uint32)
    edge_hash[:n_kept] = np.take(old.edge_hash, kept, axis=0)
    flat = edge_hash.reshape(-1)
    lone = twins.reshape(-1) < 0
    gone = lone[:3 * n_kept] & (
        np.take(old.twins, kept, axis=0).reshape(-1) >= 0)
    bits = min((3 * n).bit_length() + 2, 32)     # 4 to 8 buckets per edge
    dirty = np.zeros(1 << bits, dtype=bool)
    enter = _edge_chunks(verts, old.frame, np.concatenate([
        np.flatnonzero(gone), 3 * n_kept + np.flatnonzero(lone[3 * n_kept:])]))
    for part in enter:
        new_hash = _line_hash(part[1])
        flat[part[0]] = new_hash
        dirty[_buckets(new_hash, bits)] = True
    # a parent edge and its children's edges need not share a key, so the
    # lines of both are dirty; a covered twin was on no line
    covered = np.ones(old.edge_hash.shape[0], dtype=bool)
    covered[kept] = False
    on_line = np.compress(covered, old.twins, axis=0).reshape(-1) < 0
    dirty[_buckets(np.compress(covered, old.edge_hash, axis=0).reshape(-1)[
        on_line], bits)] = True
    # kept edges on dirty lines; a zero-length one (hash 0) is dropped by
    # the edge table
    redo = np.flatnonzero(dirty[_buckets(flat[:3 * n_kept], bits)]
                          & lone[:3 * n_kept] & ~gone)
    edges = _join(_edge_chunks(verts, old.frame, redo) + enter)
    return (edge_hash, edges, ~dirty[_buckets(_line_hash(old.line), bits)],
            gone)


def _merge_lines(old: LineTotals, clean: np.ndarray, names: tuple,
                 fresh: list) -> list:
    """The columns names of the clean lines of old and of fresh (columns
    in that order, line keys first), interleaved by line key.  The two
    hold disjoint keys, so one sort of the keys orders them; a column is
    joined and gathered one at a time."""
    def joined(i):
        return np.concatenate([np.compress(clean, getattr(old, names[i]),
                                           axis=0), fresh[i]])
    order = np.lexsort(joined(0).T[::-1])
    return [np.take(joined(i), order, axis=0) for i in range(len(names))]


def sweep_intervals(verts: np.ndarray, frame=None) -> SweepAccumulator:
    """Decompose all edges into subintervals with per-side owners, the
    line keys taken in frame (the bounding box of verts by default)."""
    frame = _frame(verts) if frame is None else frame
    edges = _join(_edge_chunks(verts, frame, np.arange(3 * verts.shape[0])))
    return SweepAccumulator(*_sweep_lines(edges, verts, frame), frame=frame)


def sweep_totals(verts: np.ndarray, prev, cells: CellFields,
                 twins: Optional[np.ndarray] = None) -> LineTotals:
    """The LineTotals of the fields cells over verts, whose edges pair up
    as twins (LineTotals.twins; None: no edge has a twin).

    prev = (totals, prev_index, n_kept) carries the totals of the previous
    state when verts are its cells prev_index[:n_kept], kept bit for bit,
    followed by new cells in their union (a refinement step: the state's
    prev_index); prev None, a run's first state, carries LineTotals.empty
    in the frame of verts.  The line keys are taken in the carried frame.

    The lines hold the edges with no twin.  Only the dirty lines, which
    carry an edge of a new cell, of a previous cell not kept or of a kept
    cell whose twin was not kept, are swept again, each piece reduced per
    line as soon as it is swept; a clean line keeps its edges and so its
    totals, and one sort by key interleaves the two sets.  A line's owners
    and overlap depend on its own edges only (see _sweep), so the result
    equals the per-line reduction of the sweep in the carried frame of the
    edges with no twin, element for element.  The twin terms are carried
    for the kept cells whose twins are all kept, and evaluated for the
    others and the new cells (_twin_terms).  Carried totals that lack a
    column cells asks for raise InvalidParameterError.
    """
    names = ("line", "overlap") + _term_names(cells)
    old, prev_index, n_kept = (prev if prev is not None else (
        LineTotals.empty(_frame(verts)), np.empty(0, dtype=np.intp), 0))
    if any(getattr(old, name) is None for name in names):
        raise InvalidParameterError("the carried line totals lack a column "
                                    "the cells ask for")
    n, k = verts.shape[0], len(_term_names(cells)[:3])
    if twins is None:
        twins = np.full((n, 3), -1, dtype=np.int32)
    diam = old.frame[1]
    edge_hash, edges, clean, gone = _dirty_lines(verts, old, prev_index,
                                                 n_kept, twins)
    cols = _sweep_lines(edges, verts, old.frame,
                        lambda f: _line_totals(f, cells, diam))
    del edges
    cols = _merge_lines(old, clean, names, cols)
    twin_terms = np.empty((n, k))
    twin_terms[:n_kept] = np.take(old.twin_terms[:, :k], prev_index[:n_kept],
                                  axis=0)
    lost = gone.reshape(-1, 3)
    redo = np.concatenate([np.flatnonzero(lost[:, 0] | lost[:, 1]
                                          | lost[:, 2]), np.arange(n_kept, n)])
    twin_terms[redo] = _twin_terms(verts, twins, cells, diam, redo)
    return LineTotals(**dict(zip(names, cols)), edge_hash=edge_hash,
                      twins=twins, twin_terms=twin_terms, frame=old.frame)


# ---------------------------------------------------------------------------
# certification terms: one entry per interval, and their reductions
# ---------------------------------------------------------------------------

def _rows(owner: np.ndarray, gid: Optional[np.ndarray]) -> np.ndarray:
    """Where a per-row field is read for each owner: the owner itself, or
    its gid.  Owner -1 reads some row; callers mask it out."""
    return owner if gid is None else gid[owner]


def jump_terms(values: np.ndarray, lo: np.ndarray, ro: np.ndarray,
               dt: np.ndarray, include_boundary: bool = False,
               gid: Optional[np.ndarray] = None) -> np.ndarray:
    """|jump| * dt per interval of a piecewise-constant scalar field:
    values[lo] against values[ro] (through gid when given), 0 on a side
    with no cell.  Without include_boundary an interval with a side
    outside the mesh gets 0."""
    vl = np.where(lo >= 0, values[_rows(lo, gid)], 0.0)
    vr = np.where(ro >= 0, values[_rows(ro, gid)], 0.0)
    jump = np.abs(vl - vr)
    if include_boundary:
        return jump * dt
    return np.where((lo >= 0) & (ro >= 0), jump, 0.0) * dt


def grad_jump_terms(grads: np.ndarray, lo: np.ndarray, ro: np.ndarray,
                    dt: np.ndarray,
                    gid: Optional[np.ndarray] = None) -> np.ndarray:
    """Frobenius norm of the gradient jump * dt per interior interval
    (gradients grads[lo], grads[ro], through gid when given), 0 on the
    others."""
    both = (lo >= 0) & (ro >= 0)
    d = (np.take(grads, _rows(lo, gid), axis=0)
         - np.take(grads, _rows(ro, gid), axis=0))
    sq = (d * d).reshape(-1, 4)
    jump = np.sqrt(((sq[:, 0] + sq[:, 1]) + sq[:, 2]) + sq[:, 3])
    return np.where(both, jump, 0.0) * dt


def _affine_gap(dg: np.ndarray, do: np.ndarray, p_lo: np.ndarray,
                p_hi: np.ndarray) -> np.ndarray:
    """Per row, the largest component of |dg p + do| (dg (n,2,2), do (n,2))
    over both endpoints p of p_lo and p_hi: the gap of an affine
    difference over an interval."""
    def at(p):
        a = np.abs(np.einsum("nij,nj->ni", dg, p) + do)
        return np.maximum(a[:, 0], a[:, 1])
    return np.maximum(at(p_lo), at(p_hi))


def continuity_terms(grads: np.ndarray, offs: np.ndarray, lo: np.ndarray,
                     ro: np.ndarray, p_lo: np.ndarray, p_hi: np.ndarray,
                     gid: Optional[np.ndarray] = None) -> np.ndarray:
    """Affine-value mismatch per interior interval: the largest component
    of |(G_l - G_r) p + (o_l - o_r)| over both endpoints p (an affine
    difference attains its maximum there), with G = grads (through gid
    when given) and o = offs of the two owners; 0 on the others."""
    both = (lo >= 0) & (ro >= 0)
    out = np.zeros(lo.shape[0])
    lo, ro = lo[both], ro[both]
    dg = (np.take(grads, _rows(lo, gid), axis=0)
          - np.take(grads, _rows(ro, gid), axis=0))
    do = np.take(offs, lo, axis=0) - np.take(offs, ro, axis=0)
    out[both] = _affine_gap(dg, do, np.compress(both, p_lo, axis=0),
                            np.compress(both, p_hi, axis=0))
    return out


def trace_terms(grads: np.ndarray, offs: np.ndarray, M: np.ndarray,
                hull_segments: np.ndarray, lo: np.ndarray, ro: np.ndarray,
                p_lo: np.ndarray, p_hi: np.ndarray, dt: np.ndarray,
                diam: float, gid: Optional[np.ndarray] = None):
    """(trace, stray) per interval of a mesh of diameter diam.  An outer
    interval (one side owned) on the domain boundary gets the trace term,
    the largest component of |u - Mx| over both endpoints, with u the
    affine map of the owner (gradient grads, through gid when given, and
    offset offs); one on no boundary segment gets its length dt as stray.
    Every other entry is 0.

    The outer intervals are matched geometrically against the boundary
    segments hull_segments (m,2,2): an interval matches a segment when
    both its endpoints lie on the segment's line and project into the
    segment, within 1e-8 diam, so an interior interval collinear with a
    side of a non-convex domain does not match it.  Intervals that match
    none are partition gaps, or quantization splits of interior lines.
    """
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
        """(k,m): p[i] on the line of segment j and projecting into it."""
        t = p @ tang.T - ts[None, :]
        return ((np.abs(p @ nrm.T - cs[None, :]) <= tol) & (t >= -tol)
                & (t <= length[None, :] + tol))

    on = np.any(within(p_lo) & within(p_hi), axis=1)
    stray[at[~on]] = dt[at[~on]]
    dg = np.take(grads, _rows(own[on], gid), axis=0) - M[None]
    do = np.take(offs, own[on], axis=0)
    trace[at[on]] = _affine_gap(dg, do, np.compress(on, p_lo, axis=0),
                                np.compress(on, p_hi, axis=0))
    return trace, stray


def _line_sum(terms: np.ndarray, sw: SweepAccumulator) -> float:
    """A per-interval column of sw summed per line, then over the lines in
    key order: the reduction of LineTotals and its row values."""
    return float(np.sum(np.add.reduceat(terms, _line_starts(sw.line))))


def bv_seminorm_cells(verts: np.ndarray, values: np.ndarray,
                      include_boundary: bool = False,
                      sweep: Optional[SweepAccumulator] = None) -> float:
    """Exact BV seminorm of a piecewise-constant scalar field.

    Sum over interior edge subintervals of |jump| * length; with
    include_boundary the field is extended by zero outside the mesh.
    """
    sw = sweep if sweep is not None else sweep_intervals(verts)
    return _line_sum(jump_terms(values, sw.left_owner, sw.right_owner, sw.dt,
                                include_boundary), sw)


def bv_seminorm(state, sweep: Optional[SweepAccumulator] = None) -> float:
    """BV seminorm of a state's gradient field: the Frobenius norm of the
    gradient jump summed over interior subintervals."""
    sw = sweep if sweep is not None else sweep_intervals(state.verts)
    return _line_sum(grad_jump_terms(state.table.grads, sw.left_owner,
                                     sw.right_owner, sw.dt, gid=state.gid),
                     sw)


def continuity_residual(verts: np.ndarray, grads: np.ndarray,
                        offs: np.ndarray,
                        sweep: Optional[SweepAccumulator] = None) -> float:
    """Sup of the affine-value mismatch across interior subintervals.

    The induced map is continuous iff this vanishes; evaluated at both
    endpoints of every shared subinterval (continuity_terms).
    """
    sw = sweep if sweep is not None else sweep_intervals(verts)
    return float(continuity_terms(grads, offs, sw.left_owner, sw.right_owner,
                                  sw.point_lo, sw.point_hi).max(initial=0.0))


def boundary_trace_residual(verts: np.ndarray, grads: np.ndarray,
                            offs: np.ndarray, M: np.ndarray,
                            hull_segments: np.ndarray,
                            sweep: Optional[SweepAccumulator] = None,
                            gid: Optional[np.ndarray] = None):
    """(residual, stray_length): sup of |u - Mx| over the outer edge
    subintervals that lie on the domain boundary hull_segments, with u the
    affine map of the owning cell: gradient grads (through gid when given),
    offset offs; and the total length of the outer subintervals on no
    boundary segment, which are excluded from the trace (trace_terms).
    """
    sw = sweep if sweep is not None else sweep_intervals(verts)
    trace, stray = trace_terms(grads, offs, M, hull_segments, sw.left_owner,
                               sw.right_owner, sw.point_lo, sw.point_hi,
                               sw.dt, sw.frame[1], gid=gid)
    return float(trace.max(initial=0.0)), _line_sum(stray, sw)


def interface_segments(verts: np.ndarray, phases: np.ndarray,
                       sweep: Optional[SweepAccumulator] = None):
    """Endpoints of the phase boundary: (m,2,2) array of segments."""
    sw = sweep if sweep is not None else sweep_intervals(verts)
    both = (sw.left_owner >= 0) & (sw.right_owner >= 0)
    jump = both & (phases[np.maximum(sw.left_owner, 0)]
                   != phases[np.maximum(sw.right_owner, 0)])
    return np.stack([np.compress(jump, sw.point_lo, axis=0),
                     np.compress(jump, sw.point_hi, axis=0)], axis=1)


# ---------------------------------------------------------------------------
# interpolation, rates, threshold
# ---------------------------------------------------------------------------

def wsp_interpolated_norm(sup_norm: float, l1_norm: float, bv_norm: float,
                          s: float, p: float) -> float:
    """The interpolation upper bound for the W^{s,p} norm of a field.

    ||u||_inf^{1-1/p} * (||u||_1^{1-sp} * |u|_BV^{sp})^{1/p}, valid for
    s > 0, p in (1, inf), sp < 1, with the field extended by zero.
    """
    if not (s > 0 and p > 1 and np.isfinite(p)):
        raise InvalidParameterError("need s > 0 and finite p > 1")
    if s * p >= 1:
        raise InvalidParameterError(f"sp = {s * p} out of range (needs < 1)")
    if min(sup_norm, l1_norm, bv_norm) < 0:
        raise InvalidParameterError("norms must be nonnegative")
    return float(sup_norm ** (1.0 - 1.0 / p)
                 * (l1_norm ** (1.0 - s * p) * bv_norm ** (s * p))
                 ** (1.0 / p))


def solve_theta0(c_tilde: float, growth: float) -> float:
    """Exponent balancing L1 decay at rate c_tilde against BV growth."""
    if not (0.0 < c_tilde < 1.0):
        raise InvalidParameterError(f"c_tilde = {c_tilde} not in (0,1)")
    if not (growth > 1.0):
        raise InvalidParameterError(f"growth = {growth} not > 1")
    ll = np.log(1.0 / c_tilde)
    return float(ll / (np.log(growth) + ll))


@dataclass
class GeometricFit:
    rate: float
    r_squared: float
    window: Tuple[int, int]
    skipped: int              # nonpositive entries dropped from the window


def fit_geometric(series: Sequence[float],
                  window: Optional[Tuple[int, int]] = None) -> GeometricFit:
    """Least squares on log values; rate = exp(slope).

    window = (lo, hi) selects indices lo..hi inclusive; nonpositive
    entries are skipped and counted.  Needs at least 3 usable points.
    """
    y = np.asarray(series, dtype=float)
    idx = np.arange(len(y))
    if window is not None:
        lo, hi = window
        mask = (idx >= lo) & (idx <= hi)
    else:
        mask = np.ones(len(y), dtype=bool)
    usable = mask & (y > 0) & np.isfinite(y)
    skipped = int(mask.sum() - usable.sum())
    if usable.sum() < 3:
        raise InvalidParameterError("fit window has fewer than 3 usable "
                                    "points")
    x = idx[usable].astype(float)
    ly = np.log(y[usable])
    slope, intercept = np.polyfit(x, ly, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    w = (int(x[0]), int(x[-1]))
    return GeometricFit(float(np.exp(slope)), r2, w, skipped)


# ---------------------------------------------------------------------------
# metrics over a run
# ---------------------------------------------------------------------------

@dataclass
class MetricsSeries:
    """Per-step metric rows; columns() gives plain arrays for fitting."""
    rows: List[dict] = field(default_factory=list)
    stage_hists: List[np.ndarray] = field(default_factory=list)
    meta: dict = field(default_factory=dict)    # how the rows were made

    def append(self, row: dict, stage_hist: np.ndarray):
        self.rows.append(row)
        self.stage_hists.append(np.asarray(stage_hist, dtype=float))
        fm = self.column("frozen_measure")
        if len(fm) > 1 and fm[-1] < fm[-2] - 1e-12:
            raise InvalidParameterError("frozen measure decreased")

    def column(self, name: str) -> np.ndarray:
        return np.array([r.get(name, np.nan) for r in self.rows])

    def diffs(self, name: str) -> np.ndarray:
        """Step-difference column: entry k belongs to the step k -> k+1."""
        return self.column(name)[1:]

    def wsp_series(self, s: float, p: float) -> np.ndarray:
        """Interpolated W^{s,p} bounds of the per-step displacement diffs."""
        sup = self.column("wsup_max")[1:]
        l1 = self.column("w_l1_bound")[1:]
        bv = self.column("l1_grad_diff")[1:]
        out = np.zeros(len(sup))
        for i, (a, b, c) in enumerate(zip(sup, l1, bv)):
            out[i] = (wsp_interpolated_norm(a, b, c, s, p)
                      if min(a, b, c) > 0 else 0.0)
        return out


@dataclass
class RegularityReport:
    c_tilde: float
    rho_bv: float
    theta0_measured: float
    theta0_constants: float
    alpha: float              # fitted decay exponent of the W^{s,p} series
    s: float
    p: float
    r2_l1: float
    r2_wsp: float
    window: Tuple[int, int]
    frozen_fraction_max: float
    wsp_rate: float
    window_compliant: bool    # transient dropped and frozen under the cap

    def ok(self) -> bool:
        return (0.0 < self.theta0_measured < 1.0
                and self.wsp_rate < 1.0
                and self.window_compliant)


FROZEN_WINDOW_CAP = 0.01   # fits exclude steps frozen beyond this fraction
TRANSIENT_STEPS = 2        # and the low-stage transient k <= 2
SOBOLEV_P = 2.0            # the p of the W^{s,p} interpolation


def regularity_report(metrics: MetricsSeries,
                      growth_constant: float) -> RegularityReport:
    """Threshold and interpolation-decay report from run metrics.

    Window rule over the step-difference series (index i is the
    transition into state i+1): the transient into states k <= 2 is
    dropped and so is every step whose frozen measure exceeds
    FROZEN_WINDOW_CAP * |domain|.  When fewer than three transitions
    survive, the fit falls back to the longest tail that supports one so
    the rates are still reported; window_compliant records the violation
    and ok() fails on it.  The W^{s,p} series is taken at p = SOBOLEV_P.
    """
    l1 = metrics.diffs("l1_chi_diff")
    bv = metrics.column("bv_chi")[1:]
    total_area = metrics.rows[0].get("domain_area", np.nan)
    frozen = metrics.column("frozen_measure")[1:]
    n = len(l1)
    under_cap = frozen <= FROZEN_WINDOW_CAP * total_area
    hi = TRANSIENT_STEPS - 1
    while hi + 1 < n and under_cap[hi + 1]:
        hi += 1
    lo = TRANSIENT_STEPS
    if hi - lo < 2:                     # no compliant window exists
        lo, hi = min(TRANSIENT_STEPS, max(n - 3, 0)), n - 1
    window = (lo, hi)
    fit_l1 = fit_geometric(l1, window)
    fit_bv = fit_geometric(bv, window)
    c_tilde = fit_l1.rate
    rho = fit_bv.rate
    theta0 = solve_theta0(c_tilde, rho) if (0 < c_tilde < 1 and rho > 1) \
        else float("nan")
    theta0_const = solve_theta0(c_tilde, growth_constant) \
        if 0 < c_tilde < 1 else float("nan")
    if np.isfinite(theta0):
        s = theta0 / (2.0 * SOBOLEV_P)
        fit_w = fit_geometric(metrics.wsp_series(s, SOBOLEV_P), window)
        alpha = float(-np.log2(fit_w.rate))
        r2_w, rate_w = fit_w.r_squared, fit_w.rate
    else:
        s = alpha = r2_w = rate_w = float("nan")
    fmax = float(frozen[lo:hi + 1].max() / total_area)
    compliant = lo >= TRANSIENT_STEPS and fmax <= FROZEN_WINDOW_CAP
    return RegularityReport(c_tilde, rho, theta0, theta0_const,
                            alpha, s, SOBOLEV_P, fit_l1.r_squared, r2_w,
                            window, fmax, rate_w, compliant)


# ---------------------------------------------------------------------------
# box-counting dimension
# ---------------------------------------------------------------------------

def _distinct_boxes(boxes: np.ndarray):
    """(bx, by, span) of the distinct rows of int64 boxes (k,2): packed
    from the least box, so that a box an ulp below lo (at -1) packs too,
    and unpacked again; span is the extent of the boxes per axis."""
    least = boxes.min(axis=0)
    boxes = boxes - least
    span = boxes.max(axis=0) + 1
    if int(span[0]) * int(span[1]) >= 2 ** 63:
        raise InvalidParameterError("grid too fine for the extent of "
                                    "the segments")
    packed = np.unique(boxes[:, 0] * span[1] + boxes[:, 1])
    return packed // span[1] + least[0], packed % span[1] + least[1], span


def _boxes(a, b, npts, lo, eps_min) -> np.ndarray:
    """The distinct finest boxes (k,2) int64 of the point samples of the
    segments a -> b, npts[i] points on segment i."""
    # every segment's np.linspace(0, 1, k) at once, with linspace's own
    # operations: j * (1 / (k - 1)), last point set to exactly 1
    seg = np.repeat(np.arange(len(npts)), npts)
    f = covering.runs(np.zeros(len(npts)), npts) * (1.0 / (npts - 1))[seg]
    f[np.cumsum(npts) - 1] = 1.0
    pts = np.take(b - a, seg, axis=0)
    pts *= f[:, None]
    pts += np.take(a, seg, axis=0)
    pts -= lo
    del seg, f              # per-point arrays the box count does not need
    pts /= eps_min
    boxes = np.floor(pts, out=pts).astype(np.int64)
    del pts
    return np.stack(_distinct_boxes(boxes)[:2], axis=1)


def box_dimension(segments: np.ndarray,
                  eps_list: Optional[Sequence[float]] = None,
                  d_report: float = 1.0):
    """Box-counting estimate over a dyadic grid family.

    segments: (m,2,2) interface segments; eps_list: exact powers of two.
    One point sample at spacing eps_min/3 is reused for every eps, and the
    grids are nested dyadic refinements of a common origin, which makes
    N_eps monotone by construction.  The boxes are taken once, on the
    finest grid, and the box of a point at e = eps_min 2^k is its finest
    box shifted right by k bits: floor(floor(x)/2^k) = floor(x/2^k), and
    dividing by 2^k is exact, so N_eps equals the count of floor(pts / e)
    on every grid whenever no pts / e is subnormal.  The points are
    sampled and boxed in runs of whole segments of about BOX_POINTS
    points, and the runs' distinct boxes merged, so the point arrays stay
    that small.  Returns (estimate, table) where table rows are (eps,
    N_eps, m_d = N_eps * eps^d_report).
    """
    segments = np.asarray(segments, dtype=float)
    if segments.size == 0:
        raise UndefinedDimensionError("empty interface")
    if eps_list is None:
        eps_list = [2.0 ** -j for j in range(4, 11)]
    eps_list = sorted(float(e) for e in eps_list)
    if len(set(eps_list)) < 2:
        raise InvalidParameterError("the fit needs at least two distinct "
                                    f"eps values, got {eps_list}")
    if any(np.frexp(e)[0] != 0.5 for e in eps_list):
        raise InvalidParameterError("eps values must be dyadic")
    lo = segments.reshape(-1, 2).min(axis=0)
    eps_min = eps_list[0]
    a = segments[:, 0]
    b = segments[:, 1]
    lens = np.linalg.norm(b - a, axis=1)
    npts = np.maximum(2, np.ceil(lens / (eps_min / 3.0)).astype(np.int64) + 1)
    # the boxes of a run of segments with about BOX_POINTS points at a
    # time: a segment's points depend on it alone, and the union of the
    # runs' distinct boxes is the set of distinct boxes of all points
    ends = np.cumsum(npts)
    cuts = np.searchsorted(ends, np.arange(BOX_POINTS, ends[-1], BOX_POINTS))
    cuts = np.concatenate([[0], cuts, [len(npts)]])
    cuts = cuts[np.diff(cuts, prepend=-1) > 0]
    bx, by, span = _distinct_boxes(np.concatenate(
        [_boxes(a[i:j], b[i:j], npts[i:j], lo, eps_min)
         for i, j in zip(cuts[:-1], cuts[1:])]))
    table = []
    for e in eps_list:
        k = int(np.frexp(e)[1] - np.frexp(eps_min)[1])
        cx, cy = bx >> k, by >> k
        count = np.unique((cx - cx.min()) * span[1] + (cy - cy.min())
                          ).shape[0]
        table.append((e, count, count * e ** d_report))
    ns = np.array([row[1] for row in table], dtype=float)
    js = np.log2(1.0 / np.array([row[0] for row in table]))
    slope = np.polyfit(js, np.log2(ns), 1)[0]
    return float(slope), table
