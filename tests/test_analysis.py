"""Certification machinery: exact BV/L1 sweeps, fits, dimension counting."""

import hashlib
import math

import numpy as np
import pytest

import twowell.cell as cl
from twowell import analysis as an
from twowell import covering as cov
from twowell import engine as en
from twowell import inapprox as ia
from twowell.errors import (InvalidParameterError, UndefinedDimensionError)

from oracles import line_totals
from raster_oracle import raster_bv, raster_l1, rasterize_cells

DELTA = 0.5


def square_mesh():
    """Unit square as two triangles split along the main diagonal."""
    return np.array([
        [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]],
        [[0.0, 0.0], [1.0, 1.0], [0.0, 1.0]],
    ])


def stripe_mesh(n: int):
    """n vertical stripes, two triangles each, alternating 1/0 values."""
    verts, vals = [], []
    for i in range(n):
        x0, x1 = i / n, (i + 1) / n
        verts.append([[x0, 0.0], [x1, 0.0], [x1, 1.0]])
        verts.append([[x0, 0.0], [x1, 1.0], [x0, 1.0]])
        vals += [float(i % 2)] * 2
    return np.array(verts), np.array(vals)


def box_counts_reference(segs, eps_list):
    """Box counts of the eps_min/3 point samples, one linspace per
    segment and row-wise np.unique."""
    lo = segs.reshape(-1, 2).min(axis=0)
    pts = []
    for a, b in segs:
        k = max(2, int(np.ceil(np.linalg.norm(b - a) / (min(eps_list) / 3)))
                + 1)
        pts.append(np.linspace(0.0, 1.0, k)[:, None] * (b - a) + a)
    pts = np.concatenate(pts)
    return [np.unique(np.floor((pts - lo) / e).astype(np.int64),
                      axis=0).shape[0] for e in eps_list]


@pytest.fixture(scope="module")
def cover_mesh():
    """A genuine multiscale mesh: generic cover of a skewed triangle."""
    h0 = cl.calibrate_h0(DELTA, fracs=(0.25, 0.5, 0.75))
    M = ia.stage_representative(2, DELTA)
    plan = cl.replace_dyadic_stage(M, DELTA, h0)
    T = np.array([[0.0, 0.0], [0.9, 0.15], [0.25, 0.8]])
    return cov.cover_generic(T, plan)


class TestBVSeminorm:
    def test_square_indicator(self):
        verts = square_mesh()
        vals = np.array([1.0, 0.0])
        assert an.bv_seminorm_cells(verts, vals) == pytest.approx(np.sqrt(2))
        # zero extension adds the two outer sides of the value-1 triangle
        with_b = an.bv_seminorm_cells(verts, vals, include_boundary=True)
        assert with_b == pytest.approx(np.sqrt(2) + 2.0)

    def test_constant_field(self):
        verts = square_mesh()
        assert an.bv_seminorm_cells(verts, np.ones(2)) == 0.0
        boundary = an.bv_seminorm_cells(verts, np.full(2, 3.0),
                                        include_boundary=True)
        assert boundary == pytest.approx(12.0)   # 3 * perimeter

    def test_stripe_count(self):
        for n in (2, 5, 9):
            verts, vals = stripe_mesh(n)
            assert an.bv_seminorm_cells(verts, vals) == pytest.approx(
                n - 1, rel=1e-12)

    def test_partial_edge_overlap(self):
        # left half square against a right half split by a skew diagonal:
        # jumps are 2 on the shared vertical edge, 1 on the diagonal
        verts = np.array([
            [[0.0, 0.0], [0.5, 0.0], [0.5, 1.0]],
            [[0.0, 0.0], [0.5, 1.0], [0.0, 1.0]],
            [[0.5, 0.0], [1.0, 0.0], [1.0, 1.0]],
            [[0.5, 0.0], [1.0, 1.0], [0.5, 1.0]],
        ])
        vals = np.array([0.0, 0.0, 1.0, 2.0])
        want = 2.0 * 1.0 + 1.0 * math.sqrt(1.25)
        assert an.bv_seminorm_cells(verts, vals) == pytest.approx(
            want, rel=1e-12)

    def test_rigid_motion_and_scale_invariance(self, cover_mesh):
        verts = cover_mesh.verts
        vals = cover_mesh.phases.astype(float)
        base = an.bv_seminorm_cells(verts, vals)
        assert base > 0
        c, s = np.cos(0.3), np.sin(0.3)
        R = np.array([[c, -s], [s, c]])
        rotated = an.bv_seminorm_cells(verts @ R.T, vals)
        assert rotated == pytest.approx(base, rel=1e-10)
        scaled = an.bv_seminorm_cells(verts * 1e6 - 3e5, vals)
        assert scaled == pytest.approx(base * 1e6, rel=1e-10)

    def test_lines_apart_only_in_normal_x(self):
        # two edges from the bbox center, near-horizontal and 2e-6 rad
        # apart, each with its cell on the left: their line keys differ
        # only in the normal's x component, and they must stay two lines
        # (merged, the two cells would claim the same side of one line)
        p1 = np.array([np.cos(1e-6), np.sin(1e-6)])
        p2 = np.array([np.cos(3e-6), np.sin(3e-6)])
        o = np.zeros(2)
        verts = np.array([
            [o, p1, p2],                              # sliver wedge
            [o, p2, [-1.0, 1.0]],
            [[-1.0, -1.0], [1.0, -1.0], [1.0, -0.5]],
        ])
        sweep = an.sweep_intervals(verts)
        assert not sweep.overlap_error
        # the only shared subinterval is the wedge's edge o-p2
        both = (sweep.left_owner >= 0) & (sweep.right_owner >= 0)
        assert sweep.dt[both].sum() == pytest.approx(1.0, rel=1e-12)
        pairs = {tuple(sorted(pr)) for pr in zip(sweep.left_owner[both],
                                                 sweep.right_owner[both])}
        assert pairs == {(0, 1)}
        # o-p1 is a boundary edge of the wedge alone
        edges = np.linalg.norm(verts - np.roll(verts, 1, axis=1), axis=2)
        assert sweep.dt.sum() == pytest.approx(edges.sum() - 1.0, rel=1e-12)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 11: rounding "
                       "the line key splits one line into two")
    def test_line_split_by_rounding(self):
        # A's short edge lies on B's long edge, and the vertex they share
        # differs in its last bits; the two small triangles pin the frame
        # to the unit square.  Today the two edges get the line keys
        # (..., 153470214) and (..., 153470215), and their shared interval
        # is swept as two one-sided ones
        verts = np.array([
            [[0.66290752783456, 0.20040336024483002],
             [0.6592560875606542, 0.20028925273627046],
             [0.6629110936942025, 0.20028925273627046]],
            [[0.66290752783456, 0.20040336024482996],
             [0.6630216353431195, 0.19675191997092428],
             [0.6630216353431194, 0.20040692610447247]],
            [[0.0, 0.0], [0.01, 0.0], [0.0, 0.01]],
            [[1.0, 1.0], [0.99, 1.0], [1.0, 0.99]],
        ])
        sweep = an.sweep_intervals(verts)
        lo, ro = sweep.left_owner, sweep.right_owner
        assert (((lo == 0) & (ro == 1)) | ((lo == 1) & (ro == 0))).sum() == 1

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 18: collinear "
                       "edges take their shared vertex's t from their own "
                       "normals")
    def test_collinear_edges_meet_without_overlap(self):
        # four cells of a state of the unit square rotated by 0.3 rad; on
        # one line, two collinear edges meet at a vertex whose t values,
        # taken along each edge's own normal, differ by 1.06e-12 (above the
        # 1e-12 sliver cut), so one side reads covered twice over 1.3e-12.
        # The two small triangles pin the frame to the rotated square's
        # bounding box
        lo = np.array([-0.29552020666133955, 0.0])
        hi = np.array([0.955336489125606, 1.2508566957869456])
        ex, ey = np.array([1e-3, 0.0]), np.array([0.0, 1e-3])
        verts = np.array([
            [[-0.1779361837573271, 0.9898060696695858],
             [-0.17803334759471204, 0.9898060826270516],
             [-0.17798476567601956, 0.9897574942296262]],
            [[-0.1779361837573271, 0.9898060696695858],
             [-0.17798476567601956, 0.9897574942296262],
             [-0.17642333581232822, 0.9898062889128666]],
            [[-0.17803334759471204, 0.9897089187896667],
             [-0.1779361837573271, 0.989708905832201],
             [-0.17798476567601956, 0.9897574942296263]],
            [[-0.17803334759471204, 0.9897089187896667],
             [-0.17798476567601956, 0.9897574942296263],
             [-0.1795461955397109, 0.989708699546386]],
            [lo, lo + ex, lo + ey],
            [hi, hi - ex, hi - ey],
        ])
        assert not an.sweep_intervals(verts).overlap_error

    def test_collinear_overlap_flagged(self):
        # two cells claiming the same side of one edge interval: the
        # signature of a misplaced refinement child
        verts = np.array([
            [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
            [[0.25, 0.0], [0.75, 0.0], [0.5, 0.4]],
        ])
        sweep = an.sweep_intervals(verts)
        assert sweep.overlap_error
        # a strictly contained cell shares no edge line; the sweep cannot
        # see it and area conservation is the responsible check
        nested = np.array([
            [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
            [[0.2, 0.2], [0.5, 0.2], [0.2, 0.5]],
        ])
        assert not an.sweep_intervals(nested).overlap_error
        hull_area = 0.5
        assert np.abs(cov.tri_areas(nested)).sum() > hull_area + 0.01

    def test_doubly_covered_side_has_no_owner(self):
        # the mesh above with a cell below y = 0: on [0.25, 0.75] the upper
        # side is covered by cells 0 and 1 and has owner -1, the lower side
        # keeps cell 2; with no cell below, neither side has an owner
        verts = np.array([
            [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
            [[0.25, 0.0], [0.75, 0.0], [0.5, 0.4]],
            [[0.0, 0.0], [0.5, -0.5], [1.0, 0.0]],
        ])
        for n, below in ((3, 2), (2, -1)):
            sweep = an.sweep_intervals(verts[:n])
            assert sweep.overlap_error
            k = np.flatnonzero((sweep.point_lo[:, 1] == 0.0)
                               & (sweep.point_hi[:, 1] == 0.0))[0]
            on = (sweep.line == sweep.line[k]).all(axis=1)
            assert sweep.dt[on] == pytest.approx([0.25, 0.5, 0.25],
                                                 rel=1e-12)
            assert sweep.left_owner[on].tolist() == [0, -1, 0]
            assert sweep.right_owner[on].tolist() == [below] * 3
            middle = np.flatnonzero(on)[1]
            assert np.isnan(sweep.point_lo[middle]).all() == (below < 0)
            # the doubly covered side takes no part in any jump
            vals = np.array([1.0, 5.0, 3.0])[:n]
            assert an.bv_seminorm_cells(verts[:n], vals) == pytest.approx(
                0.0 if below < 0 else 2.0 * 0.5, rel=1e-12)


def stepped(verts, kept, children):
    """A refinement step's state and its prev_index: the kept cells of
    verts first, then each covered cell's children (parent -> triangles)."""
    parents = [p for p, tris in children.items() for _ in tris]
    new = [t for tris in children.values() for t in tris]
    out = np.concatenate([verts[kept],
                          np.array(new, dtype=float).reshape(-1, 3, 2)])
    return out, np.array(list(kept) + parents, dtype=np.int64)


def boundary(verts):
    """The outer intervals of the sweep of verts as (m,2,2) segments, as
    the engine takes its domain's boundary."""
    sw = an.sweep_intervals(verts)
    single = (sw.left_owner >= 0) ^ (sw.right_owner >= 0)
    return np.stack([sw.point_lo, sw.point_hi], 1)[single]


class TestIncrementalSweep:
    """sweep_totals(verts, (totals, prev_index, n_kept), cells) equals the
    per-line reduction of the full interval sweep of verts, whichever
    lines it carries over."""

    def fields(self, verts, kept, children):
        """The step's state, its prev_index and the CellFields of verts
        and of the step: a kept cell keeps its gradient row and offset,
        each child gets a new row and offset (random ones, drawn per
        row); both trace against the boundary of verts."""
        n = verts.shape[0]
        new, prev_index = stepped(verts, kept, children)
        rows = n + new.shape[0] - len(kept)
        rng = np.random.default_rng(0)
        grads = rng.normal(size=(rows, 2, 2))
        chi = rng.integers(0, 2, rows).astype(float)
        offs = rng.normal(size=(rows, 2))
        M, hull = rng.normal(size=(2, 2)), boundary(verts)
        gid = np.concatenate([kept, np.arange(n, rows)]).astype(np.int64)
        return (new, prev_index,
                an.CellFields(grads, np.arange(n), chi, offs[:n], M, hull),
                an.CellFields(grads, gid, chi, offs[gid], M, hull))

    def carried(self, verts, kept, children):
        """The step's state, its carried totals and its CellFields."""
        new, prev_index, before, cells = self.fields(verts, kept, children)
        old = an.sweep_totals(verts, None, before)
        tot = an.sweep_totals(new, (old, prev_index, len(kept)), cells)
        assert tot.stray is not None
        return new, tot, cells

    def test_gap_interval_has_nan_endpoints(self):
        # two cells with edges on y = 0 that do not meet: [1, 2] is a gap
        verts = np.array([[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
                          [[2.0, 0.0], [3.0, 0.0], [2.0, 1.0]]])
        sw = an.sweep_intervals(verts)
        gap = (sw.left_owner < 0) & (sw.right_owner < 0)
        assert gap.sum() == 1
        assert sw.dt[gap][0] == pytest.approx(1.0, rel=1e-12)
        assert np.isnan(sw.point_lo[gap]).all()
        assert np.isnan(sw.point_hi[gap]).all()
        owned = ~gap
        assert np.isfinite(sw.point_lo[owned]).all()
        assert np.isfinite(sw.point_hi[owned]).all()
        # no cell borders the gap, so no jump is counted on it
        assert an.bv_seminorm_cells(verts, np.ones(2),
                                    include_boundary=True) == \
            pytest.approx(2.0 * (2.0 + np.sqrt(2.0)), rel=1e-12)

    def test_step_carries_clean_lines(self, assert_same_totals, swept):
        # refine one stripe of nine: most lines keep their totals, and
        # only the dirty lines' edges are swept again
        verts, _ = stripe_mesh(9)
        a, b, c = verts[8]
        m = (a + b + c) / 3.0
        new, tot, cells = self.carried(
            verts, [i for i in range(18) if i != 8],
            {8: [[a, b, m], [b, c, m], [c, a, m]]})
        assert 9 <= swept[-1] < 3 * 20
        assert_same_totals(tot, line_totals(an.sweep_intervals(new), cells))

    def test_step_without_new_cells(self, assert_same_totals, swept):
        verts, _ = stripe_mesh(3)
        new, tot, cells = self.carried(verts, list(range(6)), {})
        assert swept[-1] == 0
        assert_same_totals(tot, line_totals(an.sweep_intervals(verts),
                                            cells))

    @pytest.mark.parametrize("cell, moved", [
        ([[0.0, 0.0], [2.0, 1.0], [-1.0, 1.0]], (True, True)),
        ([[0.0, 0.0], [2.0, 1.0], [0.0, 1.5]], (True, False)),
        ([[0.0, -1.0], [2.0, 1.0], [0.0, 2.0]], (False, True))])
    def test_cell_past_the_frame_is_carried(self, cell, moved,
                                            assert_same_totals, swept):
        # the new cell reaches past the old bounding box, whose center,
        # diameter or both differ from the new one's: the line keys stay
        # in the run's frame, the first state's, and the clean lines are
        # carried
        verts = square_mesh() * [2.0, 1.0]
        new, tot, cells = self.carried(verts, [0], {1: [cell]})
        run, own = an._frame(verts), an._frame(new)
        assert (own[0].tobytes() != run[0].tobytes(),
                own[1] != run[1]) == moved
        assert not tot.overlap_error
        assert swept[-1] < 6
        assert_same_totals(tot, line_totals(an.sweep_intervals(new, run),
                                            cells))

    def test_child_edge_off_parent_key(self, assert_same_totals):
        # the covered cell's edge on y = 0 is longer than its neighbour's;
        # its children's top edges sit 1e-8 above that line, so they carry
        # other line keys and only the parent's edge makes y = 0 dirty
        verts = np.array([[[0.0, 0.0], [1.0, 0.0], [0.5, 1.0]],
                          [[2.0, 0.0], [0.0, 0.0], [1.0, -1.0]]])
        top = [1.0, 1e-8]
        new, tot, cells = self.carried(verts, [0], {1: [
            [[2.0, 0.0], top, [1.0, -1.0]], [top, [0.0, 0.0], [1.0, -1.0]]]})
        a = an._join(an._edge_chunks(verts, tot.frame, np.array([3])))[1]
        b = an._join(an._edge_chunks(new, tot.frame, np.array([3, 4])))[1]
        assert not (b == a).all(axis=1).any()
        assert_same_totals(tot, line_totals(an.sweep_intervals(new), cells))

    @pytest.mark.parametrize("inside", [True, False])
    def test_previous_sweep_is_handed_over(self, inside,
                                           assert_same_totals, swept):
        # the call reads prev's totals and leaves them as they were, with
        # the new cells inside the old ones or reaching past their
        # bounding box: the same prev gives the same totals again
        verts, _ = stripe_mesh(9)
        a, b, c = verts[8]
        m = (a + b + c) / 3.0 if inside else [0.5, 1.5]
        kept = [i for i in range(18) if i != 8]
        new, prev_index, before, cells = self.fields(
            verts, kept, {8: [[a, b, m], [b, c, m], [c, a, m]]})
        old = an.sweep_totals(verts, None, before)
        kept_cols = {name: getattr(old, name).copy() for name in
                     ("line", "overlap", "edge_hash") + an.TERM_COLUMNS}
        prev = (old, prev_index, len(kept))
        tot = an.sweep_totals(new, prev, cells)
        assert tot.frame is old.frame
        assert swept[-1] < 3 * 20
        for name, col in kept_cols.items():
            assert getattr(old, name).tobytes() == col.tobytes(), name
        want = line_totals(an.sweep_intervals(new, old.frame), cells)
        assert_same_totals(tot, want)
        assert_same_totals(an.sweep_totals(new, prev, cells), want)

    @pytest.mark.parametrize("had", ["none", "bv", "all"])
    @pytest.mark.parametrize("asks", ["bv", "all"])
    def test_carry_across_term_columns(self, had, asks, assert_same_totals,
                                       swept):
        # the previous totals hold no term column, the two bv columns or
        # all five, and the step asks for the bv columns or all five: the
        # step carries, equal to the full sweep's reduction, when the
        # previous totals hold every column it asks for, and raises
        # otherwise
        verts, _ = stripe_mesh(9)
        a, b, c = verts[8]
        m = (a + b + c) / 3.0
        kept = [i for i in range(18) if i != 8]
        new, prev_index, before, cells = self.fields(
            verts, kept, {8: [[a, b, m], [b, c, m], [c, a, m]]})

        def terms(f, which):
            return f if which == "all" else f._replace(
                offs=None, M=None, hull_segments=None)

        old = an.sweep_totals(verts, None, terms(before, had))
        if had == "none":
            old.bv_chi = old.bv_grad = None
        prev = (old, prev_index, len(kept))
        order = ["none", "bv", "all"]
        if order.index(had) < order.index(asks):
            with pytest.raises(InvalidParameterError, match="lack"):
                an.sweep_totals(new, prev, terms(cells, asks))
            return
        tot = an.sweep_totals(new, prev, terms(cells, asks))
        assert swept[-1] < 3 * 20
        assert_same_totals(tot, line_totals(an.sweep_intervals(new),
                                            terms(cells, asks)))

    def test_overlap_is_carried_per_line(self, assert_same_totals, swept):
        # a child laid on top of a kept cell's edge: the carried totals
        # flag the overlap on that line only and equal the full sweep's;
        # a next step keeps carrying, and the clean line its overlap
        verts = square_mesh()
        new, tot, cells = self.carried(verts, [0], {1: [
            [[0.0, 0.0], [1.0, 1.0], [0.0, 1.0]],
            [[0.2, 0.0], [0.8, 0.0], [0.5, 0.3]]]})
        assert tot.overlap.sum() == 1
        assert_same_totals(tot, line_totals(an.sweep_intervals(new), cells))
        again = an.sweep_totals(new, (tot, np.arange(3), 3), cells)
        assert again.overlap_error and swept[-1] == 0
        assert_same_totals(again, line_totals(an.sweep_intervals(new),
                                              cells))


class TestChunkedSweep:
    """A sweep in pieces of whole lines, and an edge table built in pieces,
    equal the sweep of the whole table; so do the per-line totals of the
    pieces, carried or not."""

    def fields(self, res):
        n = res.verts.shape[0]
        return an.CellFields(res.grads, np.arange(n),
                             (res.phases == 1).astype(float), res.offs,
                             res.grads[~res.good][0], boundary(res.verts))

    @pytest.mark.parametrize("chunk", [1, 7, 64])
    def test_pieces_equal_the_whole(self, cover_mesh, chunk, monkeypatch,
                                    assert_same_sweep, assert_same_totals):
        cells = self.fields(cover_mesh)
        verts = cover_mesh.verts
        assert 3 * verts.shape[0] < an.SWEEP_CHUNK
        whole = an.sweep_intervals(verts)
        monkeypatch.setattr(an, "SWEEP_CHUNK", chunk)
        assert_same_sweep(an.sweep_intervals(verts), whole)
        assert_same_totals(an.sweep_totals(verts, None, cells),
                           line_totals(whole, cells))

    def refined(self, cover_mesh):
        """The cover with its largest child refined into three: (cells of
        the cover, the step's verts, prev, and its cells), prev missing
        its totals."""
        cells = self.fields(cover_mesh)
        verts = cover_mesh.verts
        big = int(np.argmax(cov.tri_areas(verts)))
        a, b, c = verts[big]
        m = (a + b + c) / 3.0
        kept = [i for i in range(verts.shape[0]) if i != big]
        new, prev_index = stepped(verts, kept,
                                  {big: [[a, b, m], [b, c, m], [c, a, m]]})
        pick = np.concatenate([kept, [big] * 3])
        step = cells._replace(gid=pick, offs=cells.offs[pick])
        return cells, new, (prev_index, len(kept)), step

    def test_carried_pieces_equal_the_whole(self, cover_mesh, monkeypatch,
                                            assert_same_totals):
        cells, new, prev, step = self.refined(cover_mesh)
        want = line_totals(an.sweep_intervals(new), step)
        monkeypatch.setattr(an, "SWEEP_CHUNK", 5)
        old = an.sweep_totals(cover_mesh.verts, None, cells)
        assert_same_totals(an.sweep_totals(new, (old, *prev), step), want)

    @pytest.mark.parametrize("bucket", ["zero", "coarse"])
    def test_colliding_buckets_sweep_the_same(self, cover_mesh, bucket,
                                              monkeypatch,
                                              assert_same_totals):
        # distinct lines sharing a bucket: every line in bucket 0 (all of
        # them dirty), or 2^8 times fewer buckets (clean lines re-swept
        # with dirty ones, the others still carried)
        cells, new, prev, step = self.refined(cover_mesh)
        want = line_totals(an.sweep_intervals(new), step)
        old = an.sweep_totals(cover_mesh.verts, None, cells)
        if bucket == "zero":
            monkeypatch.setattr(an, "_buckets", lambda h, bits: np.zeros(
                h.shape[0], dtype=np.intp))
        else:
            monkeypatch.setattr(an, "_buckets", lambda h, bits: (
                h >> np.uint32(40 - bits)).astype(np.intp))
        clean = an._dirty_lines(new, old, *prev)[2]
        assert clean.any() == (bucket == "coarse")
        assert_same_totals(an.sweep_totals(new, (old, *prev), step), want)

    def test_overlap_sweeps_the_whole_table(self, monkeypatch,
                                            assert_same_sweep):
        # one piece holds the doubly covered line; the pieces flag the
        # overlap and give the owners of the whole table's sweep
        verts, _ = stripe_mesh(4)
        verts = np.concatenate([verts, [[[0.05, 0.0], [0.2, 0.0],
                                         [0.1, -0.3]]]])
        whole = an.sweep_intervals(verts)
        assert whole.overlap_error
        monkeypatch.setattr(an, "SWEEP_CHUNK", 2)
        assert_same_sweep(an.sweep_intervals(verts), whole)

    def test_zero_length_chunk_sweeps_the_same(self, monkeypatch,
                                               assert_same_sweep,
                                               assert_same_totals):
        # a degenerate cell (its first two vertices equal) has a
        # zero-length first edge; in pieces of one edge, that edge's piece
        # of the edge table holds no row, and the sweep is the whole
        # table's, its per-line totals too
        verts, vals = stripe_mesh(3)
        a, b = np.array([0.2, 1.0]), np.array([0.3, 1.4])
        verts = np.concatenate([verts, [[a, a, b]]])
        n = verts.shape[0]
        grads = np.random.default_rng(0).normal(size=(n, 2, 2))
        offs = np.random.default_rng(1).normal(size=(n, 2))
        cells = an.CellFields(grads, np.arange(n), np.append(vals, 1.0),
                              offs, np.eye(2), boundary(verts))
        whole = an.sweep_intervals(verts)
        tot = an.sweep_totals(verts, None, cells)
        assert tot.edge_hash[-1, 0] == 0
        assert np.all(tot.edge_hash[-1, 1:] != 0)
        monkeypatch.setattr(an, "SWEEP_CHUNK", 1)
        empty = an._join(an._edge_chunks(verts, whole.frame,
                                         np.array([3 * n - 3])))
        assert [c.shape for c in empty] == [(0,), (0, 3), (0,), (0,), (0,)]
        assert_same_sweep(an.sweep_intervals(verts), whole)
        assert_same_totals(an.sweep_totals(verts, None, cells),
                           line_totals(whole, cells))

    @pytest.mark.parametrize("mesh", ["cover", "overlap"])
    def test_reversed_rows_sweep_the_same(self, cover_mesh, mesh):
        # the table's rows reversed reverse each line's events at equal t
        # (the line-key sort and the event sort are stable); the sweep and
        # its per-line totals must not depend on their order, owners of
        # doubly covered sides included
        verts = cover_mesh.verts
        if mesh == "overlap":
            verts, _ = stripe_mesh(4)
            verts = np.concatenate([verts, [[[0.05, 0.0], [0.2, 0.0],
                                             [0.1, -0.3]]]])
        n = verts.shape[0]
        rng = np.random.default_rng(0)
        cells = an.CellFields(rng.normal(size=(n, 2, 2)), np.arange(n),
                              rng.integers(0, 2, n).astype(float),
                              rng.normal(size=(n, 2)), np.eye(2),
                              boundary(verts))
        frame = an._frame(verts)
        edges = an._join(an._edge_chunks(verts, frame,
                                         np.arange(3 * n)))
        for piece, at in ((list, 6),
                          (lambda f: an._line_totals(f, cells, frame[1]), 1)):
            cols = an._sweep_lines(edges, verts, frame, piece)
            back = an._sweep_lines([f[::-1] for f in edges], verts, frame,
                                   piece)
            assert cols[at].any() == (mesh == "overlap")
            assert len(cols) == len(back)
            for x, y in zip(cols, back):
                assert x.dtype == y.dtype
                assert np.array_equal(x, y, equal_nan=x.dtype.kind == "f")

    def test_interval_endpoints_are_pinned(self):
        # the point_lo/point_hi bits of a small engine state on the unit
        # square rotated by 0.3 rad (2,348 cells, 4,112 intervals): each
        # endpoint is rebuilt on its owning edge from verts sent through
        # the frame and back, which twowell dim's box counts read.  Pinned
        # for numpy 2.4.6 (OpenBLAS 0.3.31) on the x86-64 host it was
        # recorded on; exact vertices print cb212aec6083e142.
        c, s = np.cos(0.3), np.sin(0.3)
        cfg = en.EngineConfig(cell_budget=3_000, max_steps=2,
                              checks="fast", track_bv=False)
        eng = en.Engine(en.unit_square_domain() @ np.array([[c, s],
                                                            [-s, c]]),
                        ia.stage_representative(2, DELTA), DELTA, cfg)
        eng.run()
        sw = an.sweep_intervals(eng.state.verts)
        assert sw.point_lo.shape == (4112, 2)
        assert hashlib.sha256(sw.point_lo.tobytes() + sw.point_hi.tobytes()
                              ).hexdigest()[:16] == "16fb08ddf2b50af9"


class TestFieldResiduals:
    def test_affine_field_is_continuous(self, cover_mesh):
        M = np.array([[1.3, 0.2], [-0.4, 0.9]])
        n = cover_mesh.n_children
        grads = np.broadcast_to(M, (n, 2, 2))
        offs = np.broadcast_to(np.array([0.7, -0.1]), (n, 2))
        assert an.continuity_residual(cover_mesh.verts, grads, offs) < 1e-12

    def test_offset_defect_detected(self, cover_mesh):
        M = np.array([[1.3, 0.2], [-0.4, 0.9]])
        n = cover_mesh.n_children
        grads = np.broadcast_to(M, (n, 2, 2)).copy()
        offs = np.zeros((n, 2))
        offs[n // 2] = [1e-7, 0.0]
        resid = an.continuity_residual(cover_mesh.verts, grads, offs)
        assert resid == pytest.approx(1e-7, rel=1e-6)

    def test_trace_residual(self, cover_mesh):
        res = cover_mesh
        M = res.grads[~res.good][0]
        T = np.array([[0.0, 0.0], [0.9, 0.15], [0.25, 0.8]])
        hull = np.stack([T, np.roll(T, -1, axis=0)], axis=1)
        resid, stray = an.boundary_trace_residual(
            res.verts, res.grads, res.offs, M, hull_segments=hull)
        assert resid < 1e-10
        assert stray < 1e-8
        # a shifted trace target is detected at its magnitude
        resid2, _ = an.boundary_trace_residual(
            res.verts, res.grads, res.offs + np.array([0.01, 0.0]), M,
            hull_segments=hull)
        assert resid2 == pytest.approx(0.01, rel=1e-6)

    def test_interface_segments_of_diagonal_split(self):
        verts = square_mesh()
        segs = an.interface_segments(verts, np.array([1, 2], dtype=np.uint8))
        length = np.linalg.norm(segs[:, 1] - segs[:, 0], axis=1).sum()
        assert length == pytest.approx(np.sqrt(2), rel=1e-12)

    def test_trace_terms_per_interval(self):
        # the unit square's two cells against three of its four sides:
        # the left side is stray with its length, and an offset on the
        # upper cell shows on its outer intervals only
        verts = square_mesh()
        sw = an.sweep_intervals(verts)
        corners = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        hull = np.stack([corners[:3], corners[1:]], axis=1)
        M = np.array([[1.2, 0.3], [-0.1, 0.9]])
        grads = np.stack([M, M])
        offs = np.array([[0.0, 0.0], [0.0, 0.02]])
        lo, ro = sw.left_owner, sw.right_owner
        trace, stray = an.trace_terms(grads, offs, M, hull, lo, ro,
                                      sw.point_lo, sw.point_hi, sw.dt,
                                      sw.frame[1])
        outer = (lo >= 0) ^ (ro >= 0)
        owner = np.where(lo >= 0, lo, ro)
        left = outer & (sw.point_lo[:, 0] == 0.0) & (sw.point_hi[:, 0] == 0.0)
        assert left.sum() == 1 and outer.sum() == 4
        assert stray[left] == pytest.approx([1.0], rel=1e-12)
        assert not stray[~left].any()
        assert trace[outer & ~left] == pytest.approx(
            np.where(owner == 1, 0.02, 0.0)[outer & ~left], abs=1e-15)
        assert not trace[~outer | left].any()
        assert an.boundary_trace_residual(verts, grads, offs, M, hull) == (
            float(trace.max()), float(stray.sum()))

    def test_empty_selections_keep_their_shapes(self):
        # one phase: no interface; one triangle: no interior interval, and
        # a hull away from the mesh: every outer interval is stray
        segs = an.interface_segments(square_mesh(),
                                     np.array([1, 1], dtype=np.uint8))
        assert segs.shape == (0, 2, 2)
        tri = square_mesh()[:1]
        sw = an.sweep_intervals(tri)
        grads, offs = np.ones((1, 2, 2)), np.ones((1, 2))
        terms = an.continuity_terms(grads, offs, sw.left_owner,
                                    sw.right_owner, sw.point_lo, sw.point_hi)
        assert terms.shape == sw.dt.shape
        assert not terms.any()
        assert an.continuity_residual(tri, grads, offs, sweep=sw) == 0.0
        far = np.array([[[5.0, 5.0], [6.0, 5.0]]])
        res = an.boundary_trace_residual(tri, grads, offs, np.eye(2), far,
                                         sweep=sw)
        single = (sw.left_owner >= 0) ^ (sw.right_owner >= 0)
        assert single.all()
        assert res == (0.0, float(sw.dt[single].sum()))


class TestInterpolation:
    def test_square_indicator_value(self):
        # sup 1, L1 1, BV 4 with boundary: interpolated norm 4^(1/4)
        val = an.wsp_interpolated_norm(1.0, 1.0, 4.0, s=0.25, p=2.0)
        assert val == pytest.approx(4.0 ** 0.25, rel=1e-14)

    def test_zero_field(self):
        assert an.wsp_interpolated_norm(0.0, 0.0, 0.0, 0.25, 2.0) == 0.0

    def test_monotone_in_sp(self):
        # for BV >= L1 the bound grows with s (fixed p)
        vals = [an.wsp_interpolated_norm(1.0, 0.3, 5.0, s, 2.0)
                for s in (0.1, 0.2, 0.3, 0.4)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameterError):
            an.wsp_interpolated_norm(1.0, 1.0, 1.0, 0.6, 2.0)   # sp >= 1
        with pytest.raises(InvalidParameterError):
            an.wsp_interpolated_norm(1.0, 1.0, 1.0, -0.1, 2.0)
        with pytest.raises(InvalidParameterError):
            an.wsp_interpolated_norm(1.0, 1.0, 1.0, 0.25, 1.0)

    def test_theta0_closed_form(self):
        assert an.solve_theta0(0.5, 2.0) == pytest.approx(0.5, rel=1e-14)
        want = math.log(2) / (math.log(126) + math.log(2))
        assert an.solve_theta0(0.5, 126.0) == pytest.approx(want, rel=1e-14)
        with pytest.raises(InvalidParameterError):
            an.solve_theta0(1.5, 2.0)
        with pytest.raises(InvalidParameterError):
            an.solve_theta0(0.5, 0.9)

    def test_theta0_vanishes_with_growth(self):
        a = an.solve_theta0(0.5, 10.0)
        b = an.solve_theta0(0.5, 1e6)
        assert b < a < 1.0
        assert b < 0.06


class TestFits:
    def test_exact_geometric(self):
        fit = an.fit_geometric([1.0, 0.5, 0.25, 0.125])
        assert fit.rate == pytest.approx(0.5, rel=1e-12)
        assert fit.r_squared == pytest.approx(1.0)
        assert fit.skipped == 0

    def test_growing_series(self):
        fit = an.fit_geometric([1.0, 3.0, 9.0, 27.0])
        assert fit.rate == pytest.approx(3.0, rel=1e-12)

    def test_window_and_skips(self):
        series = [5.0, 1.0, 0.5, 0.0, 0.125, 0.0625, 0.03125]
        fit = an.fit_geometric(series, window=(1, 6))
        assert fit.skipped == 1          # the zero inside the window
        assert fit.rate == pytest.approx(0.5, rel=1e-10)
        with pytest.raises(InvalidParameterError):
            an.fit_geometric(series, window=(3, 4))   # < 3 usable points

    def test_noisy_rate_recovered(self):
        rng = np.random.default_rng(3)
        k = np.arange(10)
        series = 2.0 * 0.7 ** k * np.exp(rng.normal(0, 0.02, 10))
        fit = an.fit_geometric(series)
        assert fit.rate == pytest.approx(0.7, rel=0.03)
        assert fit.r_squared > 0.98


class TestBoxDimension:
    def test_single_segment(self):
        seg = np.array([[[0.0, 0.0], [1.0, 0.0]]])
        est, table = an.box_dimension(seg)
        assert abs(est - 1.0) <= 0.05
        counts = [row[1] for row in table]
        eps = [row[0] for row in table]
        order = np.argsort(eps)
        assert all(np.diff(np.array(counts)[order][::-1]) >= 0)

    def test_square_boundary(self):
        sq = np.array([[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]], dtype=float)
        segs = np.stack([sq[:-1], sq[1:]], axis=1)
        est, _ = an.box_dimension(segs)
        assert abs(est - 1.0) <= 0.05

    def test_diagonal_line_oracle(self):
        t = np.linspace(0, 1, 33)
        pts = np.stack([t, 0.37 * t + 0.1], axis=1)
        segs = np.stack([pts[:-1], pts[1:]], axis=1)
        est, _ = an.box_dimension(segs)
        assert abs(est - 1.0) <= 0.1

    def test_counts_monotone_by_construction(self):
        rng = np.random.default_rng(11)
        pts = rng.uniform(0, 1, (40, 2))
        segs = np.stack([pts[:-1], pts[1:]], axis=1)
        _, table = an.box_dimension(segs)
        eps = np.array([row[0] for row in table])
        n = np.array([row[1] for row in table])
        order = np.argsort(eps)[::-1]       # coarse -> fine
        assert (np.diff(n[order]) >= 0).all()

    def test_counts_match_per_segment_reference(self):
        # the last sample of the first segment lands an ulp below the
        # bbox minimum (box row -1); it is a box of its own, not an alias
        # of the second segment's box
        top, bottom = 0.2307702229625077, -0.22384795711443314
        assert (bottom - top) + top < bottom
        segs = [np.array([[[0.5, top], [0.5, bottom]],
                          [[0.43, 0.23], [0.43, top]]])]
        rng = np.random.default_rng(5)
        a = rng.uniform(-1, 1, (200, 2))
        segs.append(np.stack([a, a + rng.normal(0, 0.1, (200, 2))], axis=1))
        for seg in segs:
            _, table = an.box_dimension(seg)
            eps = [row[0] for row in table]
            assert [row[1] for row in table] == box_counts_reference(seg,
                                                                     eps)

    @pytest.mark.parametrize("run_points", [1, 500])
    def test_runs_of_segments_count_the_same(self, run_points, monkeypatch):
        # boxed a few points at a time, the segments meet the same boxes;
        # the first pair puts a sample an ulp below the bbox minimum
        top, bottom = 0.2307702229625077, -0.22384795711443314
        rng = np.random.default_rng(5)
        a = rng.uniform(-1, 1, (200, 2))
        segs = np.concatenate([
            [[[0.5, top], [0.5, bottom]], [[0.43, 0.23], [0.43, top]]],
            np.stack([a, a + rng.normal(0, 0.1, (200, 2))], axis=1)])
        whole = an.box_dimension(segs)
        assert 3 * np.linalg.norm(segs[:, 1] - segs[:, 0], axis=1).sum() \
            / 2.0 ** -10 < an.BOX_POINTS
        monkeypatch.setattr(an, "BOX_POINTS", run_points)
        assert an.box_dimension(segs) == whole

    def test_nested_counts_match_reference(self):
        # every grid's count comes from the finest grid's boxes shifted
        # right by k bits; it equals the count of that grid on its own,
        # for any order of eps_list and on a grid of one box
        top, bottom = 0.2307702229625077, -0.22384795711443314
        ulp_pair = np.array([[[0.5, top], [0.5, bottom]],
                             [[0.43, 0.23], [0.43, top]]])
        rng = np.random.default_rng(7)
        a = rng.uniform(-2.0, -0.5, (150, 2))
        negative = np.stack([a, a + rng.normal(0, 0.2, (150, 2))], axis=1)
        scales = [2.0 ** -p for p in range(2, 9)]
        shuffled = [scales[i] for i in rng.permutation(len(scales))]
        assert shuffled != sorted(shuffled)
        for seg in (ulp_pair, negative):
            for eps in (scales, shuffled, [4.0] + scales):
                _, table = an.box_dimension(seg, eps)
                assert [row[0] for row in table] == sorted(eps)
                assert [row[1] for row in table] == box_counts_reference(
                    seg, sorted(eps))
        assert table[-1][:2] == (4.0, 1)    # extent below 4: one box

    def test_validation(self):
        with pytest.raises(UndefinedDimensionError):
            an.box_dimension(np.zeros((0, 2, 2)))
        seg = np.array([[[0.0, 0.0], [1.0, 0.0]]])
        with pytest.raises(InvalidParameterError):
            an.box_dimension(seg, eps_list=[0.1, 0.05])   # not dyadic
        for one_scale in ([], [0.25], [0.25, 0.25]):
            with pytest.raises(InvalidParameterError):
                an.box_dimension(seg, eps_list=one_scale)
        far = np.array([[[0.0, 0.0], [1e-3, 0.0]],
                        [[1e7, 1e7], [1e7, 1e7 + 1e-3]]])
        with pytest.raises(InvalidParameterError):
            an.box_dimension(far)       # box ids would overflow int64

    def test_m_d_column(self):
        seg = np.array([[[0.0, 0.0], [1.0, 0.0]]])
        _, table = an.box_dimension(seg, d_report=1.0)
        for eps, n, md in table:
            assert md == pytest.approx(n * eps)
            # a unit segment occupies about 1/eps boxes
            assert 0.5 / eps <= n <= 2.5 / eps + 2


class TestRaster:
    def test_rasterize_half_square(self):
        verts = square_mesh()
        vals = np.array([1.0, 0.0])
        grid, px = rasterize_cells(verts, vals, n=128,
                                   bounds=(0.0, 0.0, 1.0, 1.0))
        assert grid.shape == (128, 128)
        assert px == pytest.approx(1 / 128)
        # diagonal split: half the pixels are 1
        assert abs(grid.mean() - 0.5) < 0.02

    def test_raster_l1_and_bv(self):
        verts, vals = stripe_mesh(2)
        grid, px = rasterize_cells(verts, vals, n=128,
                                   bounds=(0.0, 0.0, 1.0, 1.0))
        zero, _ = rasterize_cells(verts, np.zeros(4), n=128,
                                  bounds=(0.0, 0.0, 1.0, 1.0))
        # the value-1 stripe has area 1/2
        assert raster_l1(grid, zero, px) == pytest.approx(0.5, abs=0.01)
        # one vertical interface of length 1
        assert raster_bv(grid, px) == pytest.approx(1.0, abs=0.02)


class TestMetricsSeries:
    def _row(self, k, frozen=0.0):
        return dict(k=k, l1_chi_diff=0.5 ** k, l1_grad_diff=0.5 ** k,
                    bv_chi=2.0 ** k, bv_grad=2.0 ** k,
                    perimeter_sum=4.0 * 2.0 ** k, frozen_measure=frozen,
                    domain_area=1.0, wsup_max=0.5 ** k,
                    w_l1_bound=0.25 ** k, mean_dist=0.1 * 0.5 ** k)

    def test_columns_and_diffs(self):
        m = an.MetricsSeries()
        for k in range(4):
            m.append(self._row(k), np.zeros(3))
        assert np.allclose(m.column("bv_chi"), [1, 2, 4, 8])
        assert len(m.diffs("l1_chi_diff")) == 3

    def test_frozen_must_not_decrease(self):
        m = an.MetricsSeries()
        m.append(self._row(0, frozen=0.2), np.zeros(3))
        with pytest.raises(InvalidParameterError):
            m.append(self._row(1, frozen=0.1), np.zeros(3))

    def test_regularity_report_compliant_window(self):
        m = an.MetricsSeries()
        for k in range(7):
            m.append(self._row(k), np.zeros(3))
        rep = an.regularity_report(m, growth_constant=126.0)
        assert rep.window_compliant
        assert rep.window[0] >= an.TRANSIENT_STEPS
        assert 0 < rep.theta0_measured < 1
        assert rep.c_tilde == pytest.approx(0.5, rel=1e-9)
        assert rep.rho_bv == pytest.approx(2.0, rel=1e-9)
        # theta0 solves c^(1-t) * rho^t = 1
        t = rep.theta0_measured
        assert rep.c_tilde ** (1 - t) * rep.rho_bv ** t == pytest.approx(1.0)
        assert rep.ok()

    def test_regularity_report_frozen_violation(self):
        m = an.MetricsSeries()
        for k in range(7):
            m.append(self._row(k, frozen=0.0 if k < 2 else 0.3), np.zeros(3))
        rep = an.regularity_report(m, growth_constant=126.0)
        assert not rep.window_compliant
        assert rep.frozen_fraction_max > 0.01
        assert not rep.ok()
        # the fits themselves are still reported
        assert 0 < rep.theta0_measured < 1
