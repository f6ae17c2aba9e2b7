"""Triangle covers: inscribed diamonds and generic triangles (diamond rows)."""

import os
import subprocess
import sys

import numpy as np
import pytest

import twowell.cell as cl
from twowell import analysis as an
from twowell import covering as cov
from twowell import engine as en
from twowell import inapprox as ia
from twowell import matgeo as mg
from twowell.errors import WrongEntryPointError

from oracles import good_area

DELTA = 0.5


@pytest.fixture(scope="module")
def plan():
    h0 = cl.calibrate_h0(DELTA, fracs=(0.25, 0.5, 0.75))
    M = ia.stage_representative(2, DELTA)
    return cl.replace_dyadic_stage(M, DELTA, h0)


def cover_checks(res: cov.CoverResult, parent_tri, M, parent_area):
    """Partition + affine-trace invariants shared by every cover kind."""
    assert res.areas().sum() == pytest.approx(parent_area, rel=1e-12)
    assert (res.areas() > 0).all()
    sweep = an.sweep_intervals(res.verts)
    assert not sweep.overlap_error
    assert an.continuity_residual(res.verts, res.grads, res.offs,
                                  sweep=sweep) < 1e-10
    hull = np.stack([parent_tri, np.roll(parent_tri, -1, axis=0)], axis=1)
    resid, stray = an.boundary_trace_residual(
        res.verts, res.grads, res.offs, M, sweep=sweep, hull_segments=hull)
    assert resid < 1e-10
    scale = np.abs(parent_tri).max()
    assert stray < 1e-8 * scale


# right triangles with legs 1 along u and 3 along w, one per branch of
# covering.lay_squares: its squares have the sides e1 = w (along the row)
# and e2 = u, and c = dhat.e1, s = dhat.e2
BRANCHES = ("+dhat", "-dhat", "dhat-perp", "both-negative", "rotated")


def right_triangle(plan, branch):
    """(triangle, whether its squares are rotated) for one branch."""
    d = plan.dhat
    p = np.array([-d[1], d[0]])
    cs, sn = np.cos(0.3), np.sin(0.3)
    u, w = {"+dhat": (p, d),                   # c = 1, s = 0
            "-dhat": (p, -d),                  # c = -1: e1 flipped
            "dhat-perp": (-d, p),              # c = 0, s = -1: e2 flipped
            "both-negative": (-(sn * d - cs * p), -(cs * d + sn * p)),
            "rotated": (sn * d - cs * p, cs * d + sn * p)}[branch]
    v0 = np.array([0.3, -0.2])
    return (np.stack([v0, v0 + u, v0 + 3.0 * w]),
            branch in ("both-negative", "rotated"))


def square_reference(row, i, dhat):
    """(p0, e_len, e_w, length) and corner triangles of the square i of
    row, laid one square at a time with scalar arithmetic."""
    q, e1, e2, a = row.v0 + i * row.a * row.e2, row.e2, row.e1, row.a
    c, s = float(np.dot(dhat, e1)), float(np.dot(dhat, e2))
    if c < 0:
        q, e1, c = q + a * e1, -e1, -c
    if s < 0:
        q, e2, s = q + a * e2, -e2, -s
    if s <= cov.ISO_TOL:
        return (q, e1, e2, a), []
    if c <= cov.ISO_TOL:
        return (q, e2, e1, a), []
    t, ap = s / (c + s), a / (c + s)
    v0 = q + t * a * e1
    v1 = q + a * e1 + t * a * e2
    v2 = q + a * e1 + a * e2 - t * a * e1
    v3 = q + (1.0 - t) * a * e2
    return (v0, dhat, (v3 - v0) / ap, ap), [
        [q, v0, v3], [q + a * e1, v1, v0], [q + a * e1 + a * e2, v2, v1],
        [q + a * e2, v3, v2]]


class TestIsosceles:
    def test_membership_and_axis(self, plan):
        h = plan.h
        T = np.array([[-h, 0.0], [h, 0.0], [0.0, -1.0]])
        member, axis = cov.iso_membership(T, h)
        assert member
        assert np.allclose(axis, [0.0, -1.0], atol=1e-12)
        # wrong aspect is not a member
        member, _ = cov.iso_membership(T, h / 2)
        assert not member

    def test_cover_matches_pinned_leftovers(self, plan):
        # axis e2 matches the plan frame only if dhat is +-e2; rotate the
        # pinned triangle into the plan frame instead
        h = plan.h
        d = plan.dhat
        Rot = np.column_stack([np.array([-d[1], d[0]]), d])
        base = np.array([[-h, 0.0], [h, 0.0], [0.0, -1.0]])
        T = base @ Rot.T * 0.25
        M = plan.M
        res = cov.cover_isosceles(T, plan)
        assert res.n_children == 12
        area = cov.tri_areas(T[None])[0]
        cover_checks(res, T, M, area)
        # the diamond takes exactly half of the parent
        assert good_area(res) == pytest.approx(area / 2, rel=1e-12)
        # leftovers: the pinned similar copies at ratio 1/2
        want1 = np.array([[-h, 0.0], [0.0, 0.0], [-h / 2, -0.5]]) @ Rot.T * 0.25
        want2 = np.array([[h, 0.0], [0.0, 0.0], [h / 2, -0.5]]) @ Rot.T * 0.25
        left = res.verts[~res.good]
        assert left.shape[0] == 2

        def match(got, want):
            for shift in range(3):
                for flip in (got, got[[0, 2, 1]]):
                    if np.abs(np.roll(flip, shift, axis=0) - want).max() < 1e-12:
                        return True
            return False

        hits = sum(match(left[i], w) for i in range(2) for w in (want1, want2))
        assert hits == 2
        # leftovers are tagged, and by their geometry they are members
        # with the parent's apex axis
        assert res.iso[~res.good].all()
        member, ax = cov.iso_membership(left, h)
        assert member.all()
        assert np.abs(ax @ Rot @ np.array([0.0, -1.0]) - 1.0).max() < 1e-9

    def test_child_perimeters_bounded_by_parent(self, plan):
        h = plan.h
        d = plan.dhat
        Rot = np.column_stack([np.array([-d[1], d[0]]), d])
        T = np.array([[-h, 0.0], [h, 0.0], [0.0, -1.0]]) @ Rot.T
        res = cov.cover_isosceles(T, plan)
        per_parent = cov.tri_perimeters(T[None])[0]
        assert (cov.tri_perimeters(res.verts) <= per_parent + 1e-12).all()
        sums = cov.perimeter_ledger(res, T, h, True)
        assert sum(sums) <= 42 * per_parent

    def test_leftover_reenters_cover(self, plan):
        # the fast-path premise: an iso leftover is itself coverable with
        # the same plan, giving 12 children again
        h = plan.h
        d = plan.dhat
        Rot = np.column_stack([np.array([-d[1], d[0]]), d])
        T = np.array([[-h, 0.0], [h, 0.0], [0.0, -1.0]]) @ Rot.T
        res = cov.cover_isosceles(T, plan)
        left = res.verts[~res.good][0]
        res2 = cov.cover_isosceles(left, plan)
        assert res2.n_children == 12
        assert good_area(res2) == pytest.approx(
            cov.tri_areas(left[None])[0] / 2, rel=1e-12)

    def test_rejects_non_member(self, plan):
        T = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(WrongEntryPointError):
            cov.cover_isosceles(T, plan)

    def test_rejects_mismatched_axis(self, plan):
        # member of the class, but apex axis perpendicular to the frame
        h = plan.h
        d = plan.dhat
        perp = np.array([-d[1], d[0]])
        Rot = np.column_stack([d, perp])  # axis lands on dhat-perp
        T = np.array([[-h, 0.0], [h, 0.0], [0.0, -1.0]]) @ Rot.T
        with pytest.raises(WrongEntryPointError):
            cov.cover_isosceles(T, plan)


class TestGeneric:
    def test_right_triangle_squares(self, plan):
        # legs (1,3): medial rectangle holds m=3 squares, each a diamond
        # row along +dhat, with four corner triangles when rotated
        for branch in BRANCHES:
            T, rotated = right_triangle(plan, branch)
            spec = cov.generic_spec(T, plan)
            assert [row.m for row in spec] == [3], branch
            rows, corners = cov.lay_squares(spec, [0, 0, 0], [0, 1, 2],
                                            plan)
            assert np.abs(rows[1] - plan.dhat).max() < 1e-12, branch
            assert corners.shape == (12 if rotated else 0, 3, 2), branch
            res = cov.cover_generic(T, plan)
            area = abs(cov.tri_areas(T[None])[0])
            cover_checks(res, T, plan.M, area)
            assert good_area(res) >= cov.GOOD_FRACTION * area, branch

    def test_squares_match_scalar_reference(self, plan):
        # every square of a batch of rows, laid at once, has the bits of
        # the square laid alone with scalar arithmetic
        rng = np.random.default_rng(5)
        tris = [right_triangle(plan, branch)[0] for branch in BRANCHES]
        tris += [rng.uniform(-1, 1, (3, 2)) for _ in range(20)]
        rows = [row for T in tris for row in cov.generic_spec(T, plan)]
        ri = np.repeat(np.arange(len(rows)), [row.m for row in rows])
        i = np.concatenate([np.arange(row.m) for row in rows])
        laid, corners = cov.lay_squares(rows, ri, i, plan)
        assert laid[4].tolist() == [round(1 / plan.h)] * ri.shape[0]
        want = []
        for k, (r, j) in enumerate(zip(ri, i)):
            stack, tris_k = square_reference(rows[r], j, plan.dhat)
            for got, ref in zip(laid, stack):
                assert np.array_equal(got[k], ref), (r, j)
            want += tris_k
        assert 0 < len(want) < 4 * ri.shape[0]
        assert np.array_equal(corners, cov._fix_ccw(np.array(want)))

    def test_equilateral_altitude_split(self, plan):
        T = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]])
        res = cov.cover_generic(T, plan)
        area = cov.tri_areas(T[None])[0]
        cover_checks(res, T, plan.M, area)
        assert good_area(res) >= cov.GOOD_FRACTION * area

    def test_rotated_frames(self, plan):
        # no triangle side parallel to dhat: inner rotated squares appear
        rng = np.random.default_rng(7)
        for _ in range(5):
            T = rng.uniform(-1, 1, (3, 2))
            if abs(cov.tri_areas(T[None])[0]) < 0.1:
                continue
            area = abs(cov.tri_areas(T[None])[0])
            res = cov.cover_generic(T, plan)
            cover_checks(res, T, plan.M, area)
            assert good_area(res) >= cov.GOOD_FRACTION * area

    def test_spec_count_matches_emission(self, plan):
        # the closed-form count of a spec against its emitted children, on
        # a scalene triangle and on one right triangle per square branch
        tris = [np.array([[0.2, -0.1], [0.9, 0.3], [0.1, 0.8]])]
        tris += [right_triangle(plan, branch)[0] for branch in BRANCHES]
        for T in tris:
            spec = cov.generic_spec(T, plan)
            res = cov.emit_spec([spec], plan, np.zeros(2))
            assert res.n_children == cov.child_count(spec, plan), T
            cover_checks(res, T, plan.M, abs(cov.tri_areas(T[None])[0]))

    def test_perimeter_ledger_bounds(self, plan):
        T = np.array([[0.0, 0.0], [1.0, 0.0], [0.3, 0.7]])
        res = cov.cover_generic(T, plan)
        good, iso, gen = cov.perimeter_ledger(res, T, plan.h, False)
        per = cov.tri_perimeters(T[None])[0]
        c0 = cov.c0_constant(plan.h)
        assert good <= c0 * per
        assert iso <= c0 * per
        assert gen <= 42 * per

    def test_good_children_advance_stage(self, plan):
        T = np.array([[0.0, 0.0], [0.5, 0.0], [0.0, 0.5]])
        res = cov.cover_generic(T, plan)
        assert (res.stages[res.good] == plan.stage + 1).all()
        assert (res.stages[~res.good] == plan.stage).all()
        # leftovers keep the parent's affine map
        assert np.abs(res.grads[~res.good] - plan.M).max() == 0.0
        assert set(np.unique(res.phases)) <= {1, 2}

    def test_deterministic(self, plan):
        T = np.array([[0.1, 0.1], [0.8, 0.25], [0.3, 0.9]])
        a = cov.cover_generic(T, plan)
        b = cov.cover_generic(T, plan)
        assert np.array_equal(a.verts, b.verts)
        assert np.array_equal(a.offs, b.offs)

    def test_stage_rule_entry_points(self, plan):
        # a cover takes the plan of its cell; each rule refuses the
        # stages of the other
        z0 = ia.zeta0(DELTA)
        M0 = ia.matrix_from_gaps(0.75 * z0, 0.75 * z0, DELTA, 1)
        with pytest.raises(WrongEntryPointError):
            cl.replace_dyadic_stage(M0, DELTA, plan.h)
        M2 = ia.stage_representative(2, DELTA)
        with pytest.raises(WrongEntryPointError):
            cl.replace_low_stage(M2, DELTA)

    def test_low_stage_rule_runs(self):
        # the low-stage plan of a stage-0 gradient: children strictly
        # above stage 0
        z0 = ia.zeta0(DELTA)
        M0 = ia.matrix_from_gaps(0.75 * z0, 0.75 * z0, DELTA, 1)
        T = np.array([[0.0, 0.0], [0.5, 0.0], [0.1, 0.4]])
        res = cov.cover_generic(T, cl.replace_low_stage(M0, DELTA))
        area = cov.tri_areas(T[None])[0]
        assert res.areas().sum() == pytest.approx(area, rel=1e-12)
        assert (res.stages[res.good] > 0).all()
        assert good_area(res) >= cov.GOOD_FRACTION * area


class TestBatches:
    COLUMNS = ("verts", "grads", "offs", "stages", "phases", "good", "iso",
               "diam_scales")

    def check(self, batch, singles):
        for name in self.COLUMNS:
            assert np.array_equal(getattr(batch, name), np.concatenate(
                [getattr(res, name) for res in singles])), name

    def test_batch_is_its_covers_in_order(self, plan):
        # a batch of cells with distinct maps (offsets) and covers of
        # different sizes equals its one-cover results, concatenated
        rng = np.random.default_rng(3)
        offs = rng.normal(size=(4, 2))
        tris = [np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 3.0]]),
                np.array([[0.2, -0.1], [0.9, 0.3], [0.1, 0.8]]),
                np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]]),
                rng.uniform(-1, 1, (3, 2))]
        specs = [cov.generic_spec(T, plan) for T in tris]
        assert len({sum(row.m for row in sp) for sp in specs}) > 1
        self.check(cov.emit_spec(specs, plan, offs),
                   [cov.emit_spec([sp], plan, o)
                    for sp, o in zip(specs, offs)])
        d = plan.dhat
        Rot = np.column_stack([np.array([-d[1], d[0]]), d])
        T = np.array([[-plan.h, 0.0], [plan.h, 0.0], [0.0, -1.0]]) @ Rot.T
        # both apex directions along the frame, several scales and places
        isos = np.stack([T, -0.5 * T + 1.0, 0.25 * T - 2.0, -T + 0.3])
        self.check(cov.cover_isosceles(isos, plan, offset=offs),
                   [cov.cover_isosceles(v, plan, offset=o)
                    for v, o in zip(isos, offs)])


class TestVerifySweep:
    def test_all_cover_kinds(self):
        rep = cov.verify_covering(0.5)
        assert rep.ok
        assert rep.cases == 7
        assert rep.min_good_fraction >= cov.GOOD_FRACTION

    @pytest.mark.parametrize("delta", [0.5, 2.0, 4.0, 6.0, 8.0])
    def test_checks_the_aspect_the_engine_lays(self, delta):
        # at 0.5, 2 and 6 the default fractions calibrate a smaller aspect
        # than the engine's corridor
        rep = cov.verify_covering(delta)
        eng = en.Engine(en.unit_square_domain(),
                        ia.stage_representative(2, delta), delta)
        assert rep.h0 == eng.h0
        assert rep.ok and rep.cases == 7

    def test_ledger_check_holds_under_optimize(self):
        # with both perimeter constants forced to 0 every case fails the
        # ledger; the ledger raises rather than asserts, so python -O
        # keeps the check
        code = ("from twowell import covering as cov\n"
                "cov.C2_UNIFORM = 0.0\n"
                "cov.c0_constant = lambda h: 0.0\n"
                "print(cov.verify_covering(0.5).failures)\n")
        pkg = os.path.abspath(cov.__file__)
        src = os.path.dirname(os.path.dirname(pkg))
        proc = subprocess.run([sys.executable, "-O", "-c", code],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) == 7
