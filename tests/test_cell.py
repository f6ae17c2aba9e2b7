"""Replacement cells: template geometry, placement, stage-driven plans."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import twowell.cell as cl
from twowell import analysis as an
from twowell import covering as cov
from twowell import inapprox as ia
from twowell import matgeo as mg
from twowell.errors import (AspectFailureError, ConstructionFailureError,
                            InvalidPairError, InvalidParameterError,
                            WrongEntryPointError, clean, raise_first)

from oracles import GRAD_NAMES, rank_one_factors


def one_template(lam, h, g0):
    """The stacked template builder on one row (lam, g0) at aspect h;
    raises the row's error."""
    t = cl._templates(np.array([lam], dtype=float), h,
                      np.array([g0], dtype=float))
    raise_first(t.errors)
    return t


def a_fraction(areas, h):
    """Area fraction of the A slots (0 and 2) of a cell of aspect h."""
    return float(areas[np.isin(cl.GRAD_INDEX, (0, 2))].sum()) / (2.0 * h)


def oracle_piece_gradients(t) -> np.ndarray:
    """Affine interpolation of the stored corner values of row 0 of a
    template stack, one matrix per triangle; written without the
    closed-form factorizations."""
    out = np.empty((t.tris.shape[1], 2, 2))
    for i, tri in enumerate(t.tris[0]):
        p, v = t.points[0, tri], t.values[0, tri]
        P = np.column_stack([p[1] - p[0], p[2] - p[0]])
        V = np.column_stack([v[1] - v[0], v[2] - v[0]])
        out[i] = V @ np.linalg.inv(P)
    return out


class TestTemplate:
    def test_inner_shear_frozen(self):
        # the interface height mu = (1-lam) h, and the inner shear
        # q = kk / (mu (1 - mu)) = 1/37 with kk = g0 lam (1-lam) h^2 enters
        # the core gradient as -q (1 - mu)
        t = one_template(0.25, 0.1, 1.0)
        assert t.points[0, 4, 1] == pytest.approx(0.075)
        assert t.grads[0, 0, 0, 1] == pytest.approx(-(1 - 0.075) / 37,
                                                    rel=1e-14)

    def test_majority_fraction_formula(self):
        t = one_template(0.25, 0.1, 1.0)
        assert a_fraction(t.areas[0], 0.1) == pytest.approx(0.26875,
                                                            abs=1e-15)
        for lam in (0.1, 0.3, 0.5, 0.8):
            for h in (0.02, 0.1):
                t = one_template(lam, h, 0.7)
                assert a_fraction(t.areas[0], h) == pytest.approx(
                    lam * (1 + (1 - lam) * h), abs=1e-13)

    def test_boundary_is_identity(self):
        # the four diamond corners carry u = y; the perturbation is interior
        t = one_template(0.3, 0.05, 1.2)
        assert np.array_equal(t.values[0, :4], t.points[0, :4])

    def test_gradients_match_corner_interpolation(self):
        t = one_template(0.25, 0.1, 1.0)
        interp = oracle_piece_gradients(t)
        assert np.abs(interp - t.grads[0, cl.GRAD_INDEX]).max() < 1e-12

    def test_unimodular_pieces(self):
        t = one_template(0.4, 0.08, -0.9)
        assert np.abs(np.linalg.det(t.grads[0]) - 1.0).max() < 1e-12

    def test_partition_no_overlap_no_gap(self):
        t = one_template(0.25, 0.1, 1.0)
        assert t.areas[0].sum() == pytest.approx(2 * 0.1, rel=1e-14)
        assert (t.areas[0] > 0).all()
        sweep = an.sweep_intervals(t.points[0, t.tris[0]])
        assert not sweep.overlap_error

    def test_displacement_continuous_across_pieces(self):
        t = one_template(0.25, 0.1, 1.0)
        verts = t.points[0, t.tris[0]]
        grads = t.grads[0, cl.GRAD_INDEX]
        resid = an.continuity_residual(verts, grads, t.offs[0])
        assert resid < 1e-12

    def test_slot_bookkeeping(self):
        assert len(GRAD_NAMES) == 5
        assert cl.GRAD_INDEX.shape == (10,)
        assert (np.bincount(cl.GRAD_INDEX) == 2).all()

    def test_trivial_cells(self):
        # lam in {0, 1} or A = B: no template is built, and every slot of
        # the row holds C
        A, B, C, lam = _shear_pair()
        cells = cl._cells(cl._pairs(np.stack([A, A, B, A]),
                                    np.stack([B, B, B, B]),
                                    np.stack([B, A, B, C]),
                                    np.array([0.0, 1.0, 0.5, lam])), 0.1)
        assert cells.errors == [None] * 4
        assert cells.pairs.trivial.tolist() == [True, True, True, False]
        assert cells.templates.rows.tolist() == [0]
        for i, want in enumerate((B, A, B)):
            assert np.array_equal(cells.grads[i],
                                  np.broadcast_to(want, (5, 2, 2)))

    def test_parameter_validation(self):
        def error(lam, h, g0):
            return cl._templates(np.array([lam]), h, np.array([g0])).errors[0]
        assert type(error(-0.1, 0.1, 1.0)) is InvalidParameterError
        # h above the aspect bound
        assert type(error(0.5, 0.3, 1.0)) is InvalidParameterError
        # shear too strong
        assert type(error(0.5, 0.12, 20.0)) is AspectFailureError

    @settings(max_examples=60, deadline=None)
    @given(lam=st.floats(0.01, 0.99), h=st.floats(1e-3, 0.125),
           g0=st.floats(-2.0, 2.0))
    def test_template_fuzz(self, lam, h, g0):
        if abs(g0) < 1e-6 or h * (1 + abs(g0)) >= 0.99:
            return
        t = one_template(lam, h, g0)
        assert (t.areas[0] > 0).all()
        assert t.areas[0].sum() == pytest.approx(2 * h, rel=1e-12)
        assert np.array_equal(t.values[0, :4], t.points[0, :4])
        assert np.abs(np.linalg.det(t.grads[0]) - 1.0).max() < 1e-9


class TestRankOneFactors:
    def test_recovers_dyad(self):
        a = np.array([3.0, 4.0]) / 5.0
        n = np.array([1.0, 1.0]) / np.sqrt(2.0)
        rho, ah, nh = rank_one_factors(0.7 * np.outer(a, n))
        assert rho == pytest.approx(0.7)
        assert np.abs(rho * np.outer(ah, nh) - 0.7 * np.outer(a, n)).max() < 1e-12
        assert ah[0] >= 0

    def test_rejects_rank_two_and_zero(self):
        with pytest.raises(InvalidPairError):
            rank_one_factors(np.eye(2))
        with pytest.raises(InvalidPairError):
            rank_one_factors(np.zeros((2, 2)))


def _shear_pair(delta=0.5, lam=0.3):
    wells = mg.make_wells(delta)
    A, B = wells.F0, wells.F0inv
    C = lam * A + (1 - lam) * B
    return A, B, C, lam


def pair_plan(A, B, C, lam, h, delta=0.5):
    """The plan of the cell of (A, B) about C: _plan_from_split of the
    split whose Fplus = A sits at rho = lam < 1/2."""
    sr = mg.SplitResult(lam, A, B, 1, 0.0, 0.0, 1, 1)
    return cl._plan_from_split(C, 0, sr, h, delta, mg.make_wells(delta))


def place_one(p, center, r):
    """(verts, offs) of the pieces of one diamond of the plan p in a parent
    with u = M y."""
    verts, offs = p.place(np.array([center], dtype=float), np.array([r]),
                          np.zeros((1, 2)))
    return verts[0], offs[0]


def diamond_sides(p, center, r):
    """The four sides (4,2,2) of the diamond of p at center, scale r."""
    corners = (np.asarray(center, dtype=float)
               + r * (np.array([[0.0, 1.0], [p.h, 0.0], [0.0, -1.0],
                                [-p.h, 0.0]]) @ p.S.T))
    return np.stack([corners, np.roll(corners, -1, axis=0)], axis=1)


def vertex_displacement_sup(p, verts, offs):
    """max over piece vertices y of |u(y) - M y|; u is piecewise affine,
    so this is the sup over the diamond."""
    w = np.einsum("nij,nkj->nki", p.grads - p.M, verts) + offs[:, None]
    return float(np.hypot(w[..., 0], w[..., 1]).max())


class TestBuildCell:
    """The cell of one pair: its plan, placed by RefinePlan.place."""

    def test_boundary_trace_is_affine(self):
        A, B, C, lam = _shear_pair()
        p = pair_plan(A, B, C, lam, 0.0625)
        center, r = np.array([0.3, -0.2]), 0.05
        verts, offs = place_one(p, center, r)
        # every piece vertex on the diamond boundary carries u = Cy, and
        # the sweep finds no boundary interval off the four sides
        sides = diamond_sides(p, center, r)
        d = sides[:, 1] - sides[:, 0]
        y = verts.reshape(-1, 2)
        cross = (d[:, 0] * (y[:, None, 1] - sides[:, 0, 1])
                 - d[:, 1] * (y[:, None, 0] - sides[:, 0, 0]))
        on = (np.abs(cross) <= 1e-12 * r).any(axis=1).reshape(-1, 3)
        u = np.einsum("nij,nkj->nki", p.grads, verts) + offs[:, None]
        assert on.sum() >= 8
        assert np.abs((u - verts @ C.T)[on]).max() < 1e-10 * r
        trace, stray = an.boundary_trace_residual(verts, p.grads, offs, C,
                                                  hull_segments=sides)
        assert trace < 1e-10 * r and stray == 0.0

    def test_gradient_error_equals_lamination_distance(self):
        # every piece gradient sits near A or B; the worst distance is small
        A, B, C, lam = _shear_pair()
        p = pair_plan(A, B, C, lam, 0.0625)
        err = np.minimum(np.linalg.norm(p.grads - A, axis=(1, 2)),
                         np.linalg.norm(p.grads - B, axis=(1, 2))).max()
        assert 0 < err < 0.25 * np.linalg.norm(A - B)

    def test_area_scaling(self):
        A, B, C, lam = _shear_pair()
        p = pair_plan(A, B, C, lam, 0.05)
        verts, _ = place_one(p, (0.4, 0.1), 0.125)
        assert cov.tri_areas(verts).sum() == pytest.approx(
            2 * 0.05 * 0.125 ** 2, rel=1e-12)

    def test_displacement_sup_matches_evaluate(self):
        A, B, C, lam = _shear_pair()
        p = pair_plan(A, B, C, lam, 0.0625)
        verts, offs = place_one(p, (0.0, 0.0), 0.25)
        assert vertex_displacement_sup(p, verts, offs) == pytest.approx(
            0.25 * p.wsup_unit, rel=1e-9)

    def test_invalid_pairs(self):
        A, B, C, lam = _shear_pair()
        with pytest.raises(InvalidPairError):
            pair_plan(1.1 * A, B, C, lam, 0.05)      # det != 1
        with pytest.raises(InvalidPairError):
            pair_plan(A, B, 0.5 * A + 0.5 * B, lam, 0.05)  # wrong barycenter
        R = mg.rot(0.3)
        with pytest.raises(InvalidPairError):
            # rank(A - B) = 2 for a generic rotation pair
            pair_plan(R @ A, mg.rot(-0.3) @ B,
                      lam * R @ A + (1 - lam) * mg.rot(-0.3) @ B, lam, 0.05)

    def test_equal_matrices_give_trivial_cell(self):
        # the stack holds C in every slot of the row; as it would advance
        # nothing, the pair has no plan
        A = np.array([[1.0, 0.3], [0.0, 1.0]])
        cells = cl._cells(cl._pairs(A[None], A[None], A[None],
                                    np.array([0.5])), 0.05)
        assert cells.errors == [None] and cells.pairs.trivial[0]
        assert np.abs(cells.grads[0] - A).max() < 1e-15
        assert pair_plan(A, A, A, 0.5, 0.05) is None

    def test_trivial_split_gives_no_plan(self):
        # Fplus = Fminus = M at rho 1/2: every piece would keep M
        M = ia.stage_representative(2, 0.5)
        sr = mg.SplitResult(0.5, M, M, 1, 0.0, 0.0, 1, 1)
        assert cl._plan_from_split(M, 2, sr, 0.0625, 0.5,
                                   mg.make_wells(0.5)) is None


class TestPlans:
    def setup_method(self):
        self.delta = 0.5
        self.h0 = cl.calibrate_h0(self.delta, fracs=(0.25, 0.5, 0.75))

    def test_dyadic_plan_advances_one_stage(self):
        for k in (2, 3, 5):
            M = ia.stage_representative(k, self.delta)
            p = cl.replace_dyadic_stage(M, self.delta, self.h0)
            assert p.stage == k
            assert (p.stages == k + 1).all()
            assert set(np.unique(p.phases)) <= {1, 2}
            assert (p.areas_unit > 0).all()
            assert p.areas_unit.sum() == pytest.approx(2 * p.h, rel=1e-12)

    def test_wrong_entry_points(self):
        z0 = ia.zeta0(self.delta)
        M0 = ia.matrix_from_gaps(0.75 * z0, 0.75 * z0, self.delta, 1)
        with pytest.raises(WrongEntryPointError):
            cl.replace_dyadic_stage(M0, self.delta, self.h0)
        M2 = ia.stage_representative(2, self.delta)
        with pytest.raises(WrongEntryPointError):
            cl.replace_low_stage(M2, self.delta)

    def test_low_stage_strictly_improves(self):
        # interior with both face gaps above every band: stage 0
        z0 = ia.zeta0(self.delta)
        M = ia.matrix_from_gaps(0.75 * z0, 0.75 * z0, self.delta, 1)
        p = cl.replace_low_stage(M, self.delta)
        assert p.stage == 0
        assert (p.stages > 0).all()

    def test_low_stage_skips_a_rung_the_template_does_not_fit(self):
        # a stage-1 datum at delta = 4 whose shear is too strong for the
        # top rung: the ladder goes on to a lower one
        delta = 4.0
        z0 = ia.zeta0(delta)
        M = ia.matrix_from_gaps(0.05 * z0, 0.2 * z0, delta, 1.0)
        assert ia.classify(M, delta) == 1
        target = ia.low_stage_split_target(M, delta)
        sr = mg.split(M, target.branch, target.eps, delta)
        assert cl._plan_from_split(M, 1, sr, cl.H_MAX, delta,
                                   mg.make_wells(delta)) is None
        p = cl.replace_low_stage(M, delta)
        assert p.h == 2.0 ** -7
        assert (p.stages > 1).all()

    def placed(self, p, y0, r):
        """(verts, offsets) of the pieces the engine lays for a diamond at
        center y0, scale r: the first n_pieces children of the isosceles
        cover of the triangle that inscribes that diamond."""
        d = p.dhat
        w = 2.0 * p.h * r * np.array([-d[1], d[0]])
        m = y0 - r * d
        tri = np.stack([m + w, m - w, y0 + r * d])
        res = cov.cover_isosceles(tri, p)
        return res.verts[:p.n_pieces], res.offs[:p.n_pieces]

    def test_place_matches_direct_construction(self):
        # the template row of the plan's pair, conjugated by hand:
        # y = y0 + r S z and u(y) = M y0 + r (M S) u_tpl(z)
        M = ia.stage_representative(2, self.delta)
        p = cl.replace_dyadic_stage(M, self.delta, self.h0)
        y0 = np.array([0.37, -1.2])
        r = 0.0125
        verts, offs = self.placed(p, y0, r)
        lam, A, B = cl._cell_pair(mg.split(
            M, *ia.dyadic_split_target(2, self.delta), self.delta))
        cells = cl._cells(cl._pairs(A[None], B[None], M[None],
                                    np.array([lam])), p.h)
        t, S = cells.templates, cells.pairs.S[0]
        G = M @ S @ t.grads[0, cl.GRAD_INDEX] @ S.T
        assert np.abs(verts - (y0 + r * t.points[0, t.tris[0]] @ S.T)
                      ).max() < 1e-14
        assert np.abs(offs - (M @ y0 - G @ y0 + r * t.offs[0] @ (M @ S).T)
                      ).max() < 1e-14
        assert np.abs(p.grads - G).max() < 1e-14

    def test_placed_cell_is_watertight(self):
        M = ia.stage_representative(3, self.delta)
        p = cl.replace_dyadic_stage(M, self.delta, self.h0)
        verts, offs = self.placed(p, np.array([0.2, 0.8]), 0.01)
        sweep = an.sweep_intervals(verts)
        assert not sweep.overlap_error
        assert an.continuity_residual(verts, p.grads, offs, sweep=sweep) < 1e-12

    def test_metric_fields(self):
        M = ia.stage_representative(2, self.delta)
        p = cl.replace_dyadic_stage(M, self.delta, self.h0)
        assert 0 < p.flip_area_unit < 2 * p.h
        assert p.grad_l1_unit > 0
        assert 0 < p.wsup_unit
        assert 0 < p.w_l1_unit <= 2 * p.h * p.wsup_unit
        # pieces add interior edges on top of the diamond boundary
        assert p.perim_unit > 4 * np.sqrt(1 + p.h ** 2)
        # flip area: sum of piece areas whose phase differs from the parent
        flip = p.areas_unit[p.phases != p.parent_phase].sum()
        assert p.flip_area_unit == pytest.approx(flip, rel=1e-12)

    def test_wsup_matches_placed_cell(self):
        M = ia.stage_representative(2, self.delta)
        p = cl.replace_dyadic_stage(M, self.delta, self.h0)
        verts, offs = place_one(p, (0.0, 0.0), 0.5)
        assert vertex_displacement_sup(p, verts, offs) == pytest.approx(
            0.5 * p.wsup_unit, rel=1e-12)

    def test_gradient_error_decays_dyadically(self):
        # distance to the wells halves every two stages (one dyadic level)
        errs = []
        for k in range(2, 9):
            M = ia.stage_representative(k, self.delta)
            p = cl.replace_dyadic_stage(M, self.delta, self.h0)
            _, A, B = cl._cell_pair(mg.split(
                M, *ia.dyadic_split_target(k, self.delta), self.delta))
            errs.append(np.minimum(
                np.linalg.norm(p.grads - A, axis=(1, 2)),
                np.linalg.norm(p.grads - B, axis=(1, 2))).max())
        r = np.array(errs)
        ratios = r[2:] / r[:-2]
        assert ((0.4 < ratios) & (ratios < 0.6)).all()

    def test_deep_stage_chain(self):
        # follow one child for several stages; every hop advances by one
        M = ia.stage_representative(2, self.delta)
        for k in range(2, 7):
            p = cl.replace_dyadic_stage(M, self.delta, self.h0)
            assert p.stage == k
            M = p.grads[np.argmax(p.areas_unit)]


PLAN_NAMES = [f"stage {k}" for k in range(2, 17)] + [
    f"cli input {seed}" for seed in range(10)]


@pytest.fixture(scope="module")
def engine_plans():
    """The plans the engine builds on the benchmark's inputs, by name
    (PLAN_NAMES): the dyadic plans of the stage representatives 2..16 at
    the engine's calibrated h0, and the low-stage plans of the ten
    cli_pipeline boundary data (the plans tools/digests.py pins), at
    delta 0.5."""
    import importlib.util
    import os
    from twowell import cli
    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("workloads", path)
    wl = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(wl)
    h0 = cl.calibrate_h0(wl.DELTA, fracs=cl.CORRIDOR)
    plans = {f"stage {k}": cl.replace_dyadic_stage(
        ia.stage_representative(k, wl.DELTA), wl.DELTA, h0)
        for k in range(2, 17)}
    for seed in range(wl.N_INPUTS):
        M = cli.parse_boundary(wl.make_input("cli_pipeline", seed), wl.DELTA)
        plans[f"cli input {seed}"] = cl.replace_low_stage(M, wl.DELTA)
    assert list(plans) == PLAN_NAMES
    return plans


def shared_edge(u, i, k):
    """(j, l): the edges of pieces i and k of the pieces u with the same two
    endpoints, bit for bit, in opposite order; None if they share none."""
    for j, l in itertools.product(range(3), range(3)):
        if (u[i, j].tobytes() == u[k, (l + 1) % 3].tobytes()
                and u[i, (j + 1) % 3].tobytes() == u[k, l].tobytes()):
            return j, l
    return None


class TestPlanTwins:
    """A plan's twins are the interior edges its pieces share exactly."""

    @pytest.mark.parametrize("name", PLAN_NAMES)
    def test_twins_are_the_shared_intervals(self, name, engine_plans):
        # the two-owner intervals of the unit sweep whose owners share
        # both endpoints bit for bit, one row per pair; no edge has two
        u = engine_plans[name].unit_verts
        sw = an.sweep_intervals(u)
        want = set()
        for lo, ro in zip(sw.left_owner, sw.right_owner):
            i, k = sorted((int(lo), int(ro)))
            edge = shared_edge(u, i, k) if i >= 0 else None
            if edge is not None:
                want.add((i, edge[0], k, edge[1]))
        twins = engine_plans[name].twins
        assert {tuple(map(int, row)) for row in twins} == want
        assert len(want) == twins.shape[0] > 0
        edges = [(i, j) for i, j, _, _ in twins] + [
            (k, l) for _, _, k, l in twins]
        assert len(set(edges)) == len(edges)

    def test_nudged_vertex_drops_its_twins(self, engine_plans):
        # one piece's copy of a vertex moved by an ulp: exactly the twins
        # of that piece's two edges through it are gone
        plan = engine_plans["stage 2"]
        full = {tuple(map(int, row)) for row in plan.twins}
        for i, c in itertools.product(range(plan.n_pieces), range(3)):
            u = plan.unit_verts.copy()
            u[i, c, 0] = np.nextafter(u[i, c, 0], np.inf)
            through = {(i, c), (i, (c - 1) % 3)}
            want = {row for row in full if (row[0], row[1]) not in through
                    and (row[2], row[3]) not in through}
            got = {tuple(map(int, row)) for row in cl.plan_twins(u)}
            assert got == want, (i, c)
        assert len(full) == 13


class TestCalibration:
    def test_frozen_values(self):
        corridor = (0.25, 0.5, 0.75)
        assert cl.calibrate_h0(0.5, fracs=corridor) == 1 / 32
        assert cl.calibrate_h0(1.0, fracs=corridor) == 1 / 32
        assert cl.calibrate_h0(0.25, fracs=corridor) == 1 / 64
        # band-edge entries need one more halving
        assert cl.calibrate_h0(0.5) == 1 / 64

    def test_large_delta_skips_rungs_the_template_does_not_fit(self):
        # the top rung's shear bound fails at delta >= 4
        corridor = (0.25, 0.5, 0.75)
        assert cl.calibrate_h0(4.0, fracs=corridor) == 1 / 64
        assert cl.calibrate_h0(8.0, fracs=corridor) == 1 / 128

    def test_cache_hit_is_fast(self):
        import time
        cl.calibrate_h0(0.5, fracs=(0.25, 0.5, 0.75))
        t0 = time.time()
        for _ in range(100):
            cl.calibrate_h0(0.5, fracs=(0.25, 0.5, 0.75))
        assert time.time() - t0 < 0.05


CORRIDOR = (0.25, 0.5, 0.75)
DEFAULT_FRACS = (0.02, 0.5, 0.98)
# delta -> log2 of the calibrated aspect, corridor | default fractions
ASPECT_TABLE = {0.01: (-10, -11), 0.05: (-8, -8), 0.1: (-7, -7),
                0.25: (-6, -6), 0.5: (-5, -6), 1.0: (-5, -5), 2.0: (-5, -6),
                4.0: (-6, -6), 6.0: (-6, -7), 8.0: (-7, -7), 10.0: (-7, -7)}
INTERP = "piece 0: closed-form gradient disagrees with corner interpolation by "
REFUSALS = [(CORRIDOR, 16.0, INTERP + "1.63e-09"),
            (CORRIDOR, 32.0, INTERP + "1.56e-09"),
            (DEFAULT_FRACS, 12.0, INTERP + "1.57e-09"),
            (DEFAULT_FRACS, 32.0, INTERP + "1.06e-09")]


@pytest.fixture
def cold_cache(monkeypatch):
    monkeypatch.setattr(cl, "_H0_CACHE", {})


class TestCalibrationTable:
    @pytest.mark.parametrize("delta", sorted(ASPECT_TABLE))
    @pytest.mark.parametrize("side", [0, 1])
    def test_aspect(self, cold_cache, delta, side):
        fracs = (CORRIDOR, DEFAULT_FRACS)[side]
        assert cl.calibrate_h0(delta, fracs=fracs) == \
            2.0 ** ASPECT_TABLE[delta][side]

    def test_the_other_two_large_deltas_calibrate(self, cold_cache):
        assert cl.calibrate_h0(12.0, fracs=CORRIDOR) == 2.0 ** -7
        assert cl.calibrate_h0(16.0, fracs=DEFAULT_FRACS) == 2.0 ** -8

    @pytest.mark.parametrize("fracs, delta, message", REFUSALS)
    def test_refusal(self, cold_cache, fracs, delta, message):
        with pytest.raises(ConstructionFailureError) as info:
            cl.calibrate_h0(delta, fracs=fracs)
        assert type(info.value) is ConstructionFailureError
        assert str(info.value) == message


def stress_grid(delta, fracs):
    """calibrate_h0's grid, (stage, matrix) in grid order, one at a time."""
    grid = []
    for k in cl.CALIBRATION_STAGES:
        (lo1, hi1), (lo2, hi2) = ia.stage_band(k, delta)
        grid += [(k, ia.matrix_from_gaps(lo1 + f1 * (hi1 - lo1),
                                         lo2 + f2 * (hi2 - lo2), delta, s))
                 for f1, f2, s in itertools.product(fracs, fracs, (1.0, -1.0))]
    return grid


def calibrate_one_at_a_time(delta, fracs):
    """The reference search: every grid matrix's dyadic plan on its own,
    rung by rung, stopping at the first one that is None."""
    wells = mg.make_wells(delta)
    grid = stress_grid(delta, fracs)
    for h in cl._aspects():
        if all(cl._dyadic_plan(F, k, h, delta, wells) is not None
               for k, F in grid):
            return h
    raise ConstructionFailureError("no aspect")


def _perturb_last_template(monkeypatch, when=lambda h: True):
    """Scale the (0, 0) entry of the core gradient of the last template of
    every stack built at an aspect h with when(h) by 1 + 1e-8."""
    closed_form = cl._template_grads

    def perturbed(lam, h, g0, mu_g, q):
        grads = closed_form(lam, h, g0, mu_g, q)
        if when(h) and grads.shape[0]:
            grads[-1, 0, 0, 0] *= 1.0 + 1e-8
        return grads

    monkeypatch.setattr(cl, "_template_grads", perturbed)


class TestArrayChecks:
    @pytest.mark.parametrize("delta", [0.5, 8.0])
    def test_perturbed_gradient_fails_the_stack(self, cold_cache,
                                                monkeypatch, delta):
        _perturb_last_template(monkeypatch)
        with pytest.raises(ConstructionFailureError,
                           match="closed-form gradient disagrees"):
            cl.calibrate_h0(delta, fracs=CORRIDOR)

    @pytest.mark.parametrize("delta", [0.5, 8.0])
    def test_perturbed_gradient_fails_one_plan(self, monkeypatch, delta):
        h0 = cl.calibrate_h0(delta, fracs=CORRIDOR)
        _perturb_last_template(monkeypatch)
        M = ia.stage_representative(2, delta)
        with pytest.raises(ConstructionFailureError,
                           match="closed-form gradient disagrees"):
            cl.replace_dyadic_stage(M, delta, h0)

    def test_first_failure_decides_the_rung(self, cold_cache, monkeypatch):
        # at delta 8 and h = 1/16 the first grid matrix does not fit; a
        # later template that fails its checks there is not looked at
        delta, h = 8.0, 2.0 ** -4
        _perturb_last_template(monkeypatch, when=lambda a: a == h)
        stacks = []
        cells = cl._cells

        def traced(pairs, a):
            out = cells(pairs, a)
            stacks.append((a, out))
            return out

        monkeypatch.setattr(cl, "_cells", traced)
        assert cl.calibrate_h0(delta, fracs=CORRIDOR) == 2.0 ** -7
        errors = dict(stacks)[h].errors
        assert isinstance(errors[0], AspectFailureError)
        raised = [e for e in errors
                  if type(e) is ConstructionFailureError]
        assert raised and "closed-form gradient" in str(raised[0])


class TestStackedConstruction:
    @pytest.mark.parametrize("delta", [8.0, 16.0])
    def test_calibration_equals_the_one_at_a_time_search(self, cold_cache,
                                                         delta):
        try:
            want = calibrate_one_at_a_time(delta, CORRIDOR)
        except ConstructionFailureError as err:
            with pytest.raises(ConstructionFailureError) as info:
                cl.calibrate_h0(delta, fracs=CORRIDOR)
            assert str(info.value) == str(err)
        else:
            assert cl.calibrate_h0(delta, fracs=CORRIDOR) == want

    def test_stack_rows_equal_one_row_builds(self, assert_same_rows):
        # at delta 8 and h = 1/16 the grid mixes rows that do not fit with
        # rows that build; each row is what the construction on that row
        # alone gives, bit for bit, and so is a built row's plan
        delta, h = 8.0, 2.0 ** -4
        grid = stress_grid(delta, CORRIDOR)
        splits = [mg.split(F, *ia.dyadic_split_target(k, delta), delta)
                  for k, F in grid]
        lam, A, B = (np.array(x) for x in zip(*map(cl._cell_pair, splits)))
        C = np.stack([F for _, F in grid])
        cells = cl._cells(cl._pairs(A, B, C, lam), h)

        def one_row(i):
            row = cl._cells(cl._pairs(A[i:i + 1], B[i:i + 1], C[i:i + 1],
                                      lam[i:i + 1]), h)
            raise_first(row.errors)
            return (row.grads[0],)

        assert_same_rows(cells.errors, lambda i: (cells.grads[i],),
                         [lambda i=i: one_row(i) for i in range(len(grid))])
        wells = mg.make_wells(delta)
        for i in np.flatnonzero(clean(cells.errors)):
            k, F = grid[i]
            plan = cl._plan_from_split(F, k, splits[i], h, delta, wells)
            assert (plan.grads.tobytes()
                    == cells.grads[i][cl.GRAD_INDEX].tobytes())


class TestVerifySweep:
    def test_random_pairs_exact(self):
        rep = cl.verify_cells(0.5, samples=150, seed=2)
        assert rep.ok
        assert rep.max_partition_err < 1e-12
        assert rep.max_trace_err < 1e-10
        assert rep.max_det_err < 1e-10
        assert rep.max_fraction_err < 1e-12

    def test_moved_boundary_offset_fails(self, monkeypatch):
        # piece 6, the NE corrector, holds a side of the diamond: moving
        # its offset by 1e-8 r moves the trace by 1e-8 of the scale
        place = cl.RefinePlan.place

        def moved(self, centers, r, off):
            verts, offs = place(self, centers, r, off)
            offs[:, 6] += 1e-8 * r[:, None]
            return verts, offs

        monkeypatch.setattr(cl.RefinePlan, "place", moved)
        rep = cl.verify_cells(0.5, samples=20, seed=2)
        assert rep.failures == 20
        assert 0.5e-8 < rep.max_trace_err < 2e-8
