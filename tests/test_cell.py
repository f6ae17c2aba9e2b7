"""Replacement cells: template geometry, placement, stage-driven plans."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import twowell.cell as cl
from twowell import analysis as an
from twowell import covering as cov
from twowell import inapprox as ia
from twowell import matgeo as mg
from twowell.errors import (ConstructionFailureError, InvalidPairError,
                            InvalidParameterError, WrongEntryPointError)


def oracle_piece_gradients(tpl: cl.CellTemplate) -> np.ndarray:
    """Affine interpolation of the stored corner values, one matrix per
    triangle; written without the closed-form factorizations."""
    out = np.empty((tpl.tris.shape[0], 2, 2))
    for i, t in enumerate(tpl.tris):
        p, v = tpl.points[t], tpl.values[t]
        P = np.column_stack([p[1] - p[0], p[2] - p[0]])
        V = np.column_stack([v[1] - v[0], v[2] - v[0]])
        out[i] = V @ np.linalg.inv(P)
    return out


class TestTemplate:
    def test_inner_shear_frozen(self):
        # kk / (mu (1 - mu)) with kk = g0 lam (1-lam) h^2, mu = (1-lam) h
        tpl = cl.build_template(0.25, 0.1, 1.0)
        assert tpl.q == pytest.approx(1 / 37, rel=1e-14)
        assert tpl.mu_geom == pytest.approx(0.075)

    def test_majority_fraction_formula(self):
        tpl = cl.build_template(0.25, 0.1, 1.0)
        assert tpl.a_fraction() == pytest.approx(0.26875, abs=1e-15)
        for lam in (0.1, 0.3, 0.5, 0.8):
            for h in (0.02, 0.1):
                tpl = cl.build_template(lam, h, 0.7)
                assert tpl.a_fraction() == pytest.approx(
                    lam * (1 + (1 - lam) * h), abs=1e-13)

    def test_boundary_is_identity(self):
        # the four diamond corners carry u = y; the perturbation is interior
        tpl = cl.build_template(0.3, 0.05, 1.2)
        assert np.array_equal(tpl.values[:4], tpl.points[:4])

    def test_gradients_match_corner_interpolation(self):
        tpl = cl.build_template(0.25, 0.1, 1.0)
        interp = oracle_piece_gradients(tpl)
        assert np.abs(interp - tpl.grads[cl.GRAD_INDEX]).max() < 1e-12

    def test_unimodular_pieces(self):
        tpl = cl.build_template(0.4, 0.08, -0.9)
        assert np.abs(np.linalg.det(tpl.grads) - 1.0).max() < 1e-12

    def test_partition_no_overlap_no_gap(self):
        tpl = cl.build_template(0.25, 0.1, 1.0)
        assert tpl.areas.sum() == pytest.approx(tpl.area, rel=1e-14)
        assert (tpl.areas > 0).all()
        sweep = an.sweep_intervals(tpl.points[tpl.tris])
        assert not sweep.overlap_error

    def test_displacement_continuous_across_pieces(self):
        tpl = cl.build_template(0.25, 0.1, 1.0)
        verts = tpl.points[tpl.tris]
        grads = tpl.grads[cl.GRAD_INDEX]
        resid = an.continuity_residual(verts, grads, tpl.offs)
        assert resid < 1e-12

    def test_slot_bookkeeping(self):
        assert len(cl.GRAD_NAMES) == 5
        assert cl.GRAD_INDEX.shape == (10,)
        assert (np.bincount(cl.GRAD_INDEX) == 2).all()

    def test_trivial_cells(self):
        for lam, g0 in ((0.0, 1.0), (1.0, 1.0), (0.5, 0.0)):
            tpl = cl.build_template(lam, 0.1, g0)
            assert tpl.trivial
            assert tpl.tris.shape[0] == 2
            assert tpl.areas.sum() == pytest.approx(0.2)

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameterError):
            cl.build_template(-0.1, 0.1, 1.0)
        with pytest.raises(InvalidParameterError):
            cl.build_template(0.5, 0.3, 1.0)   # h above the aspect bound
        with pytest.raises(ConstructionFailureError):
            cl.build_template(0.5, 0.12, 20.0)  # shear too strong

    @settings(max_examples=60, deadline=None)
    @given(lam=st.floats(0.01, 0.99), h=st.floats(1e-3, 0.125),
           g0=st.floats(-2.0, 2.0))
    def test_template_fuzz(self, lam, h, g0):
        if abs(g0) < 1e-6 or h * (1 + abs(g0)) >= 0.99:
            return
        tpl = cl.build_template(lam, h, g0)
        assert (tpl.areas > 0).all()
        assert tpl.areas.sum() == pytest.approx(2 * h, rel=1e-12)
        assert np.array_equal(tpl.values[:4], tpl.points[:4])
        assert np.abs(np.linalg.det(tpl.grads) - 1.0).max() < 1e-9


class TestRankOneFactors:
    def test_recovers_dyad(self):
        a = np.array([3.0, 4.0]) / 5.0
        n = np.array([1.0, 1.0]) / np.sqrt(2.0)
        rho, ah, nh = cl.rank_one_factors(0.7 * np.outer(a, n))
        assert rho == pytest.approx(0.7)
        assert np.abs(rho * np.outer(ah, nh) - 0.7 * np.outer(a, n)).max() < 1e-12
        assert ah[0] >= 0

    def test_rejects_rank_two_and_zero(self):
        with pytest.raises(InvalidPairError):
            cl.rank_one_factors(np.eye(2))
        with pytest.raises(InvalidPairError):
            cl.rank_one_factors(np.zeros((2, 2)))


def _shear_pair(delta=0.5, lam=0.3):
    wells = mg.make_wells(delta)
    A, B = wells.F0, wells.F0inv
    C = lam * A + (1 - lam) * B
    return A, B, C, lam


class TestBuildCell:
    def test_boundary_trace_is_affine(self):
        A, B, C, lam = _shear_pair()
        cc = cl.build_cell(A, B, C, lam, 0.0625,
                           center=(0.3, -0.2), scale=0.05)
        ts = np.linspace(0.0, 4.0, 257, endpoint=False)
        pts, vals = cc.boundary_values(ts)
        want = pts @ C.T
        assert np.abs(vals - want).max() < 1e-10 * cc.scale

    def test_gradient_error_equals_lamination_distance(self):
        # every piece gradient sits near A or B; the worst distance is small
        A, B, C, lam = _shear_pair()
        cc = cl.build_cell(A, B, C, lam, 0.0625)
        err = cc.gradient_error()
        assert 0 < err < 0.25 * np.linalg.norm(A - B)

    def test_area_scaling(self):
        A, B, C, lam = _shear_pair()
        cc = cl.build_cell(A, B, C, lam, 0.05, scale=0.125)
        assert cc.area == pytest.approx(2 * 0.05 * 0.125 ** 2)
        assert cc.areas.sum() == pytest.approx(cc.area, rel=1e-12)

    def test_displacement_sup_matches_evaluate(self):
        A, B, C, lam = _shear_pair()
        cc = cl.build_cell(A, B, C, lam, 0.0625, scale=0.25)
        # sup of |u - Cy| over piece corners; u is piecewise affine so the
        # sup over the diamond is attained at a vertex
        worst = 0.0
        for tri, gi, off in zip(cc.tris, cc.gidx, cc.offsets):
            for y in tri:
                w = cc.grads[gi] @ y + off - C @ y
                worst = max(worst, float(np.hypot(*w)))
        assert cc.displacement_sup() == pytest.approx(worst, rel=1e-9)

    def test_invalid_pairs(self):
        A, B, C, lam = _shear_pair()
        with pytest.raises(InvalidPairError):
            cl.build_cell(1.1 * A, B, C, lam, 0.05)      # det != 1
        with pytest.raises(InvalidPairError):
            cl.build_cell(A, B, 0.5 * A + 0.5 * B, lam, 0.05)  # wrong barycenter
        R = mg.rot(0.3)
        with pytest.raises(InvalidPairError):
            # rank(A - B) = 2 for a generic rotation pair
            cl.build_cell(R @ A, mg.rot(-0.3) @ B,
                          lam * R @ A + (1 - lam) * mg.rot(-0.3) @ B, lam, 0.05)

    def test_equal_matrices_give_trivial_cell(self):
        A = np.array([[1.0, 0.3], [0.0, 1.0]])
        cc = cl.build_cell(A, A, A, 0.5, 0.05)
        assert cc.template.trivial
        assert np.abs(cc.grads - A).max() < 1e-15


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
        M = ia.stage_representative(2, self.delta)
        p = cl.replace_dyadic_stage(M, self.delta, self.h0)
        y0 = np.array([0.37, -1.2])
        r = 0.0125
        verts, offs = self.placed(p, y0, r)
        cc = cl.build_cell(p.A_cell, p.B_cell, M, p.lam_cell, p.h,
                           center=y0, scale=r)
        assert np.abs(verts - cc.tris).max() < 1e-14
        assert np.abs(offs - cc.offsets).max() < 1e-14
        assert np.abs(p.grads - cc.grads[cc.gidx]).max() < 1e-14

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
        cc = cl.build_cell(p.A_cell, p.B_cell, M, p.lam_cell, p.h, scale=0.5)
        assert cc.displacement_sup() == pytest.approx(0.5 * p.wsup_unit,
                                                      rel=1e-12)

    def test_gradient_error_decays_dyadically(self):
        # distance to the wells halves every two stages (one dyadic level)
        errs = []
        for k in range(2, 9):
            M = ia.stage_representative(k, self.delta)
            errs.append(cl.replace_dyadic_stage(M, self.delta, self.h0)
                        .gradient_error)
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


class TestVerifySweep:
    def test_random_pairs_exact(self):
        rep = cl.verify_cells(0.5, samples=150, seed=2)
        assert rep.ok
        assert rep.max_partition_err < 1e-12
        assert rep.max_trace_err < 1e-10
        assert rep.max_det_err < 1e-10
        assert rep.max_fraction_err < 1e-12
