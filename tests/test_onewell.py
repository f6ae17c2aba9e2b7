"""Diagonal pair: hull membership, witness inequalities, rigidity checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twowell import engine as en
from twowell import matgeo as mg
from twowell import onewell as ow
from twowell.errors import InvalidParameterError, WrongEntryPointError

from oracles import connection_scan


class TestWells:
    def test_rank_one_difference(self):
        w = ow.make_diagonal_wells(0.5)
        e2 = np.array([0.0, 1.0])
        assert np.array_equal(w.F2, w.F1 - 2 * 0.5 * np.outer(e2, e2))
        assert np.array_equal(w.F1, np.diag([1.0, 1.5]))

    def test_negative_delta_allowed(self):
        w = ow.make_diagonal_wells(-0.25)
        assert w.F1[1, 1] == 0.75

    @pytest.mark.parametrize("bad", [0.0, 1.0, -1.0, 1.5, -2.0])
    def test_invalid_delta(self, bad):
        with pytest.raises(InvalidParameterError):
            ow.make_diagonal_wells(bad)


class TestHullMembership:
    def test_identity_is_midpoint(self):
        member, lam, Q = ow.lc_membership(np.eye(2), 0.5)
        assert member
        assert lam == pytest.approx(0.5, abs=1e-14)
        assert np.allclose(Q, np.eye(2), atol=1e-14)

    def test_known_stretch(self):
        # independent oracle: 1 - delta + 2 lam delta = 1.2 at delta = 0.5
        # solves to lam = 0.7
        rng = np.random.default_rng(7)
        Q = mg.rot(rng.uniform(0.0, 2.0 * math.pi))
        member, lam, Qr = ow.lc_membership(Q @ np.diag([1.0, 1.2]), 0.5)
        assert member
        assert lam == pytest.approx(0.7, abs=1e-12)
        assert np.allclose(Qr, Q, atol=1e-12)

    def test_shear_is_outside(self):
        member, _, _ = ow.lc_membership(np.array([[1.0, 0.1], [0.0, 1.0]]),
                                        0.5)
        assert not member

    def test_reflection_is_outside(self):
        # C = Id but orientation reversed
        member, _, _ = ow.lc_membership(np.diag([1.0, -1.0]), 0.5)
        assert not member

    def test_overlong_axis_is_outside(self):
        member, _, _ = ow.lc_membership(np.diag([1.0, 1.8]), 0.5)
        assert not member

    def test_scaled_identity_is_outside(self):
        member, _, _ = ow.lc_membership(1.1 * np.eye(2), 0.5)
        assert not member

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        for delta in (0.25, 0.5, -0.4):
            for _ in range(2500):
                lam = rng.uniform(0.0, 1.0)
                Q = mg.rot(rng.uniform(0.0, 2.0 * math.pi))
                F = ow.hull_point(lam, Q, delta)
                member, lam_r, Qr = ow.lc_membership(F, delta)
                assert member
                assert lam_r == pytest.approx(lam, abs=1e-9)
                assert np.abs(Qr - Q).max() < 1e-9

    def test_endpoints_hit_wells(self):
        w = ow.make_diagonal_wells(0.5)
        for lam, well in ((0.0, w.F2), (1.0, w.F1)):
            F = ow.hull_point(lam, mg.rot(1.3), 0.5)
            assert mg.rotation_distance_sq(F, well) < 1e-14

    def test_representation_unique(self):
        # the b axis is injective in lam, so a recovered pair is the only one
        F = ow.hull_point(0.3, mg.rot(0.9), 0.5)
        _, lam, Q = ow.lc_membership(F, 0.5)
        assert np.abs(ow.hull_point(lam, Q, 0.5) - F).max() < 1e-12
        for off in (1e-3, -1e-3):
            G = ow.hull_point(lam + off, Q, 0.5)
            assert np.abs(G - F).max() > 1e-4


class TestWitness:
    def test_continuous_at_seam(self):
        delta = 0.5
        d = 1.0 - delta
        upper = 1.0 / d
        lower = -d / (1.0 - delta) ** 2 + 2.0 / (1.0 - delta)
        assert upper == pytest.approx(lower, rel=1e-15)
        F = np.diag([1.0, d])
        assert ow.polyconvex_witness(F, delta) == pytest.approx(1.0 / d)

    def test_direct_value(self):
        assert ow.polyconvex_witness(np.diag([1.0, 1.1]), 0.5) \
            == pytest.approx(1.0 / 1.1, rel=1e-15)

    def test_capped_on_wells(self):
        delta = 0.5
        w = ow.make_diagonal_wells(delta)
        cap = 1.0 / (1.0 - delta)
        assert ow.polyconvex_witness(w.F2, delta) == pytest.approx(cap)
        assert ow.polyconvex_witness(w.F1, delta) <= cap

    def test_rotation_invariant(self):
        F = mg.rot(0.7) @ np.diag([1.0, 0.3])
        assert ow.polyconvex_witness(F, 0.5) == pytest.approx(
            ow.polyconvex_witness(np.diag([1.0, 0.3]), 0.5), rel=1e-12)

    def test_midpoint_convex_in_det(self):
        # f depends on F only through det, so convexity reduces to 1d
        rng = np.random.default_rng(11)
        delta = 0.5
        d1 = rng.uniform(0.05, 3.0, 10_000)
        d2 = rng.uniform(0.05, 3.0, 10_000)
        f = lambda d: ow.polyconvex_witness(np.diag([1.0, d]), delta)
        for a, b in zip(d1, d2):
            mid = f(0.5 * (a + b))
            assert mid <= 0.5 * (f(a) + f(b)) + 1e-12

    @given(st.floats(0.05, 0.95), st.floats(-4.0, 4.0), st.floats(-4.0, 4.0),
           st.floats(-4.0, 4.0), st.floats(-4.0, 4.0))
    @settings(max_examples=200, deadline=None)
    def test_total_and_finite(self, delta, a, b, c, d):
        val = ow.polyconvex_witness(np.array([[a, b], [c, d]]), delta)
        assert np.isfinite(val) or abs(a * d - b * c) < 1e-12


class TestConnectionScan:
    def test_det_formula(self):
        # hand derivation: det(F1 - R(t) F2) = 2(1 - cos t) for every delta
        for delta in (0.25, 0.5, 0.9):
            scan = connection_scan(delta, n=720)
            oracle = 2.0 * (1.0 - np.cos(scan["thetas"]))
            assert np.abs(scan["dets"] - oracle).max() < 1e-12

    def test_identity_is_only_connection(self):
        scan = connection_scan(0.5, n=1440)
        smin = scan["sigma_min"]
        assert smin[0] < 1e-12          # theta = 0: rank one exactly
        assert smin[1:].min() > 1e-7    # every other grid rotation: rank two

    def test_rank_one_direction_at_identity(self):
        w = ow.make_diagonal_wells(0.5)
        D = w.F1 - w.F2
        u, s, vt = np.linalg.svd(D)
        assert s[1] < 1e-14
        assert abs(u[0, 0]) < 1e-14     # a parallel to e2
        assert abs(vt[0, 0]) < 1e-14    # n parallel to e2


class TestQcBounds:
    @pytest.mark.parametrize("delta", [0.25, 0.5])
    def test_zero_violations(self, delta):
        rep = ow.verify_qc_bounds(delta, samples=100_000, seed=0)
        assert rep.ok
        assert rep.violations == 0
        assert rep.laminate_failures == 0
        assert rep.sup_col1 == pytest.approx(1.0, abs=1e-12)
        assert rep.sup_det <= 1.0 + delta + 1e-12
        assert rep.inf_det >= 1.0 - delta - 1e-12
        cap = 1.0 / (1.0 - delta)
        assert rep.sup_witness <= cap + 1e-9
        assert rep.sup_witness > cap - 1e-3     # attained near lam = 0
        assert rep.max_isometry_defect < 1e-12

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameterError):
            ow.verify_qc_bounds(0.5, samples=0)
        with pytest.raises(InvalidParameterError):
            ow.verify_qc_bounds(-0.25, samples=10)

    def test_engine_refuses_diagonal_pair(self):
        wells = ow.make_diagonal_wells(0.5)
        with pytest.raises(WrongEntryPointError) as err:
            en.Engine(en.unit_square_domain(), np.eye(2), 0.5,
                      wells=wells)
        assert "DiagonalWellPair" in str(err.value)
