"""Well geometry and splitting: frozen oracles and property tests.

Oracle values in this file were computed independently of the library
(brute-force rotation grids, direct matrix arithmetic) and then frozen.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twowell import inapprox as ia
from twowell import matgeo as mg
from twowell.errors import (
    InvalidParameterError,
    NotAttainableError,
    DegenerateCoordinatesError,
    NotSplittableError,
    InvalidTargetError,
)

from oracles import (coords_to_matrix, dist_to_wells, gap_coefficient,
                     lipschitz_bound_constant, tilde_frame, well_distance,
                     well_distance_sq)

DELTAS = (0.25, 0.5, 1.0)


def brute_rotation_dist_sq(F, G, n=200_000):
    """Independent oracle: minimize |F - R G| over a fine rotation grid."""
    ang = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    c, s = np.cos(ang), np.sin(ang)
    R = np.empty((n, 2, 2))
    R[:, 0, 0] = c
    R[:, 0, 1] = -s
    R[:, 1, 0] = s
    R[:, 1, 1] = c
    D = F[None] - R @ G[None]
    return float(np.min(np.einsum("nij,nij->n", D, D)))


class TestWells:
    def test_make_wells_shapes(self):
        w = mg.make_wells(0.5)
        assert np.allclose(w.F0, [[1, 0.5], [0, 1]])
        assert np.allclose(w.F0inv, [[1, -0.5], [0, 1]])
        assert np.allclose(w.F0 @ w.F0inv, np.eye(2))

    def test_tilde_frame(self):
        # normal form D Q F0 = [[1,0],[dbar,1]] with dbar = d/(1+d^2)
        dbar, tilde_plus, tilde_minus = tilde_frame(0.5)
        assert dbar == pytest.approx(0.4, abs=1e-15)
        assert np.allclose(tilde_plus, [[1, 0], [0.4, 1]], atol=1e-14)
        assert np.allclose(tilde_minus, [[1, 0], [-0.4, 1]], atol=1e-14)

    def test_separation_frozen(self):
        # frozen: 4 + 2 d^2 - 2 sqrt(d^4 + 4)
        assert well_distance_sq(0.5) == pytest.approx(0.46887112585072464, abs=1e-13)
        assert well_distance_sq(1.0) == pytest.approx(6 - 2 * math.sqrt(5), abs=1e-13)

    def test_separation_vs_brute_force(self):
        for d in DELTAS:
            w = mg.make_wells(d)
            brute = brute_rotation_dist_sq(w.F0, w.F0inv)
            assert well_distance_sq(d) == pytest.approx(brute, abs=1e-8)

    def test_bad_delta(self):
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(InvalidParameterError):
                mg.make_wells(bad)

    def test_rotation_distance_closed_form(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            F = rng.normal(size=(2, 2))
            G = rng.normal(size=(2, 2))
            assert mg.rotation_distance_sq(F, G) == pytest.approx(
                brute_rotation_dist_sq(F, G), abs=1e-7)

    def test_dist_to_wells_phase(self):
        # cancellation in the closed form caps near-zero accuracy at ~1e-8
        w = mg.make_wells(0.5)
        d, phase = dist_to_wells(mg.rot(0.3) @ w.F0, w)
        assert d == pytest.approx(0.0, abs=1e-7) and phase == 1
        d, phase = dist_to_wells(mg.rot(-1.1) @ w.F0inv, w)
        assert d == pytest.approx(0.0, abs=1e-7) and phase == 2
        batch = mg.dist_to_wells_b(np.stack([w.F0, w.F0inv]), w)
        assert batch[0, 0] == pytest.approx(0.0, abs=1e-7)
        assert batch[1, 0] == pytest.approx(well_distance(0.5), abs=1e-12)


    def test_phase_ties_go_to_phase_one(self):
        # F = Id is equidistant from both wells
        w = mg.make_wells(0.5)
        d = mg.dist_to_wells_b(np.eye(2)[None], w)[0]
        assert d[0] == d[1]
        assert mg.phases(np.eye(2)[None], w).tolist() == [1]
        assert dist_to_wells(np.eye(2), w)[1] == 1
        got = mg.phases(np.stack([w.F0, np.eye(2), w.F0inv]), w)
        assert got.dtype == np.uint8 and got.tolist() == [1, 1, 2]


class TestRankOneFrame:
    def test_endpoints(self):
        # branch 1 runs F0 -> F0inv, branch 2 runs F0 -> (rotation) F0inv
        for d in DELTAS:
            w = mg.make_wells(d)
            assert np.allclose(mg.base_matrix(1, 0.0, d), w.F0)
            assert np.allclose(mg.base_matrix(1, 1.0, d), w.F0inv)
            assert np.allclose(mg.base_matrix(2, 0.0, d), w.F0)
            A21 = mg.base_matrix(2, 1.0, d)
            R = A21 @ np.linalg.inv(w.F0inv)
            assert mg.is_rotation(R, 1e-12)

    def test_identity_residuals(self):
        for d in DELTAS:
            res = mg.verify_identities(d, samples=3000, seed=11)
            for key, val in res.items():
                assert val < 1e-10, (d, key, val)

    def test_connection_between_wells(self):
        # frozen identity: R F0inv = F0 - (2d/(1+d^2)) (d e1 + e2) (x) e1
        d = 0.5
        s = 1 + d * d
        Q, _, _, _ = mg.rank_one_params(1, 1.0, d)
        lhs = Q.T @ np.array([[1, -d], [0, 1.0]])
        rhs = np.array([[1, d], [0, 1.0]]) - (2 * d / s) * np.outer([d, 1.0], [1, 0.0])
        assert np.abs(lhs - rhs).max() < 1e-14

    def test_gamma_frozen(self):
        # gamma(lam=1, branch1) = 2d/(1+d^2) = 2 dbar
        for d in DELTAS:
            _, _, _, g = mg.rank_one_params(1, 1.0, d)
            assert g == pytest.approx(2 * d / (1 + d * d), abs=1e-15)

    @given(branch=st.sampled_from([1, 2]),
           lam=st.floats(0.0, 1.0),
           delta=st.floats(0.1, 1.5))
    @settings(max_examples=60, deadline=None)
    def test_rank_one_identity_property(self, branch, lam, delta):
        Q, w, u, _ = mg.rank_one_params(branch, lam, delta)
        lhs = Q @ mg.base_matrix(branch, 1.0 - lam, delta)
        rhs = mg.base_matrix(branch, lam, delta) + np.outer(w, u)
        assert np.abs(lhs - rhs).max() < 1e-12
        assert mg.is_rotation(Q, 1e-12)


class TestArrayArguments:
    @pytest.mark.parametrize("branch", [1, 2])
    def test_arrays_equal_stacked_scalar_calls(self, branch):
        # every closed form called with arrays of lam/mu returns the
        # stacked results of the scalar calls, bit for bit
        rng = np.random.default_rng(branch)
        lams = rng.uniform(0.0, 1.0, 1000)
        mus = rng.uniform(0.0, 1.0, 1000)
        d = 0.5
        Q, w, u, g = mg.rank_one_params(branch, lams, d)
        scalar = [mg.rank_one_params(branch, lam, d) for lam in lams]
        assert np.array_equal(Q, np.stack([s[0] for s in scalar]))
        assert np.array_equal(w, np.stack([s[1] for s in scalar]))
        assert all(np.array_equal(u, s[2]) for s in scalar)
        assert np.array_equal(g, np.array([s[3] for s in scalar]))
        assert np.array_equal(mg.base_matrix(branch, lams, d), np.stack(
            [mg.base_matrix(branch, lam, d) for lam in lams]))
        for form in (mg.laminate_matrix, mg.laminate_gram):
            assert np.array_equal(form(branch, mus, lams, d), np.stack(
                [form(branch, mu, lam, d) for mu, lam in zip(mus, lams)]))
        # the laminate lies on the rank-one line of rank_one_params
        assert np.array_equal(
            mg.laminate_matrix(branch, mus, lams, d),
            mg.base_matrix(branch, lams, d)
            + mus[:, None, None] * w[:, :, None] * u)

    def test_rotation_distance_stacks(self):
        # one matrix, a stack of any shape and dist_to_wells_b agree bit
        # for bit, and dist_to_wells_b keeps its expression order
        rng = np.random.default_rng(11)
        w = mg.make_wells(0.5)
        Fs = rng.normal(size=(6, 5, 2, 2))
        for G in (w.F0, w.F0inv):
            d2 = mg.rotation_distance_sq(Fs, G)
            assert d2.shape == (6, 5)
            assert np.array_equal(d2, np.array(
                [[mg.rotation_distance_sq(F, G) for F in row] for row in Fs]))
        flat = Fs.reshape(-1, 2, 2)
        ref = np.empty((flat.shape[0], 2))
        nF = np.einsum("nij,nij->n", flat, flat)
        for col, G in ((0, w.F0), (1, w.F0inv)):
            M = np.einsum("nij,kj->nik", flat, G)
            tr = M[:, 0, 0] + M[:, 1, 1]
            skew = M[:, 1, 0] - M[:, 0, 1]
            ref[:, col] = np.sqrt(np.maximum(
                nF + np.sum(G * G) - 2.0 * np.hypot(tr, skew), 0.0))
        assert np.array_equal(mg.dist_to_wells_b(flat, w), ref)


class TestGram:
    def test_closed_form_matches_ftf(self):
        rng = np.random.default_rng(3)
        for d in DELTAS:
            for branch in (1, 2):
                for _ in range(50):
                    mu, lam = rng.uniform(0, 1), rng.uniform(0, 1)
                    F = mg.laminate_matrix(branch, mu, lam, d)
                    assert np.abs(mg.gram(F) - mg.laminate_gram(branch, mu, lam, d)).max() < 1e-13

    def test_mu_symmetry_exact(self):
        # C_b(mu).e_b = C_b(1-mu).e_b exactly as printed (same float expression)
        for branch, idx in ((1, 0), (2, 1)):
            for mu in (0.1, 0.33, 0.49):
                a = mg.laminate_gram(branch, mu, 0.2, 0.5)[idx, idx]
                b = mg.laminate_gram(branch, 1.0 - mu, 0.2, 0.5)[idx, idx]
                assert a == pytest.approx(b, abs=1e-15)

    def test_interior_example(self):
        # frozen from spec example: C1(0.3, 0.2) at delta 0.5 is interior
        C = mg.laminate_gram(1, 0.3, 0.2, 0.5)
        assert mg.cg_membership(C, 0.5) == "interior"

    def test_membership_boundary_and_outside(self):
        d = 0.5
        w = mg.make_wells(d)
        assert mg.cg_membership(mg.gram(w.F0), d) == "boundary"
        assert mg.cg_membership(np.eye(2), d) == "boundary"
        assert mg.cg_membership(np.diag([1 / (1 + d * d), 1 + d * d]), d) == "boundary"
        assert mg.cg_membership(np.diag([0.5, 2.0]), d) == "outside"      # c11c22=1, c22 too big
        assert mg.cg_membership(np.diag([1.1, 1 / 1.1]), d) == "outside"  # c11 > 1
        assert mg.cg_membership(np.diag([2.0, 2.0]), d) == "outside"      # det != 1
        with pytest.raises(InvalidParameterError):
            mg.cg_membership(np.array([[1.0, 0.5], [0.0, 1.0]]), d)
        with pytest.raises(InvalidParameterError):
            mg.cg_membership(np.diag([-1.0, -1.0]), d)

    def test_membership_margin(self):
        d = 0.5
        C = mg.laminate_gram(1, 1e-6, 0.2, d)   # d1 tiny
        assert mg.cg_membership(C, d, margin=0.0) == "interior"
        assert mg.cg_membership(C, d, margin=1e-3) == "boundary"

    @given(branch=st.sampled_from([1, 2]),
           mu=st.floats(0.01, 0.99),
           lam=st.floats(0.01, 0.49),
           ang=st.floats(0.0, 6.28))
    @settings(max_examples=80, deadline=None)
    def test_roundtrip_property(self, branch, mu, lam, ang):
        d = 0.5
        F = mg.rot(ang) @ mg.laminate_matrix(branch, mu, lam, d)
        c = mg.matrix_to_coords(F, branch, d)
        assert c.lam <= 0.5
        F2 = coords_to_matrix(c, d)
        assert np.abs(F2 - F).max() < 1e-10

    def test_canonical_half(self):
        # lam > 1/2 inputs come back mirrored onto [0, 1/2]
        d = 0.5
        F = mg.laminate_matrix(1, 0.3, 0.8, d)
        c = mg.matrix_to_coords(F, 1, d)
        assert c.lam == pytest.approx(0.2, abs=1e-12)
        assert c.mu == pytest.approx(0.7, abs=1e-12)

    def test_degenerate_wall(self):
        d = 0.5
        with pytest.raises(DegenerateCoordinatesError):
            mg.matrix_to_coords(mg.rot(0.4), 1, d)           # c22 = 1
        F = mg.base_matrix(2, 0.5, d)                         # c11 = 1/(1+d^2)
        with pytest.raises(DegenerateCoordinatesError):
            mg.matrix_to_coords(F, 2, d)

    def test_not_attainable(self):
        with pytest.raises(NotAttainableError):
            mg.matrix_to_coords(np.diag([1.3, 1 / 1.3]), 1, 0.5)


class TestSplit:
    def test_spec_example_half_gap(self):
        # frozen spec example: branch 1, (mu,lam)=(0.3,0.1), eps=eps0/2
        d = 0.5
        F = mg.laminate_matrix(1, 0.3, 0.1, d)
        eps0 = 1.0 - mg.gram(F)[0, 0]
        sr = mg.split(F, 1, eps0 / 2, d)
        recon = sr.rho * sr.Fplus + (1 - sr.rho) * sr.Fminus
        assert np.abs(recon - F).max() < 1e-12
        for ch in (sr.Fplus, sr.Fminus):
            assert mg.gram(ch)[0, 0] == pytest.approx(1 - eps0 / 2, abs=1e-12)
            assert mg.gram(ch)[1, 1] == pytest.approx(mg.gram(F)[1, 1], abs=1e-12)

    def test_trivial_split(self):
        d = 0.5
        F = mg.laminate_matrix(1, 0.3, 0.2, d)
        eps0 = 1.0 - mg.gram(F)[0, 0]
        sr = mg.split(F, 1, eps0, d)
        assert sr.rho in (0.0, 1.0) or sr.rho == pytest.approx(1.0, abs=1e-12)
        near = sr.Fplus if sr.rho > 0.5 else sr.Fminus
        assert np.abs(near - F).max() < 1e-12

    def test_children_rank_one_and_normal(self):
        d = 0.5
        for branch, axis in ((1, 0), (2, 1)):
            F = mg.rot(1.0) @ mg.laminate_matrix(branch, 0.2, 0.3, d)
            eps0 = mg.face_gaps(mg.gram(F), d)[branch - 1]
            sr = mg.split(F, branch, 0.4 * eps0, d)
            D = sr.Fplus - sr.Fminus
            assert abs(np.linalg.det(D)) < 1e-12
            assert sr.normal_axis == axis
            # rank-one factor has normal e_axis: the other column vanishes
            assert np.abs(D[:, 1 - axis]).max() < 1e-12

    def test_children_membership(self):
        d = 0.5
        rng = np.random.default_rng(5)
        for _ in range(100):
            branch = int(rng.integers(1, 3))
            F = mg.rot(rng.uniform(0, 6.3)) @ mg.laminate_matrix(
                branch, rng.uniform(0.02, 0.98), rng.uniform(0.02, 0.48), d)
            eps0 = mg.face_gaps(mg.gram(F), d)[branch - 1]
            sr = mg.split(F, branch, rng.uniform(0.05, 1.0) * eps0, d)
            for ch in (sr.Fplus, sr.Fminus):
                assert mg.cg_membership(mg.gram(ch), d) in ("interior", "boundary")

    def test_errors(self):
        d = 0.5
        F = mg.laminate_matrix(1, 0.3, 0.2, d)
        eps0 = 1.0 - mg.gram(F)[0, 0]
        with pytest.raises(InvalidTargetError):
            mg.split(F, 1, 2 * eps0, d)
        with pytest.raises(InvalidTargetError):
            mg.split(F, 1, 0.0, d)
        with pytest.raises(NotSplittableError):
            mg.split(mg.make_wells(d).F0, 1, 1e-3, d)
        # the lam = 1/2 walls intersect the hull only in single boundary
        # points, so the boundary rejection fires before the degenerate one
        with pytest.raises(NotSplittableError):
            mg.split(mg.base_matrix(2, 0.5, d), 2, 1e-3, d)

    def test_lipschitz_slope_and_constants(self):
        # log-log slope of |rho - (chi+1)/2| against eps0 is >= 1 on the
        # dyadic grid 2^-5 z0 .. 2^-12 z0; Gram map is C_L-Lipschitz.
        d = 0.5
        z0 = 2.0 ** -4 * min(d * d, 1.0)
        CL = lipschitz_bound_constant(d)
        for branch in (1, 2):
            for lam in (0.05, 0.2):
                g = gap_coefficient(branch, lam, d)
                eps0s, devs = [], []
                for j in range(5, 13):
                    eps0 = z0 * 2.0 ** -j
                    mu = 0.5 * (1 - math.sqrt(1 - 4 * eps0 / g))
                    F = mg.laminate_matrix(branch, mu, lam, d)
                    sr = mg.split(F, branch, 0.5 * eps0, d)
                    assert sr.chi == 1
                    eps0s.append(sr.eps0)
                    devs.append(abs(sr.rho - 1.0))
                    for ch in (sr.Fplus, sr.Fminus):
                        lhs = np.linalg.norm(mg.gram(ch) - mg.gram(F))
                        assert lhs <= CL * np.linalg.norm(ch - F) * (1 + 1e-9)
                slope = np.polyfit(np.log(eps0s), np.log(devs), 1)[0]
                assert slope >= 1.0 - 1e-3

    def test_lipschitz_constant_value(self):
        assert lipschitz_bound_constant(0.5) == pytest.approx(3.0, abs=1e-15)


def mixed_rows(d):
    """(F, branch, eps) rows of a mixed stack: interior rows at stages 1,
    2, 5, 8 and 13 with their split targets, between them the failure
    cases of TestSplit.test_errors (eps = 2 eps0 and eps = 0, the boundary
    row F0 and the branch-2 lam = 1/2 wall row), an outside row, a c22 = 1
    wall row, a branch that does not exist, and eps = eps0 at mu = 1/2."""
    rng = np.random.default_rng(7)
    F = mg.laminate_matrix(1, 0.3, 0.2, d)
    eps0 = 1.0 - mg.gram(F)[0, 0]
    half = mg.laminate_matrix(1, 0.5, 0.2, d)
    low = ia.stage_representative(1, d)
    t = ia.low_stage_split_target(low, d)
    good = [(ia.sample_stage(k, d, rng), *ia.dyadic_split_target(k, d))
            for k in (2, 5, 8, 13)]
    return [good[0], (F, 1, 2 * eps0), (F, 1, 0.0), good[1],
            (mg.make_wells(d).F0, 1, 1e-3), (np.diag([1.3, 1 / 1.3]), 1, 1e-3),
            good[2], (mg.base_matrix(2, 0.5, d), 2, 1e-3),
            (mg.rot(0.4), 1, 1e-3), (F, 3, 1e-3), (low, t.branch, t.eps),
            (half, 1, 1.0 - mg.gram(half)[0, 0]), (F, 1, 0.5 * eps0), good[3]]


class TestStacks:
    """Each stacked entry point on a mixed stack: a good row is bit-equal
    to its one-row call, a failing row carries the class and message the
    one-row call raises."""

    @pytest.mark.parametrize("d", DELTAS)
    def test_split(self, assert_same_rows, d):
        rows = mixed_rows(d)
        F, branch, eps = (np.array(c) for c in zip(*rows))
        sr, errors = mg.split_stack(F, branch, eps, d)
        names = [f.name for f in dataclasses.fields(sr)]
        assert_same_rows(
            errors, lambda i: [getattr(sr, n)[i] for n in names],
            [lambda r=r: dataclasses.astuple(mg.split(*r, d)) for r in rows])

    @pytest.mark.parametrize("d", DELTAS)
    def test_matrix_to_coords(self, assert_same_rows, d):
        rows = mixed_rows(d)
        F, branch = np.array([r[0] for r in rows]), [r[1] for r in rows]
        mu, lam, R, errors = mg.coords_stack(F, np.array(branch), d)

        def one_row(F, branch):
            c = mg.matrix_to_coords(F, branch, d)
            return c.mu, c.lam, c.rotation

        assert_same_rows(errors, lambda i: (mu[i], lam[i], R[i]),
                         [lambda r=r: one_row(*r[:2]) for r in rows])

    @pytest.mark.parametrize("margin", [0.0, 1e-3])
    def test_membership(self, assert_same_rows, margin):
        # the rows of test_membership_boundary_and_outside and
        # test_membership_margin, and an interior one
        d = 0.5
        Cs = [mg.laminate_gram(1, 0.3, 0.2, d),
              mg.gram(mg.make_wells(d).F0), np.eye(2),
              np.diag([1 / (1 + d * d), 1 + d * d]), np.diag([0.5, 2.0]),
              np.array([[1.0, 0.5], [0.0, 1.0]]), np.diag([1.1, 1 / 1.1]),
              np.diag([2.0, 2.0]), np.diag([-1.0, -1.0]),
              mg.laminate_gram(1, 1e-6, 0.2, d)]
        loc, errors = mg.membership_stack(np.array(Cs), d, margin)
        assert_same_rows(errors, lambda i: (mg.LOCATIONS[loc[i]],),
                         [lambda C=C: (mg.cg_membership(C, d, margin),)
                          for C in Cs])
