"""Stage bands: oracle transcription of the definition, split targets."""

import hashlib
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from twowell import cell as cl
from twowell import inapprox as ia
from twowell import matgeo as mg
from twowell.errors import InvalidParameterError, NotClassifiableError

from oracles import dist_to_wells


def oracle_stage(d1: float, d2: float, z0: float) -> int:
    """Literal scan of the band definition, written independently of the
    library's candidate-exponent shortcut."""
    hits = []
    for j in range(1, 61):
        b1 = z0 * 2.0 ** -(j + 3)
        b2 = z0 * 2.0 ** -j
        if 5 * b1 < d1 < 7 * b1 and b2 < d2 < 2 * b2:
            hits.append(2 * j)
        c1 = z0 * 2.0 ** -(j + 1)
        c2 = z0 * 2.0 ** -(j + 3)
        if c1 < d1 < 2 * c1 and 5 * c2 < d2 < 7 * c2:
            hits.append(2 * j + 1)
    if len(hits) > 1:
        raise AssertionError(f"bands overlap: {hits}")
    if hits:
        return hits[0]
    for m in range(1, 61):
        b = z0 * 2.0 ** -(m + 1)
        if b < d1 < 2 * b and d2 >= 7 * z0 * 2.0 ** -(m + 3):
            return 1
    return 0


class TestBands:
    def test_zeta0_frozen(self):
        assert ia.zeta0(0.5) == 1 / 64
        assert ia.zeta0(1.0) == 1 / 16
        assert ia.zeta0(2.0) == 1 / 16
        assert ia.zeta0(0.25) == 0.25 ** 2 / 16

    def test_band_values(self):
        z0 = ia.zeta0(0.5)
        (lo1, hi1), (lo2, hi2) = ia.stage_band(2, 0.5)
        assert (lo1, hi1) == (5 * z0 / 16, 7 * z0 / 16)
        assert (lo2, hi2) == (z0 / 2, z0)
        (lo1, hi1), (lo2, hi2) = ia.stage_band(3, 0.5)
        assert (lo1, hi1) == (z0 / 4, z0 / 2)
        assert (lo2, hi2) == (5 * z0 / 16, 7 * z0 / 16)

    def test_classify_matches_oracle_fuzz(self):
        rng = np.random.default_rng(42)
        z0 = ia.zeta0(0.5)
        n = 20_000
        # gaps spread over many dyadic scales, including off-band positions
        d1 = z0 * 2.0 ** rng.uniform(-20, 1, n)
        d2 = z0 * 2.0 ** rng.uniform(-20, 1, n)
        lib = ia._classify_gaps(d1, d2, z0)
        for i in rng.integers(0, n, 2000):
            assert lib[i] == oracle_stage(d1[i], d2[i], z0), (d1[i], d2[i])

    def test_band_example_from_definition(self):
        # |c11 - 1| = 6 z0 2^-(k+3), |c22 - (1+d^2)| = 1.5 z0 2^-k -> stage 2k
        z0 = ia.zeta0(0.5)
        for j in (1, 2, 4, 6):
            F = ia.matrix_from_gaps(6 * z0 * 2.0 ** -(j + 3), 1.5 * z0 * 2.0 ** -j, 0.5)
            assert ia.classify(F, 0.5) == 2 * j

    def test_stage0_far_from_bands(self):
        # both deviations of order z0: catches no band
        F = mg.laminate_matrix(1, 0.5 - 1e-3, 0.25, 0.5)
        assert ia.classify(F, 0.5) == 0

    def test_endpoint_lands_in_catchall(self):
        # exact open-interval endpoints are excluded (tolerance 0)
        z0 = ia.zeta0(0.5)
        j = 2
        d1_edge = 5 * math.ldexp(z0, -(j + 3))     # lower edge of stage-4 d1 band
        d2_mid = 1.5 * math.ldexp(z0, -j)
        F = ia.matrix_from_gaps(d1_edge, d2_mid, 0.5)
        assert ia.classify(F, 0.5) != 4

    def test_not_classifiable(self):
        w = mg.make_wells(0.5)
        with pytest.raises(NotClassifiableError):
            ia.classify(w.F0, 0.5)
        with pytest.raises(NotClassifiableError):
            ia.classify(np.diag([1.3, 1 / 1.3]), 0.5)

    @given(st.floats(-19, 0.5), st.floats(-19, 0.5))
    @settings(max_examples=120, deadline=None)
    # exact band endpoints, where a one-ulp gap round-trip error would
    # move the matrix into the neighbouring stage, and a gap 5e-18 inside
    # a band, closer to its edge than the float grid of 1 - d1 resolves
    @example(-1.0, 0.0)
    @example(-2.0, 0.0)
    @example(-1.0, -1.0)
    @example(0.0, 0.0)
    @example(-2.9999999999999964, 0.0)
    def test_total_and_unique(self, e1, e2):
        z0 = ia.zeta0(0.5)
        d1, d2 = z0 * 2.0 ** e1, z0 * 2.0 ** e2
        try:
            F = ia.matrix_from_gaps(d1, d2, 0.5)
        except InvalidParameterError:
            return
        k = ia.classify(F, 0.5)
        assert k == oracle_stage(d1, d2, z0)   # oracle also asserts uniqueness

    def test_representatives(self):
        for d in (0.25, 0.5, 1.0):
            for k in range(0, 17):
                F = ia.stage_representative(k, d)
                assert ia.classify(F, d) == k
                assert abs(np.linalg.det(F) - 1) < 1e-12

    def test_dist_to_wells_decay(self):
        # sup over stage k of dist-to-wells obeys C 2^(-k/2)
        sups = {}
        rng = np.random.default_rng(0)
        wells = mg.make_wells(0.5)
        for k in range(2, 13):
            best = 0.0
            for _ in range(200):
                F = ia.sample_stage(k, 0.5, rng)
                best = max(best, dist_to_wells(F, wells)[0])
            sups[k] = best
        consts = [sups[k] * 2.0 ** (k / 2) for k in sups]
        assert max(consts) < 10.0 * min(max(consts[0], 1e-9), consts[0] + 1)
        assert all(sups[k] > 0 for k in sups)
        # monotone trend across parity pairs
        assert sups[12] < sups[2]


class TestSplitTargets:
    def test_dyadic_target_frozen(self):
        # delta=0.5: stage 2 -> branch 2, eps = (3/4) z0 / 2 = 3/512
        branch, eps = ia.dyadic_split_target(2, 0.5)
        assert branch == 2 and eps == pytest.approx(3 / 512, abs=0)
        branch, eps = ia.dyadic_split_target(3, 0.5)
        assert branch == 1 and eps == pytest.approx(3 / 1024, abs=0)
        branch, eps = ia.dyadic_split_target(4, 0.5)
        assert branch == 2 and eps == pytest.approx(3 / 1024, abs=0)
        with pytest.raises(InvalidParameterError):
            ia.dyadic_split_target(1, 0.5)

    def test_children_advance_one_stage(self):
        rng = np.random.default_rng(3)
        for d in (0.25, 0.5, 1.0):
            for k in range(2, 15):
                branch, eps = ia.dyadic_split_target(k, d)
                for _ in range(20):
                    F = ia.sample_stage(k, d, rng)
                    sr = mg.split(F, branch, eps, d)
                    assert ia.classify(sr.Fplus, d) == k + 1
                    assert ia.classify(sr.Fminus, d) == k + 1

    def test_target_strictly_inside_gap(self):
        # eps < eps0 for every parent anywhere in the open bands
        rng = np.random.default_rng(9)
        for k in range(2, 15):
            branch, eps = ia.dyadic_split_target(k, 0.5)
            for frac in ((0.001, 0.001), (0.999, 0.999), (0.001, 0.999)):
                F = ia.sample_stage(k, 0.5, rng, frac=frac)
                gaps = mg.face_gaps(mg.gram(F), 0.5)
                assert eps < gaps[branch - 1]

    def test_low_stage_recipes(self):
        d = 0.5
        F1 = ia.stage_representative(1, d)
        t = ia.low_stage_split_target(F1, d)
        assert t.branch == 2 and t.target_stage == 2 * t.witness_m + 1
        sr = mg.split(F1, t.branch, t.eps, d)
        assert ia.classify(sr.Fplus, d) == t.target_stage
        assert ia.classify(sr.Fminus, d) == t.target_stage

        F0 = ia.stage_representative(0, d)
        t0 = ia.low_stage_split_target(F0, d)
        assert t0.branch == 1
        sr0 = mg.split(F0, t0.branch, t0.eps, d)
        assert ia.classify(sr0.Fplus, d) >= 1
        assert ia.classify(sr0.Fminus, d) >= 1

        with pytest.raises(InvalidParameterError):
            ia.low_stage_split_target(ia.stage_representative(4, d), d)

    def test_verify_report(self):
        rep = ia.verify_in_approximation(0.5, samples=500,
                                         stages=tuple(range(2, 11)), seed=1)
        assert rep.ok and rep.failures == 0
        assert rep.dist_constant < 1.0
        ks = sorted(rep.sup_dist)
        assert rep.sup_dist[ks[-1]] < rep.sup_dist[ks[0]]


class TestStacks:
    """classify_stack and matrices_from_gaps on mixed stacks: a good row
    is bit-equal to its one-row call, a failing row carries the class and
    message the one-row call raises."""

    def test_classify_stack(self, assert_same_rows):
        # the rows of test_not_classifiable among interior rows of stages
        # 0, 1, 3, 6 and 11, a c22 = 1 boundary row and a singular matrix
        d = 0.5
        rng = np.random.default_rng(11)
        Fs = np.array([ia.stage_representative(0, d), mg.make_wells(d).F0,
                       ia.sample_stage(3, d, rng), np.diag([1.3, 1 / 1.3]),
                       ia.stage_representative(1, d), np.zeros((2, 2)),
                       ia.sample_stage(6, d, rng), mg.rot(0.4),
                       ia.sample_stage(11, d, rng)])
        stage, _, _, errors = ia._stages(Fs, d)
        assert ia.classify_stack(Fs.reshape(3, 3, 2, 2), d).tobytes() \
            == stage.tobytes()
        assert all((k == -1) == (e is not None) for k, e in zip(stage, errors))
        assert_same_rows(errors, lambda i: (int(stage[i]),),
                         [lambda F=F: (ia.classify(F, d),) for F in Fs])

    @pytest.mark.parametrize("rotated", ["none", "all", "every other"])
    def test_matrices_from_gaps(self, rotated):
        # the band-edge examples of test_total_and_unique and band centers
        d = 0.5
        z0 = ia.zeta0(d)
        rng = np.random.default_rng(5)
        gaps = [(z0 * 2.0 ** e1, z0 * 2.0 ** e2) for e1, e2 in
                ((-1.0, 0.0), (-2.0, 0.0), (-1.0, -1.0), (0.0, 0.0),
                 (-2.9999999999999964, 0.0))]
        for k in (2, 5, 9, 14):
            (lo1, hi1), (lo2, hi2) = ia.stage_band(k, d)
            gaps.append((0.5 * (lo1 + hi1), 0.5 * (lo2 + hi2)))
        d1, d2 = np.array(gaps).T
        n = d1.size
        sign = np.where(rng.uniform(size=n) < 0.5, 1.0, -1.0)
        angle = rng.uniform(0.0, 2.0 * math.pi, n)
        angle = {"none": np.zeros(n), "all": angle, "every other":
                 np.where(np.arange(n) % 2, angle, 0.0)}[rotated]
        got = ia.matrices_from_gaps(d1, d2, d, sign, angle)
        for i in range(n):
            want = ia.matrix_from_gaps(d1[i], d2[i], d, sign[i], angle[i])
            assert got[i].tobytes() == want.tobytes(), i
            if angle[i]:
                # the rotated path is the plain root, rotated
                U, _ = ia._upper_root(1.0 - d1[i], 1.0 + d * d - d2[i],
                                      sign[i])
                assert got[i].tobytes() == (mg.rot(angle[i]) @ U).tobytes()
        # a row whose gaps are not realizable, or whose gap, sign or angle
        # is not finite, fails the stack as it fails its one-row call, and
        # before any arithmetic warns
        for g1, g2, s, a in ((1.5, d2[0], 1.0, 0.0),
                             (math.nan, d2[0], 1.0, 0.0),
                             (d1[0], math.inf, 1.0, 0.0),
                             (d1[0], d2[0], math.nan, 0.0),
                             (d1[0], d2[0], 1.0, math.nan),
                             (d1[0], d2[0], 1.0, -math.inf)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(InvalidParameterError) as one:
                    ia.matrix_from_gaps(g1, g2, d, s, a)
                with pytest.raises(InvalidParameterError) as stack:
                    ia.matrices_from_gaps(np.append(d1, g1), np.append(d2, g2),
                                          d, np.append(sign, s),
                                          np.append(angle, a))
            assert str(stack.value) == str(one.value)

    def test_round_trip_bits_are_pinned(self):
        # the unrotated rows of calibrate_h0's grids (both fraction sets)
        # and the band corners of stages 2-40, also 1e-16 inside and
        # outside, at five deltas.  Pinned for numpy 2.4.6 on the x86-64
        # host it was recorded on.
        rows = []
        for d in (0.25, 0.5, 1.0, 4.0, 16.0):
            for k in range(2, 41):
                (lo1, hi1), (lo2, hi2) = ia.stage_band(k, d)
                for t in (0.0, 1e-16, -1e-16):
                    rows += [(d, x1, x2, sign) for x1, x2, sign in
                             itertools.product(
                                 (lo1 * (1.0 + t), hi1 * (1.0 - t)),
                                 (lo2 * (1.0 + t), hi2 * (1.0 - t)),
                                 (1.0, -1.0))]
                if k not in cl.CALIBRATION_STAGES:
                    continue
                for fracs in ((0.02, 0.5, 0.98), cl.CORRIDOR):
                    rows += [(d, lo1 + f1 * (hi1 - lo1),
                              lo2 + f2 * (hi2 - lo2), sign)
                             for f1, f2, sign in itertools.product(
                                 fracs, fracs, (1.0, -1.0))]
        # at delta 3 (c22 near 10) the c22 search moves f by two ulps:
        # gaps z0 m 2^-j, m = 1, 1.125, ..., 1.875 and j = 0..19
        z0 = ia.zeta0(3.0)
        gaps = (z0 * (1.0 + np.arange(8) / 8)[:, None]
                * np.ldexp(1.0, -np.arange(20))).ravel()
        rows += [(3.0, x1, x2, (-1.0) ** i)
                 for i, (x1, x2) in enumerate(zip(gaps, gaps[::-1]))]
        delta, d1, d2, sign = (np.array(c) for c in zip(*rows))
        Fs, misses = [], 0
        for d in np.unique(delta):
            at = delta == d
            Fs.append(ia.matrices_from_gaps(d1[at], d2[at], d, sign[at]))
            c22 = ia._grid_targets(d1[at], d2[at], d)[1]
            misses += np.count_nonzero(mg.gram(Fs[-1])[:, 1, 1] != c22)
        Fs = np.concatenate(Fs)
        # of the 7,540 rows, 3,385 take the c11 closure's second entry, and
        # 15 keep a computed c22 that misses its target (no candidate of
        # the c22 search hits)
        assert Fs.shape == (7540, 2, 2)
        assert np.count_nonzero(Fs[:, 1, 0]) == 3385 and misses == 15
        assert hashlib.sha256(Fs.tobytes()).hexdigest()[:16] \
            == "6ad9c6b2855fe6ff"
