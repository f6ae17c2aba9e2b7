"""Lineage sampling of full-coverage generations against explicit covers.

Generation 1 of full coverage is an explicit engine step (776 cells, no
frozen cell).  Generation 2 (387,536,112 cells) is checked against an
exhaustive cover-by-cover sum over the 776 generation-1 cells, one cover
at a time: the isosceles cells through the engine's own cover_isosceles,
the generic ones through the totals of lineage.generic_cover, which
test_generic_totals_match_every_generation1_geometry checks against the
emitted covers of every distinct generic cell of generation 1.
"""

import math

import numpy as np
import pytest

from twowell import analysis as an
from twowell import covering as cov
from twowell import engine as en
from twowell import inapprox as ia
from twowell import lineage as lin
from twowell.errors import ConstructionFailureError

DELTA = 0.5
AREA_COLUMNS = ("l1_chi_diff", "l1_grad_diff", "w_l1_bound",
                "perimeter_sum")
# the two root covers of generation 1 have equal densities, so its
# standard errors sit at rounding level; this floor absorbs the float
# differences between local frames and the explicit mesh
ROUNDING = 1e-9


def _datum():
    return ia.stage_representative(2, DELTA)


@pytest.fixture(scope="module")
def gen1():
    cfg = en.EngineConfig(cell_budget=776, max_steps=1, checks="full")
    eng = en.Engine(en.unit_square_domain(), _datum(), DELTA, cfg)
    eng.step()
    return eng


@pytest.fixture(scope="module")
def sampled():
    return lin.sample_generations(en.unit_square_domain(), _datum(), DELTA,
                                  n_samples=3000, generations=2, seed=0)


def _within(est, se, exact):
    return abs(est - exact) <= 3.0 * se + ROUNDING * abs(exact)


def _generation2_reference(eng):
    """Row 2 and its stage measure, summed over all 776 covers.

    One cover at a time: the isosceles cells through the engine's own
    cover_isosceles, the generic ones through covering.generic_spec with
    each row's squares counted as m translates of its first (the totals
    lineage.generic_cover reports, checked against emitted covers by
    test_generic_totals_match_every_generation1_geometry).  Laying all ~10^6 squares with
    emit_spec instead takes about a minute.
    """
    st = eng.state
    tot = dict.fromkeys(AREA_COLUMNS, 0.0)
    hist = np.zeros(8)
    areas = st.areas()
    cache = lin.CoverCache(eng)
    for i in range(st.n):
        row = int(st.gid[i])
        plan = eng.plan(row)
        if st.iso[i]:
            res = cov.cover_isosceles(st.verts[i], plan, offset=st.offs[i])
            r2 = float(np.sum(res.diam_scales ** 2))
            r3 = float(np.sum(res.diam_scales ** 3))
            per = float(cov.tri_perimeters(res.verts).sum())
            hist += np.bincount(res.stages, weights=res.areas(),
                                minlength=8)
        else:
            cover = lin.generic_cover(st.verts[i], plan,
                                      cache.plan_data(row))
            r2, r3, per = cover.sum_r2, cover.sum_r3, cover.perimeter
            good = cover.diamond_stage_area
            hist[:good.shape[0]] += good
            hist[st.stages[i]] += areas[i] - good.sum()
        tot["l1_chi_diff"] += plan.flip_area_unit * r2
        tot["l1_grad_diff"] += plan.grad_l1_unit * r2
        tot["w_l1_bound"] += plan.w_l1_unit * r3
        tot["perimeter_sum"] += per
    return tot, hist


def test_generation1_matches_explicit_step(gen1, sampled):
    exact = gen1.metrics.rows[1]
    assert exact["n_cells"] == 776 and exact["frozen_measure"] == 0.0
    row = sampled.rows[1]
    for name in AREA_COLUMNS + ("bv_chi",):
        assert _within(row[name], row[name + "_se"], exact[name]), \
            (name, row[name], row[name + "_se"], exact[name])
    # every lineage passes through one of the two root covers, so the
    # sample maximum is the exact maximum at generation 1
    assert math.isclose(row["wsup_max"], exact["wsup_max"],
                        rel_tol=ROUNDING)
    assert row["frozen_measure"] == 0.0
    assert math.isnan(row["wsup_max_se"])
    hist_exact = gen1.metrics.stage_hists[1]
    hist = sampled.stage_hists[1]
    n = max(hist.shape[0], hist_exact.shape[0])
    np.testing.assert_allclose(np.pad(hist, (0, n - hist.shape[0])),
                               np.pad(hist_exact,
                                      (0, n - hist_exact.shape[0])),
                               rtol=ROUNDING, atol=1e-12)


def test_generation2_matches_enumeration(gen1, sampled):
    ref, hist_ref = _generation2_reference(gen1)
    row = sampled.rows[2]
    assert row["n_samples"] == 3000
    for name, exact in ref.items():
        assert row[name + "_se"] > 0.0
        assert _within(row[name], row[name + "_se"], exact), \
            (name, row[name], row[name + "_se"], exact)
    hist = sampled.stage_hists[2]
    se = sampled.meta["stage_hists_se"][2]
    assert hist.shape[0] <= hist_ref.shape[0]
    for s in range(hist_ref.shape[0]):
        est = hist[s] if s < hist.shape[0] else 0.0
        err = se[s] if s < se.shape[0] else 0.0
        assert _within(est, err, hist_ref[s]), (s, est, err, hist_ref[s])


def test_same_seed_same_rows():
    def run(seed):
        return lin.sample_generations(en.unit_square_domain(), _datum(),
                                      DELTA, n_samples=40, generations=3,
                                      seed=seed)
    a, b, c = run(5), run(5), run(6)
    assert [repr(r) for r in a.rows] == [repr(r) for r in b.rows]
    assert [repr(r) for r in a.rows] != [repr(r) for r in c.rows]
    assert a.meta["h_dyadic_used"] == b.meta["h_dyadic_used"]


def _node_of(eng, i):
    """Generation-1 cell i of the explicit state as one lineage node."""
    st = eng.state
    at = slice(i, i + 1)
    return lin.Nodes.of(st.verts[at], st.gid[at], st.iso[at], np.ones(1))


def _emitted(eng, i, st=None):
    """The one-cover result of cell i of st (default: the engine's state),
    laid by the same cover Engine.step chooses."""
    st = eng.state if st is None else st
    plan = eng.plan(int(st.gid[i]))
    if st.iso[i]:
        return cov.cover_isosceles(st.verts[i], plan, offset=st.offs[i])
    return cov.emit_spec([cov.generic_spec(st.verts[i], plan)], plan,
                         st.offs[i])


def _cell(eng, which):
    """An isosceles leftover, the thinnest diamond piece, or the largest
    untagged leftover of generation 1."""
    st = eng.state
    areas = st.areas()
    if which == "iso":
        return int(np.flatnonzero(st.iso)[0])
    if which == "piece":
        return int(np.argmin(areas))
    gen = ~st.iso & (st.stages == st.stages.min())
    return int(np.flatnonzero(gen)[np.argmax(areas[gen])])


@pytest.mark.parametrize("which", ["iso", "piece", "leftover"])
def test_located_children_are_emitted_children(gen1, which):
    i = _cell(gen1, which)
    res = _emitted(gen1, i)
    node = _node_of(gen1, i)
    nodes = node.take(np.zeros(60, dtype=np.int64))
    rng = np.random.default_rng(0)
    c, s = node.rel_c[0], node.rel_s[0]
    ys = lin.uniform_in(nodes.verts, rng.random((60, 2)))
    kids, ycs = lin.locate(*lin.CoverCache(gen1).groups(nodes), nodes, ys)
    for p in range(60):
        child, y, yc = kids.take(p), ys[p], ycs[p]
        verts = c + s * (child.rel_c + child.rel_s * child.verts)
        x = c + s * y
        inside = np.flatnonzero(lin._margins(res.verts, x) >= -1e-12 * s)
        match = [k for k in inside
                 if np.abs(res.verts[k] - verts).max() <= 1e-9 * s]
        assert len(match) == 1, (which, x)
        k = match[0]
        table = gen1.table
        assert table.phases[child.gid] == res.phases[k]
        assert table.stages[child.gid] == res.stages[k]
        assert np.array_equal(table.grads[child.gid], res.grads[k])
        assert child.iso == res.iso[k]
        np.testing.assert_allclose(lin._margins(child.verts[None], yc),
                                   lin._margins(verts[None], x) / (
                                       s * child.rel_s), atol=1e-9)


def test_state_blocks_are_one_cover_results(stepped):
    # Engine.step lays all covers of a plan at once; the next state must
    # still hold the kept cells first, then every covered cell's children
    # as one block in selection order, each block equal to the cell's own
    # one-cover result, column by column and child by child
    for run in ("ramp", "two-plans"):
        _check_blocks(*stepped(run))


def _check_blocks(eng, states, want_kinds):
    kinds = []
    for prev, st in zip(states, states[1:]):
        covered = np.flatnonzero(~np.isin(prev.ids, st.ids))
        n_kept = prev.n - covered.shape[0]
        assert np.isin(st.ids[:n_kept], prev.ids).all()
        assert np.array_equal(st.ids[n_kept:],
                              st.ids[n_kept] + np.arange(st.n - n_kept))
        areas = prev.areas()
        covered = covered[np.lexsort((prev.ids[covered], -areas[covered]))]
        at = n_kept
        for i in covered:
            res = _emitted(eng, i, prev)
            kinds.append("iso" if prev.iso[i] else "generic")
            block = slice(at, at + res.n_children)
            assert (st.parents[block] == prev.ids[i]).all()
            assert (st.prev_index[block] == i).all()
            for name in en.COVER_COLUMNS + ("grads", "stages", "phases"):
                assert np.array_equal(getattr(st, name)[block],
                                      getattr(res, name)), (i, name)
            at += res.n_children
        assert at == st.n
    assert set(kinds) == want_kinds


@pytest.mark.parametrize("which", ["iso", "piece", "leftover"])
def test_cover_totals_match_emitted_cover(gen1, which):
    i = _cell(gen1, which)
    res = _emitted(gen1, i)
    node = _node_of(gen1, i)
    cover = lin.CoverCache(gen1).groups(node)[0][0]
    s = node.rel_s[0]
    r = res.diam_scales
    assert math.isclose(cover.sum_r2 * s * s, float(np.sum(r * r)),
                        rel_tol=1e-9)
    assert math.isclose(cover.sum_r3 * s ** 3, float(np.sum(r ** 3)),
                        rel_tol=1e-9)
    assert math.isclose(cover.max_r * s, float(r.max()), rel_tol=1e-9)
    assert math.isclose(cover.perimeter * s,
                        float(cov.tri_perimeters(res.verts).sum()),
                        rel_tol=1e-9)
    good = np.bincount(res.stages[res.good], weights=res.areas()[res.good])
    n = max(good.shape[0], cover.diamond_stage_area.shape[0])
    np.testing.assert_allclose(
        np.pad(cover.diamond_stage_area, (0, n - len(
            cover.diamond_stage_area))) * s * s,
        np.pad(good, (0, n - good.shape[0])), rtol=1e-9, atol=1e-18)
    # the jump length inside the cover: the sweep over the emitted
    # children, minus the jumps on the covered cell's own boundary
    sw = an.sweep_intervals(res.verts)
    ind = (res.phases == 1).astype(float)
    both = (sw.left_owner >= 0) & (sw.right_owner >= 0)
    inner = float(np.sum(np.where(
        both, np.abs(ind[np.maximum(sw.left_owner, 0)]
                     - ind[np.maximum(sw.right_owner, 0)]), 0.0) * sw.dt))
    assert math.isclose(cover.bv * s, inner, rel_tol=1e-6, abs_tol=1e-12)


def _generic_geometries(eng):
    """One generation-1 cell per distinct generic cover: the same plan
    and the same shape in the cell's own frame."""
    st = eng.state
    cells = {}
    for i in range(st.n):
        if st.iso[i]:
            continue
        plan = eng.plan(int(st.gid[i]))
        shape = np.round(_node_of(eng, i).verts[0], 9)
        cells.setdefault((id(plan), shape.tobytes()), i)
    return list(cells.values())


def test_generic_totals_match_every_generation1_geometry(gen1):
    # generic_cover counts a row's squares as m translates of its first
    # one; here every square is laid and emitted (emit_spec)
    st = gen1.state
    cells = _generic_geometries(gen1)
    assert len(cells) >= 10
    cache = lin.CoverCache(gen1)
    for i in cells:
        plan = gen1.plan(int(st.gid[i]))
        node = _node_of(gen1, i)
        cover = cache.groups(node)[0][0]
        res = cov.emit_spec([cov.generic_spec(st.verts[i], plan)], plan,
                            st.offs[i])
        r = res.diam_scales
        sums = [np.sum(r * r), np.sum(r ** 3),
                cov.tri_perimeters(res.verts).sum(),
                float(r.max()) if r.size else 0.0]
        good = np.bincount(res.stages[res.good],
                           weights=res.areas()[res.good])
        s = node.rel_s[0]
        got = [cover.sum_r2 * s * s, cover.sum_r3 * s ** 3,
               cover.perimeter * s, cover.max_r * s]
        for name, g, want in zip(("r^2", "r^3", "perimeter", "max r"), got,
                                 sums):
            assert math.isclose(g, want, rel_tol=1e-9), (i, name, g, want)
        area = cover.diamond_stage_area * s * s
        n = max(area.shape[0], good.shape[0])
        np.testing.assert_allclose(np.pad(area, (0, n - area.shape[0])),
                                   np.pad(good, (0, n - good.shape[0])),
                                   rtol=1e-9, atol=1e-18)


def test_uncalibrated_aspect_restarts_the_sample():
    # at h0 = 1/8 the stage-2 cell does not advance every piece, so its
    # plan fails the aspect and the sample restarts at h0 / 2, as a run
    # does, until no lineage stops
    series = lin.sample_generations(en.unit_square_domain(), _datum(),
                                    DELTA, n_samples=20, generations=3,
                                    seed=0, config=en.EngineConfig(h0=0.125))
    meta = series.meta
    assert meta["restarts"] > 0
    assert meta["h0"] == 0.125 / 2 ** meta["restarts"]
    assert all(r["frozen_measure"] == 0.0 for r in series.rows)
    assert all(r["l1_chi_diff"] > 0.0 for r in series.rows[1:])
    cfg = en.EngineConfig(cell_budget=20_000, max_steps=3, h0=0.125)
    eng = en.run_construction(en.unit_square_domain(), _datum(), DELTA, cfg)
    assert (eng.h0, eng.restarts) == (meta["h0"], meta["restarts"])


def test_benchmark_datum_samples_at_the_run_aspect():
    # the datum of the benchmark's input 1 fails its dyadic plan at the
    # calibrated h0 = 1/32; the sampler restarts once, as run_construction
    # does, instead of stopping every lineage at its root
    M = ia.sample_stage(2, DELTA, np.random.default_rng(1))
    series = lin.sample_generations(en.unit_square_domain(), M, DELTA,
                                    n_samples=200, generations=3, seed=0)
    assert all(r["frozen_measure"] == 0.0 for r in series.rows)
    assert series.meta["h0"] == 1 / 64 and series.meta["restarts"] == 1
    cfg = en.EngineConfig(cell_budget=20_000, max_steps=3)
    eng = en.run_construction(en.unit_square_domain(), M, DELTA, cfg)
    assert eng.h0 == series.meta["h0"]


def test_stage_one_datum_freezes_no_lineage():
    # the sampler takes the low-stage plan's stages as the engine does,
    # so no lineage of a stage-1 datum stops
    M1 = np.array([[0.9973157602026531, 0.48745354630644433],
                   [1.0536712127723509e-08, 1.0026914694830042]])
    series = lin.sample_generations(en.unit_square_domain(), M1, DELTA,
                                    n_samples=200, generations=3, seed=0)
    assert len(series.rows) == 4
    assert all(r["frozen_measure"] == 0.0 for r in series.rows)


def _freeze_above(monkeypatch, top):
    """Engine.plan raising ConstructionFailureError on rows above stage
    top, as a plan that cannot be built does: the sampler's lineages stop
    at those cells."""
    plan = en.Engine.plan

    def failing(self, row):
        if self.table.stages[row] > top:
            raise ConstructionFailureError(f"no plan above stage {top}")
        return plan(self, row)
    monkeypatch.setattr(en.Engine, "plan", failing)


class TestFrozenLineages:
    N = 200

    def _sample(self):
        series = lin.sample_generations(en.unit_square_domain(), _datum(),
                                        DELTA, n_samples=self.N,
                                        generations=3, seed=0)
        omega = series.rows[0]["domain_area"]
        for hist in series.stage_hists:
            assert hist.sum() == pytest.approx(omega, rel=1e-12)
        return series, omega

    def test_frozen_roots_add_perimeter_and_stage_only(self, monkeypatch):
        # the stage-2 roots have no plan: every lineage stops at its root,
        # which then counts in perimeter_sum and the stage measure only
        _freeze_above(monkeypatch, 1)
        series, omega = self._sample()
        first = series.rows[0]
        for row, hist in zip(series.rows[1:], series.stage_hists[1:]):
            assert (row["frozen_measure"], row["frozen_measure_se"]) \
                == (omega, 0.0)
            for name in ("l1_chi_diff", "l1_grad_diff", "w_l1_bound",
                         "bv_chi"):
                assert row[name] == row[name + "_se"] == 0.0
            assert row["wsup_max"] == 0.0
            assert row["perimeter_sum"] == pytest.approx(
                first["perimeter_sum"], rel=1e-12)
            assert row["perimeter_sum_se"] <= 1e-12
            assert hist.tolist() == [0.0, 0.0, omega]

    def test_frozen_measure_is_the_stopped_fraction(self, monkeypatch):
        # plans of stage-3 and higher cells fail: a lineage stops when it
        # enters a diamond's pieces (stages >= 3) and goes on in the
        # stage-2 gaps between them
        _freeze_above(monkeypatch, 2)
        series, omega = self._sample()
        rows, hists = series.rows, series.stage_hists
        p = [row["frozen_measure"] / omega for row in rows]
        assert p[0] == p[1] == 0.0 and 0.0 < p[2] <= p[3] < 1.0
        for row, pk, hist in zip(rows, p, hists):
            # a fraction of the N lineages, with its binomial error
            assert abs(pk * self.N - round(pk * self.N)) < 1e-9
            assert row["frozen_measure_se"] == pytest.approx(
                omega * math.sqrt(pk * (1.0 - pk) / self.N), rel=1e-12)
            # a stopped lineage keeps its cell's stage
            assert hist[3:].sum() >= row["frozen_measure"]
        # generation 1's measure above stage 2, summed over the roots'
        # covers, is what stops at generation 2
        assert abs(rows[2]["frozen_measure"] - hists[1][3:].sum()) \
            <= 3.0 * rows[2]["frozen_measure_se"]
