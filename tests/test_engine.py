"""Refinement driver: soundness, determinism, budget and restart behavior."""

import sys
import weakref

import numpy as np
import pytest

from twowell import analysis as an
from twowell import cell as cl
from twowell import cli
from twowell import covering as cv
from twowell import engine as en
from twowell import inapprox as ia
from twowell import matgeo as mg
from twowell.errors import (AspectFailureError, ConstructionFailureError,
                            InvalidDomainError, InvalidParameterError,
                            WrongEntryPointError)

from oracles import line_totals, twin_intervals, twin_totals
from raster_oracle import l1_diff

DELTA = 0.5


def rep_datum(stage=2):
    return ia.stage_representative(stage, DELTA)


def unit_square_at(x, y):
    """The unit square with lower-left corner (x, y) as two triangles."""
    return en.unit_square_domain() + np.array([x, y], dtype=float)


def stage_one_datum():
    return np.array([[0.9973157602026531, 0.48745354630644433],
                     [1.0536712127723509e-08, 1.0026914694830042]])


# the run fixtures hold (engine, the state each of its rows recorded)

@pytest.fixture(scope="module")
def ramp_run(record_states):
    cfg = en.EngineConfig(cell_budget=20_000, max_steps=3, checks="fast",
                          track_bv=False)
    eng = en.Engine(en.unit_square_domain(), rep_datum(), DELTA, cfg)
    return eng, record_states(eng)


@pytest.fixture(scope="module")
def stage_one_run(record_states):
    cfg = en.EngineConfig(cell_budget=20_000, max_steps=4, checks="full")
    eng = en.Engine(en.unit_square_domain(), stage_one_datum(), DELTA, cfg)
    return eng, record_states(eng)


@pytest.fixture(scope="module")
def stall_run(record_states):
    # no cover of either root cell fits under this budget: the first
    # step stalls
    cfg = en.EngineConfig(cell_budget=50, max_steps=3, checks="fast",
                          track_bv=False)
    eng = en.Engine(en.unit_square_domain(), rep_datum(), DELTA, cfg)
    return eng, record_states(eng)


@pytest.fixture(scope="module")
def small_run(record_states):
    cfg = en.EngineConfig(cell_budget=60_000, max_steps=3, checks="full",
                          track_bv=True)
    return en.restarting(record_states, en.unit_square_domain(),
                         rep_datum(), DELTA, config=cfg)


class TestValidation:
    def test_hull_report_strings(self):
        rep = en.hull_report(rep_datum(), DELTA)
        assert rep.startswith("membership=interior")
        wells = mg.make_wells(DELTA)
        assert en.hull_report(wells.F0, DELTA).startswith(
            "membership=boundary")

    def test_rejects_boundary_datum(self):
        wells = mg.make_wells(DELTA)
        with pytest.raises(WrongEntryPointError):
            en.Engine(en.unit_square_domain(), wells.F0, DELTA)

    def test_rejects_non_unimodular_datum(self):
        with pytest.raises(WrongEntryPointError):
            en.Engine(en.unit_square_domain(), 1.2 * np.eye(2), DELTA)

    def test_rejects_foreign_well_pairs(self):
        class NotWells:
            F0 = np.diag([1.0, 1.5])
        with pytest.raises(WrongEntryPointError) as err:
            en.Engine(en.unit_square_domain(), rep_datum(), DELTA,
                      wells=NotWells())
        assert "NotWells" in str(err.value)

    def test_rejects_shear_wells_of_another_delta(self):
        with pytest.raises(WrongEntryPointError) as err:
            en.Engine(en.unit_square_domain(), rep_datum(), DELTA,
                      wells=mg.make_wells(3.0))
        assert "3.0" in str(err.value) and "0.5" in str(err.value)

    def test_rejects_unknown_checks(self):
        cfg = en.EngineConfig(checks="ful")
        with pytest.raises(InvalidParameterError) as err:
            en.Engine(en.unit_square_domain(), rep_datum(), DELTA, cfg)
        assert "'ful'" in str(err.value)

    def test_rejects_overlapping_domain(self):
        dom = np.array([
            [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
            [[0.25, 0.0], [0.75, 0.0], [0.5, 0.4]],
        ])
        with pytest.raises(InvalidDomainError):
            en.Engine(dom, rep_datum(), DELTA)

    def test_rejects_degenerate_domain(self):
        dom = np.array([[[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]])
        with pytest.raises(InvalidDomainError):
            en.Engine(dom, rep_datum(), DELTA)

    def test_single_triangle_domain(self):
        # one (3,2) triangle is the domain of that triangle alone; a
        # clockwise one is turned counter-clockwise, as in a stack
        tri = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        one = en.Engine(tri, rep_datum(), DELTA)
        stack = en.Engine(tri[None], rep_datum(), DELTA)
        assert one.state.verts.shape == (1, 3, 2)
        assert one.state.verts.tobytes() == stack.state.verts.tobytes()
        assert one.domain_area == 0.5

    @pytest.mark.parametrize("dom", [
        np.empty((0, 3, 2)), np.zeros((2, 4, 2)), np.zeros((3, 3)),
        np.zeros(6), [[[0.0, 0.0], [1.0, 0.0], [np.nan, 1.0]]],
        [[[0.0, 0.0], [np.inf, 0.0], [0.0, 1.0]]]],
        ids=["empty", "four-corners", "3x3", "flat", "nan", "inf"])
    def test_rejects_malformed_domain(self, dom):
        with pytest.raises(InvalidDomainError) as err:
            en.Engine(dom, rep_datum(), DELTA)
        assert "nonempty list of triangles" in str(err.value)

    @pytest.mark.parametrize("M", [
        np.eye(3), np.ones(4), [[1.0, np.nan], [0.0, 1.0]],
        [[np.inf, 0.0], [0.0, 1.0]]],
        ids=["3x3", "flat", "nan", "inf"])
    def test_rejects_malformed_datum(self, M):
        with pytest.raises(WrongEntryPointError) as err:
            en.Engine(en.unit_square_domain(), M, DELTA)
        assert "finite 2x2 matrix" in str(err.value)

    def test_hull_is_the_domain_boundary(self):
        # the unit square's diagonal is shared by its two triangles, so a
        # single-sided interval on it is stray, not domain boundary
        M = rep_datum()
        eng = en.Engine(en.unit_square_domain(), M, DELTA)
        assert eng.hull_segments.shape == (4, 2, 2)
        lower = en.unit_square_domain()[:1]
        _, stray = an.boundary_trace_residual(
            lower, M[None], np.zeros((1, 2)), M, eng.hull_segments)
        assert stray == pytest.approx(np.sqrt(2), rel=1e-12)

    def test_collinear_interior_side_is_stray(self):
        # an L of three unit squares: the side x = 1, 0 <= y <= 1 of its
        # two left squares is interior, though the line x = 1 carries the
        # re-entrant boundary side 1 <= y <= 2
        M = rep_datum()
        squares = [unit_square_at(x, y) for x, y in ((0, 0), (1, 0), (0, 1))]
        eng = en.Engine(np.concatenate(squares), M, DELTA)
        left = np.concatenate([squares[0], squares[2]])
        _, stray = an.boundary_trace_residual(
            left, M[None], np.zeros((4, 2)), M, eng.hull_segments,
            gid=np.zeros(4, dtype=np.int64))
        assert stray == pytest.approx(1.0, rel=1e-12)


class TestRunSoundness:
    def test_certified_every_step(self, small_run):
        eng, _ = small_run
        rows = eng.metrics.rows
        dom = eng.domain_area
        assert rows[-1]["k"] == 3
        for r in rows:
            assert r["partition_err"] <= 1e-10 * dom
            if "continuity_err" in r:
                assert r["continuity_err"] < 1e-9
                assert r["trace_err"] < 1e-10
        assert eng.restarts == 0

    def test_stage_monotone_and_advancing(self, small_run):
        eng, states = small_run
        mins = [r["min_stage"] for r in eng.metrics.rows]
        maxs = [r["max_stage"] for r in eng.metrics.rows]
        assert all(a <= b for a, b in zip(mins, mins[1:]))
        assert maxs[-1] > maxs[0]
        for st in states:
            # children never fall below the datum's stage
            assert st.stages.min() >= 2

    def test_stage_regression_raises(self):
        # piece 0 of the datum's plan mapped to a stage-1 gradient: its
        # children fall below their parent's stage, and the step raises
        cfg = en.EngineConfig(cell_budget=20_000, max_steps=1, checks="fast",
                              track_bv=False)
        eng = en.Engine(en.unit_square_domain(), rep_datum(), DELTA, cfg)
        eng.plan(0)
        low = eng._row(stage_one_datum())
        assert eng.table.stages[low] == 1 < eng.table.stages[0] == 2
        eng.piece_rows[0][0] = low
        st = eng.state
        with pytest.raises(ConstructionFailureError,
                           match=r"^stage regressed under cover of cell "
                                 r"(\d+)$") as err:
            eng.step()
        assert eng.state is st
        assert int(err.value.args[0].split()[-1]) in st.ids

    def test_mean_distance_non_increasing(self, small_run):
        md = [r["mean_dist"] for r in small_run[0].metrics.rows]
        assert all(b <= a + 1e-15 for a, b in zip(md, md[1:]))

    def test_streamed_l1_matches_state_pairs(self, small_run):
        # the step metric is accumulated from per-diamond plan units; the
        # sweep-free nested-partition integral must agree exactly
        eng, states = small_run
        rows = eng.metrics.rows
        for k in range(1, len(states)):
            direct = l1_diff(states[k - 1], states[k], "chi1")
            assert direct == pytest.approx(rows[k]["l1_chi_diff"],
                                           rel=1e-9, abs=1e-15)

    def test_parent_forest(self, small_run):
        _, states = small_run
        for prev, st in zip(states, states[1:]):
            assert st.prev_index.min() >= 0
            assert st.prev_index.max() < prev.n
            # every child's triangle sits inside its source cell's bbox
            lo = prev.verts[st.prev_index].min(axis=1) - 1e-12
            hi = prev.verts[st.prev_index].max(axis=1) + 1e-12
            assert (st.verts.min(axis=1) >= lo).all()
            assert (st.verts.max(axis=1) <= hi).all()

    def test_iso_fast_path_used(self, small_run):
        assert small_run[0].iso_fast_hits > 0

    def test_single_dyadic_aspect(self, small_run):
        eng, _ = small_run
        assert eng.h_dyadic_used == {eng.h0}

    def test_budget_respected(self, small_run):
        eng, _ = small_run
        for r in eng.metrics.rows:
            assert r["n_cells"] <= eng.config.cell_budget


class TestDeterminism:
    def test_bit_identical_metrics(self):
        cfg = en.EngineConfig(cell_budget=20_000, max_steps=2, checks="fast",
                              track_bv=False)
        a = en.run_construction(en.unit_square_domain(), rep_datum(), DELTA,
                                config=cfg)
        b = en.run_construction(en.unit_square_domain(), rep_datum(), DELTA,
                                config=cfg)
        ra, rb = a.metrics.rows, b.metrics.rows
        assert len(ra) == len(rb)
        for x, y in zip(ra, rb):
            assert x == y
        assert np.array_equal(a.state.verts, b.state.verts)
        assert np.array_equal(a.state.offs, b.state.offs)
        assert np.array_equal(a.state.ids, b.state.ids)


class TestBudgetPressure:
    def test_zero_steps_returns_initial_state(self):
        cfg = en.EngineConfig(max_steps=0)
        eng = en.Engine(en.unit_square_domain(), rep_datum(), DELTA,
                        config=cfg)
        eng.run()
        assert eng.state.k == 0
        assert eng.state.n == 2
        assert len(eng.metrics.rows) == 1

    def test_stall_leaves_the_recorded_state(self, stall_run):
        # a stalled step ends the run: it writes nothing to the state
        # and records no row
        eng, states = stall_run
        assert eng.stalled
        assert [row["k"] for row in eng.metrics.rows] == [0]
        assert states == [eng.state]
        fresh = en.Engine(en.unit_square_domain(), rep_datum(), DELTA,
                          eng.config)
        for name in en.COVER_COLUMNS + ("gid", "grads", "stages", "phases",
                                        "frozen", "ids", "parents",
                                        "prev_index"):
            assert np.array_equal(getattr(eng.state, name),
                                  getattr(fresh.state, name)), name
        assert eng.metrics.rows == fresh.metrics.rows
        with pytest.raises(ConstructionFailureError):
            eng.step()

    def test_largest_cells_refined_first(self, record_states):
        cfg = en.EngineConfig(cell_budget=25_000, max_steps=3, checks="fast",
                              track_bv=False)
        eng, states = en.restarting(record_states, en.unit_square_domain(),
                                    rep_datum(), DELTA, config=cfg)
        floor = eng.config.min_area_rel * eng.domain_area
        hit = 0
        for k in range(len(states) - 1):
            prev, st = states[k], states[k + 1]
            # candidates of this step: cells created by the previous one
            # (ids grow monotonically), everything else is already frozen
            if k == 0:
                cand = np.ones(prev.n, dtype=bool)
            else:
                cand = prev.ids > states[k - 1].ids.max()
            areas = prev.areas()
            cand &= areas >= floor
            refined = cand & ~np.isin(prev.ids, st.ids)
            skipped = cand & np.isin(prev.ids, st.ids)
            if refined.any() and skipped.any():
                hit += 1
                assert areas[refined].min() >= areas[skipped].max() - 1e-15
        assert hit > 0

    def test_frozen_cells_never_refined(self, record_states):
        cfg = en.EngineConfig(cell_budget=25_000, max_steps=3, checks="fast",
                              track_bv=False)
        _, states = en.restarting(record_states, en.unit_square_domain(),
                                  rep_datum(), DELTA, config=cfg)
        for prev, st in zip(states, states[1:]):
            # frozen ids of prev must survive verbatim into st
            fr = prev.ids[prev.frozen]
            assert np.isin(fr, st.ids).all()
            kept = np.isin(st.ids, prev.ids)
            assert np.isin(fr, st.ids[kept & st.frozen]).all()


@pytest.fixture
def engines(monkeypatch):
    """Every Engine built, in order."""
    built = []
    init = en.Engine.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(en.Engine, "__init__", counted)
    return built


def failing_above(h_max):
    """replace_dyadic_stage failing the aspect of every h0 above h_max."""
    full = cl.replace_dyadic_stage

    def replace(M, delta, h0):
        if h0 > h_max:
            raise AspectFailureError(f"forced failure at h = {h0:.2e}")
        return full(M, delta, h0)

    return replace


class TestRestarts:
    def test_uncalibrated_aspect_restarts(self):
        # h0 = 1/16 fails stage advancement for delta = 0.5; the runner
        # halves the aspect and the retry succeeds at 1/32
        cfg = en.EngineConfig(cell_budget=20_000, max_steps=1, checks="fast",
                              track_bv=False, h0=1 / 16)
        eng = en.run_construction(en.unit_square_domain(), rep_datum(), DELTA,
                                  config=cfg)
        assert eng.restarts == 1
        assert eng.h0 == 1 / 32
        assert eng.h_dyadic_used == {1 / 32}

    def test_direct_engine_has_no_restarts(self):
        # write_report reads restarts from any engine, not only from one
        # that run_construction returned
        cfg = en.EngineConfig(cell_budget=2_000, max_steps=1, checks="fast",
                              track_bv=False)
        eng = en.Engine(en.unit_square_domain(), rep_datum(), DELTA, cfg)
        assert eng.restarts == 0
        eng.run()
        assert eng.restarts == 0

    def test_restarts_down_the_ladder(self, monkeypatch, engines):
        # every aspect above 2^-9 fails: four restarts from 1/32, where
        # the parent's default of three restarts gave up
        monkeypatch.setattr(cl, "replace_dyadic_stage",
                            failing_above(2.0 ** -9))
        cfg = en.EngineConfig(cell_budget=20_000, max_steps=1, checks="fast",
                              track_bv=False, h0=1 / 32)
        eng = en.run_construction(en.unit_square_domain(), rep_datum(), DELTA,
                                  config=cfg)
        assert [e.h0 for e in engines] == [2.0 ** -j for j in range(5, 10)]
        assert eng.restarts == 4
        assert eng.h0 == 2.0 ** -9
        assert eng.h_dyadic_used == {2.0 ** -9}

    def test_restarts_end_at_the_floor(self, monkeypatch, engines):
        monkeypatch.setattr(cl, "replace_dyadic_stage", failing_above(0.0))
        cfg = en.EngineConfig(cell_budget=20_000, max_steps=1, checks="fast",
                              track_bv=False, h0=1 / 32)
        with pytest.raises(ConstructionFailureError,
                           match="after 16 attempts") as err:
            en.run_construction(en.unit_square_domain(), rep_datum(), DELTA,
                                config=cfg)
        assert not isinstance(err.value, AspectFailureError)
        assert [e.h0 for e in engines] == [2.0 ** -j for j in range(5, 21)]
        assert engines[-1].h0 == cl.H_FLOOR

    def test_other_failures_are_not_retried(self, monkeypatch, engines):
        full = an.continuity_terms

        def forced(grads, offs, *args, **kwargs):
            terms = full(grads, offs, *args, **kwargs)
            if offs.shape[0] > 5_000:
                return np.ones_like(terms)
            return terms

        monkeypatch.setattr(an, "continuity_terms", forced)
        cfg = en.EngineConfig(cell_budget=20_000, max_steps=3, checks="full",
                              track_bv=False)
        first = r"^continuity residual 1\.000e\+00 at step"
        with pytest.raises(ConstructionFailureError, match=first) as err:
            en.run_construction(en.unit_square_domain(), rep_datum(), DELTA,
                                config=cfg)
        assert not isinstance(err.value, AspectFailureError)
        assert len(engines) == 1


class TestLargeDelta:
    @pytest.mark.parametrize("delta", [4.0, 8.0])
    def test_children_have_positive_area(self, delta, record_states):
        # thin cells at large delta: in the sampler's local frames some of
        # their corner and end triangles have zero area; the engine lays
        # its children in absolute coordinates, where every cell of every
        # state keeps a positive area
        cfg = en.EngineConfig(cell_budget=50_000, max_steps=4, checks="fast",
                              track_bv=False)
        eng, states = en.restarting(record_states, en.unit_square_domain(),
                                    ia.stage_representative(2, delta), delta,
                                    config=cfg)
        assert eng.state.k == 4
        for st in states:
            assert (cv.tri_areas(st.verts) > 0).all(), st.k

    def test_full_checks_certify(self):
        # at delta = 4 the template does not fit the top rung of the
        # aspect ladder; calibration takes a lower one
        delta = 4.0
        cfg = en.EngineConfig(cell_budget=20_000, max_steps=3, checks="full",
                              track_bv=False)
        eng = en.run_construction(en.unit_square_domain(),
                                  ia.stage_representative(2, delta), delta,
                                  config=cfg)
        assert eng.state.k == 3
        assert eng.restarts == 0
        assert eng.h0 == 1 / 64
        for row in eng.metrics.rows[1:]:
            assert row["continuity_err"] <= en.CONTINUITY_TOL
            assert row["trace_err"] <= en.TRACE_TOL


FULL_SWEEP = an.sweep_intervals
SWEEP_TOTALS = an.sweep_totals


@pytest.fixture
def sweeps(monkeypatch):
    """Every sweep_totals call the engine makes: (verts, prev, result,
    cells); the result holds the twins passed."""
    calls = []

    def recorded(verts, prev, cells, twins):
        tot = SWEEP_TOTALS(verts, prev, cells, twins)
        assert tot.twins is twins or twins is None
        calls.append((verts, prev, tot, cells))
        return tot

    monkeypatch.setattr(an, "sweep_totals", recorded)
    return calls


def full_sweep_totals(tot, verts, cells):
    """The line totals of the full sweep of verts in tot's frame with
    tot's twin intervals left out (oracles.line_totals), after checking
    tot's twin terms against those intervals: every twin pair is one
    interval of the full sweep, and each cell's twin terms are its
    intervals' terms within 1e-12 (absolute for continuity; for the BV
    columns relative, or 1e-15 of the frame's diameter absolute).  The
    twin terms take the edge's own length and vertices, the sweep its
    interval's, whose length carries the rounding of positions along the
    line: a few ulps of the diameter, relative 1e-11 on a short edge."""
    sw = FULL_SWEEP(verts, tot.frame)
    flat = tot.twins.reshape(-1)
    e = np.flatnonzero(flat >= 0)
    assert np.array_equal(flat[flat[e]], e)
    assert np.count_nonzero(twin_intervals(sw, tot.twins)) == e.size // 2
    want = twin_totals(sw, cells, tot.twins)
    assert tot.twin_terms.shape == want.shape
    np.testing.assert_allclose(tot.twin_terms[:, :2], want[:, :2],
                               rtol=1e-12, atol=1e-15 * tot.frame[1])
    assert np.abs(tot.twin_terms[:, 2:] - want[:, 2:]).max(
        initial=0.0) <= 1e-12
    return line_totals(sw, cells, tot.twins)


class TestIncrementalSweep:
    """The engine carries each state's line totals into the next one's;
    the result equals the per-line reduction of the state's full interval
    sweep with its twin intervals left out, and the twin terms equal those
    intervals' terms."""

    def test_every_state_matches_full_sweep(self, sweeps,
                                            assert_same_totals,
                                            record_states):
        cfg = en.EngineConfig(cell_budget=20_000, max_steps=5, checks="full",
                              track_bv=True)
        for seed in (0, 3):
            # the datum of the benchmark's engine input seed
            datum = ia.sample_stage(2, DELTA, np.random.default_rng(seed))
            sweeps.clear()
            eng, states = en.restarting(record_states,
                                        en.unit_square_domain(), datum,
                                        DELTA, config=cfg)
            assert eng.restarts == 0
            # one sweep per state, carried from step 1
            assert len(states) == len(sweeps) == 6
            assert [call[1] is None for call in sweeps] == \
                [True] + [False] * 5
            carried = 0
            for k, (verts, prev, tot, cells) in enumerate(sweeps):
                st = states[k]
                assert verts is st.verts
                if prev is not None:
                    last, prev_index, n_kept = prev
                    assert last is sweeps[k - 1][2]
                    assert prev_index is st.prev_index
                    # kept cells first, then the children of covered ones
                    kept = prev_index[:n_kept]
                    assert np.array_equal(verts[:n_kept],
                                          states[k - 1].verts[kept])
                    assert not np.isin(prev_index[n_kept:], kept).any()
                    # a kept edge keeps its twin while the twin's cell is
                    # kept, and loses it once that cell is covered
                    had = np.take(last.twins, kept, axis=0) >= 0
                    has = tot.twins[:n_kept] >= 0
                    assert not (has & ~had).any()
                    carried += np.count_nonzero(has)
                    # the new pieces' twins: 26 of every 30 piece edges
                    assert np.count_nonzero(tot.twins[n_kept:] >= 0) > 0
                # every state holds all five term columns, in the run's
                # frame
                assert cells.gid is st.gid and cells.offs is st.offs
                assert tot.frame is sweeps[0][2].frame
                assert_same_totals(tot, full_sweep_totals(tot, verts, cells))
            assert carried > 0
            assert eng._totals is sweeps[-1][2]

    @pytest.mark.parametrize("run", ["ramp", "stage_one_run"])
    def test_rows_equal_the_public_checks(self, run, request,
                                          record_states):
        # the row values reduce the per-line totals and the twin terms;
        # each equals the public function evaluated on its state alone:
        # the trace and the stray bit for bit (a twin adds nothing to
        # them), the others within 1e-12, relative for the BV columns
        if run == "ramp":
            cfg = en.EngineConfig(cell_budget=20_000, max_steps=4,
                                  checks="full")
            eng, states = en.restarting(record_states,
                                        en.unit_square_domain(), rep_datum(),
                                        DELTA, config=cfg)
        else:
            eng, states = request.getfixturevalue(run)
        assert eng.config.checks == "full"
        assert len(states) == len(eng.metrics.rows) == 5
        for st, row in zip(states, eng.metrics.rows):
            sw = FULL_SWEEP(st.verts)
            assert row["bv_chi"] == pytest.approx(an.bv_seminorm_cells(
                st.verts, (st.phases == 1).astype(float), sweep=sw),
                rel=1e-12, abs=0.0), st.k
            assert row["bv_grad"] == pytest.approx(
                an.bv_seminorm(st, sweep=sw), rel=1e-12, abs=0.0), st.k
            assert row["continuity_err"] == pytest.approx(
                an.continuity_residual(st.verts, st.grads, st.offs,
                                       sweep=sw), rel=0.0, abs=1e-12), st.k
            assert (row["trace_err"], row["stray_boundary_len"]) == \
                an.boundary_trace_residual(
                    st.verts, st.table.grads, st.offs, eng.M,
                    eng.hull_segments, sweep=sw, gid=st.gid), st.k

    def test_restart_starts_from_full_sweep(self, sweeps,
                                            assert_same_totals):
        # h0 = 1/16 fails at step 1 before its state is recorded; the
        # retry's engine starts from a full sweep again
        cfg = en.EngineConfig(cell_budget=20_000, max_steps=3, checks="full",
                              track_bv=True, h0=1 / 16)
        eng = en.run_construction(en.unit_square_domain(), rep_datum(),
                                  DELTA, config=cfg)
        assert eng.restarts == 1
        assert [call[1] is None for call in sweeps] == [True] * 2 \
            + [False] * 3
        for verts, prev, tot, cells in sweeps[1:]:
            assert_same_totals(tot, full_sweep_totals(tot, verts, cells))

    def test_moving_frame_matches_full_sweep(self, sweeps, swept,
                                             assert_same_totals):
        # the unit square rotated and translated: a state's own bounding
        # box moves off the domain's by an ulp, and every state still
        # carries its predecessor's totals in the run's frame, equal to
        # the full sweep in that frame
        c, s = np.cos(0.3), np.sin(0.3)
        domain = en.unit_square_domain() @ np.array([[c, s], [-s, c]]) \
            + np.array([0.137, -2.71])
        cfg = en.EngineConfig(cell_budget=20_000, max_steps=4, checks="full")
        eng = en.Engine(domain, rep_datum(), DELTA, cfg)
        eng.run()
        assert eng.state.k == 4 and len(sweeps) == 5
        frame = sweeps[0][2].frame
        moved = 0
        for (verts, prev, tot, cells), n_edges in zip(sweeps, swept):
            own = an._frame(verts)
            moved += (own[0].tobytes() != frame[0].tobytes()
                      or own[1] != frame[1])
            assert tot.frame is frame
            if prev is not None:
                assert n_edges < 3 * verts.shape[0]
            assert_same_totals(tot, full_sweep_totals(tot, verts, cells))
        assert moved > 0

    def test_covered_twin_leaves_its_edge_to_the_sweep(self, sweeps,
                                                       assert_same_totals):
        # at this budget step 2 covers some pieces of a diamond and keeps
        # their siblings: a kept edge whose twin is covered enters the
        # lines (it is hashed and swept), and its cell's twin terms are
        # evaluated again without that pair
        cfg = en.EngineConfig(cell_budget=120_000, max_steps=2,
                              checks="full")
        eng = en.Engine(en.unit_square_domain(), rep_datum(), DELTA, cfg)
        eng.run()
        (_, _, last, _), (verts, prev, tot, cells) = sweeps[1:]
        _, prev_index, n_kept = prev
        had = np.take(last.twins, prev_index[:n_kept], axis=0) >= 0
        gone = had & (tot.twins[:n_kept] < 0)
        assert 0 < np.count_nonzero(gone) < np.count_nonzero(had)
        assert (tot.edge_hash[:n_kept][gone] != 0).all()
        assert_same_totals(tot, full_sweep_totals(tot, verts, cells))

    def test_nudged_vertex_is_swept(self, sweeps, monkeypatch, swept,
                                    assert_same_totals):
        # vertex 0 of piece 0 of the first diamond laid, moved by an ulp:
        # the two pairs through it (edges 0 and 2 of the piece) are no
        # twins, so the four edges are swept with the line edges; the
        # piece's third pair stays a twin, and the rows equal the public
        # checks on the full sweep within the stated tolerance
        place = cl.RefinePlan.place
        moved = []

        def nudged(self, centers, r, off):
            verts, offs = place(self, centers, r, off)
            if not moved:
                verts[0, 0, 0, 0] = np.nextafter(verts[0, 0, 0, 0], np.inf)
                moved.append(verts[0, 0, 0].copy())
            return verts, offs

        monkeypatch.setattr(cl.RefinePlan, "place", nudged)
        cfg = en.EngineConfig(cell_budget=20_000, max_steps=2, checks="full")
        eng = en.Engine(en.unit_square_domain(), rep_datum(), DELTA, cfg)
        plan = eng.plan(0)
        table = {(i, j) for i, j, k, l in plan.twins} | {
            (k, l) for i, j, k, l in plan.twins}
        assert {(0, 0), (0, 1), (0, 2)} <= table
        eng.step()
        verts, _, tot, cells = sweeps[1]
        cell = np.flatnonzero((verts[:, 0] == moved[0]).all(axis=1))
        assert cell.size == 1
        edges = 3 * cell[0] + np.arange(3)
        twins = tot.twins.reshape(-1)
        assert (twins[edges] < 0).tolist() == [True, False, True]
        # the former twins of edges 0 and 2: edge 0 of piece 3, edge 0 of
        # piece 1 (plan_twins' rows (0, 0, 3, 0) and (0, 2, 1, 0))
        partners = 3 * (cell[0] + np.array([3, 1]))
        assert (twins[partners] < 0).all()
        assert (tot.edge_hash.reshape(-1)[np.concatenate(
            [edges[[0, 2]], partners])] != 0).all()
        assert_same_totals(tot, full_sweep_totals(tot, verts, cells))
        sw = FULL_SWEEP(verts)
        row = eng.metrics.rows[-1]
        assert row["bv_chi"] == pytest.approx(an.bv_seminorm_cells(
            verts, (eng.state.phases == 1).astype(float), sweep=sw),
            rel=1e-12, abs=0.0)
        assert row["continuity_err"] == pytest.approx(an.continuity_residual(
            verts, eng.state.grads, eng.state.offs, sweep=sw),
            rel=0.0, abs=1e-12)

    def test_twin_continuity_defect_raises(self, monkeypatch):
        # an offset moved by 1e-6 on piece 0 of every diamond laid: all
        # three edges of that piece are twins, so only the twin terms see
        # the mismatch, and full checks raise on it
        place = cl.RefinePlan.place

        def planted(self, centers, r, off):
            verts, offs = place(self, centers, r, off)
            offs[:, 0] += 1e-6
            return verts, offs

        monkeypatch.setattr(cl.RefinePlan, "place", planted)
        cfg = en.EngineConfig(cell_budget=20_000, max_steps=2, checks="full")
        eng = en.Engine(en.unit_square_domain(), rep_datum(), DELTA, cfg)
        assert {j for i, j, k, l in eng.plan(0).twins if i == 0} | {
            l for i, j, k, l in eng.plan(0).twins if k == 0} == {0, 1, 2}
        with pytest.raises(ConstructionFailureError,
                           match=r"^continuity residual 1\.\d+e-06 at step 1"):
            eng.step()

    def test_fast_run_carries_no_line_keys(self, sweeps):
        cfg = en.EngineConfig(cell_budget=20_000, max_steps=3, checks="fast",
                              track_bv=False)
        eng = en.run_construction(en.unit_square_domain(), rep_datum(),
                                  DELTA, config=cfg)
        assert eng.state.k == 3
        assert sweeps == []
        assert eng._totals is None

    @pytest.mark.parametrize("checks", ["fast", "full"])
    def test_forced_overlap_is_carried(self, checks, sweeps, monkeypatch,
                                       swept, assert_same_totals):
        # the sweep of step 1 reports an overlap on every interval: a full
        # check fails the step, and a fast run keeps carrying into step 2,
        # whose clean lines keep their overlap and whose swept ones read
        # the real sweep's
        sweep = an._sweep

        def overlapping(edges, rows, line, verts, frame):
            fields = sweep(edges, rows, line, verts, frame)
            if len(sweeps) == 1:
                fields = fields[:6] + (np.ones_like(fields[6]),)
            return fields

        monkeypatch.setattr(an, "_sweep", overlapping)
        cfg = en.EngineConfig(cell_budget=20_000, max_steps=2, checks=checks,
                              track_bv=True)
        eng = en.Engine(en.unit_square_domain(), rep_datum(), DELTA, cfg)
        if checks == "full":
            with pytest.raises(ConstructionFailureError,
                               match="overlapping cells at step 1"):
                eng.step()
            return
        keys = []
        sweep_lines = an._sweep_lines

        def swept_keys(table, *args):
            keys.append({tuple(k) for k in table[1]})
            return sweep_lines(table, *args)

        monkeypatch.setattr(an, "_sweep_lines", swept_keys)
        eng.run()
        verts, _, tot, cells = sweeps[2]
        assert swept[-1] < 3 * verts.shape[0]
        assert sweeps[1][2].overlap.all()
        clean = {tuple(k) for k in sweeps[1][2].line} - keys[-1]
        assert clean
        want = full_sweep_totals(tot, verts, cells)
        assert not want["overlap"].any()
        want["overlap"] = np.array([tuple(k) in clean for k in want["line"]])
        assert tot.overlap_error
        assert_same_totals(tot, want)


class TestLowStageEntry:
    def test_stage_zero_datum_runs(self):
        # interior stage-0 datum exercises the verify-and-shrink rule
        z0 = ia.zeta0(DELTA)
        M0 = ia.matrix_from_gaps(0.75 * z0, 0.75 * z0, DELTA, 1)
        cfg = en.EngineConfig(cell_budget=30_000, max_steps=2, checks="full",
                              track_bv=False)
        eng = en.run_construction(en.unit_square_domain(), M0, DELTA,
                                  config=cfg)
        rows = eng.metrics.rows
        assert rows[0]["min_stage"] == 0
        assert rows[-1]["max_stage"] >= 1
        assert rows[-1]["continuity_err"] < 1e-9

    def test_stage_one_datum_takes_the_fast_path(self, stage_one_run):
        # a stage-1 datum: its low-stage plan lifts pieces more than one
        # stage, and the isosceles leftovers of that cover later take
        # the fast path under the same plan
        eng, _ = stage_one_run
        assert ia.classify(eng.M, DELTA) == 1
        assert eng.state.k == 4
        assert eng.iso_fast_hits > 0
        assert all(r["continuity_err"] < 1e-9 for r in eng.metrics.rows[1:])


class TestRecordedStates:
    def test_states_match_their_rows(self, ramp_run, stall_run):
        # a state is not written after its row is recorded, also when a
        # step stalls
        for (eng, states), n in ((ramp_run, 4), (stall_run, 1)):
            rows = eng.metrics.rows
            assert len(states) == len(rows) == n
            for st, row in zip(states, rows):
                assert st.k == row["k"]
                assert (float(st.areas()[st.frozen].sum())
                        == row["frozen_measure"])
                assert int(np.count_nonzero(~st.frozen)) == row["n_active"]

    @pytest.mark.parametrize("run", ["ramp_run", "stage_one_run"])
    def test_iso_cells_are_members_of_their_plan_class(self, run, request):
        # st.iso records that the cell is an isosceles triangle of its
        # plan's aspect with its apex axis along the plan's diamond axis
        eng, states = request.getfixturevalue(run)
        tagged = 0
        for st in states:
            cells = np.flatnonzero(st.iso)
            tagged += cells.size
            rows, which = np.unique(st.gid[cells], return_inverse=True)
            for g, row in enumerate(rows):
                plan = eng.plan(int(row))
                member, axis = cv.iso_membership(
                    st.verts[cells[which == g]], plan.h)
                assert member.all()
                assert (np.abs(axis @ plan.dhat) >= 1 - cv.ISO_TOL).all()
        assert tagged > 0


@pytest.fixture(scope="module", params=["stage_two", "cli_default"])
def table_run(request):
    """A three-step run on a stage-2 datum or on the CLI's default
    (stage-0) boundary, the state each of its rows recorded, and copies of
    the grads, stages and phases of each state taken right after it was
    recorded."""
    if request.param == "stage_two":
        M, delta, stage = rep_datum(), DELTA, 2
    else:
        run = cli.RunConfig()
        M, delta = cli.parse_boundary(run.boundary, run.delta), run.delta
        stage = 0
    assert ia.classify(M, delta) == stage
    cfg = en.EngineConfig(cell_budget=20_000, max_steps=3, checks="fast",
                          track_bv=False)
    eng = en.Engine(en.unit_square_domain(), M, delta, cfg)
    states, copies = [], []
    while True:
        st = eng.state
        states.append(st)
        copies.append((st.grads.copy(), st.stages.copy(), st.phases.copy()))
        if st.k == cfg.max_steps:
            return eng, states, copies
        eng.step()


class TestGradientTable:
    def test_rows_are_distinct_gradients(self, table_run):
        eng, _, _ = table_run
        grads = eng.table.grads
        assert len({G.tobytes() for G in grads}) == grads.shape[0]
        # each plan's piece rows hold its pieces' gradients, then its own
        assert len(eng.piece_rows) == len(eng._plans) > 0
        for row, plan in eng._plans.items():
            rows = eng.piece_rows[row]
            assert rows[-1] == row
            assert np.array_equal(grads[rows], np.concatenate(
                [plan.grads, plan.M[None]]))

    def test_stage_and_phase_of_each_row(self, table_run):
        eng, _, _ = table_run
        t = eng.table
        assert t.stages.dtype == np.int16 and t.phases.dtype == np.uint8
        assert t.stages.tolist() == [ia.classify(G, eng.delta)
                                     for G in t.grads]
        assert np.array_equal(t.phases, mg.phases(t.grads, eng.wells))

    def test_kept_states_read_what_was_recorded(self, table_run):
        # later steps append rows; a kept state still gathers its own
        eng, states, copies = table_run
        assert len(states) == len(copies) == 4
        assert states[0].table.grads.shape[0] == 1
        assert eng.table.grads.shape[0] > 1
        for st, (grads, stages, phases) in zip(states, copies):
            for got, want in ((st.grads, grads), (st.stages, stages),
                              (st.phases, phases)):
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)


CARRIED = ("perimeter_sum", "frozen_measure", "mean_dist", "energy",
           "partition_err")


def measured(eng, st):
    """The carried columns of st's row, measured on st alone."""
    areas = cv.tri_areas(st.verts)
    total = float(areas.sum())
    dists = mg.dist_to_wells_b(st.grads, eng.wells).min(axis=1)
    return {"perimeter_sum": float(cv.tri_perimeters(st.verts).sum()),
            "frozen_measure": float(areas[st.frozen].sum()),
            "mean_dist": float(np.sum(areas * dists) / total),
            "energy": float(np.sum(areas * 2.0 ** (-0.5 * st.stages.astype(
                float)))),
            "partition_err": abs(total - eng.domain_area)}


def restarted_run(record_states):
    # h0 = 1/16 fails at step 1 before its state is recorded; the retry
    # records every state
    cfg = en.EngineConfig(cell_budget=20_000, max_steps=3, checks="fast",
                          track_bv=False, h0=1 / 16)
    eng, states = en.restarting(record_states, en.unit_square_domain(),
                                rep_datum(), DELTA, config=cfg)
    assert eng.restarts == 1 and eng.state.k == 3
    return eng, states


@pytest.fixture
def measure_calls(monkeypatch):
    """The cells Engine._record passes to tri_areas and tri_perimeters."""
    calls = {"tri_areas": [], "tri_perimeters": []}
    for name, log in calls.items():
        def spy(verts, full=getattr(cv, name), log=log):
            if sys._getframe(1).f_code is en.Engine._record.__code__:
                log.append(verts)
            return full(verts)
        monkeypatch.setattr(cv, name, spy)
    return calls


class TestCarriedColumns:
    """_record carries each kept cell's area and perimeter from the state
    before and measures only the children; the rows keep their bits."""

    @pytest.mark.parametrize("run", ["ramp_run", "two-plans",
                                     "stage_one_run", "stall_run",
                                     "restarted"])
    def test_rows_equal_a_measure_of_the_state(self, run, request, stepped,
                                               record_states):
        if run == "two-plans":
            eng, states, _ = stepped(run)
        elif run == "restarted":
            eng, states = restarted_run(record_states)
        else:
            eng, states = request.getfixturevalue(run)
        rows = eng.metrics.rows
        assert len(states) == len(rows) == eng.state.k + 1
        # the two-plans state 0 was rewritten after its row was recorded
        first = 1 if run == "two-plans" else 0
        for st, row in zip(states[first:], rows[first:]):
            want = measured(eng, st)
            assert {c: row[c] for c in CARRIED} == want, st.k

    def test_only_children_are_measured(self, measure_calls, record_states):
        _, states = restarted_run(record_states)
        for name, log in measure_calls.items():
            # the failed attempt's row 0, then the retry's row 0, both
            # whole states; then the children of each step
            assert [v.shape[0] for v in log[:2]] == [2, 2], name
            assert len(log) == 2 + len(states) - 1, name
            carried = 0
            for prev, st, verts in zip(states, states[1:], log[2:]):
                n_kept = int(np.count_nonzero(np.isin(st.ids, prev.ids)))
                carried += n_kept
                assert np.array_equal(verts, st.verts[n_kept:]), name
            assert carried > 0

    def test_previous_state_released_before_the_sweep(self, monkeypatch):
        cfg = en.EngineConfig(cell_budget=20_000, max_steps=3, checks="fast",
                              track_bv=True)
        eng = en.Engine(en.unit_square_domain(), rep_datum(), DELTA, cfg)
        last = []            # a weak reference to the state before a step
        released = []

        def sweep(verts, prev, cells, twins):
            released.append(last[-1]() is None)
            return SWEEP_TOTALS(verts, prev, cells, twins)

        monkeypatch.setattr(an, "sweep_totals", sweep)
        for _ in range(cfg.max_steps):
            last.append(weakref.ref(eng.state))
            eng.step()
        assert eng.state.k == 3
        assert released == [True] * 3

    def test_step_that_covers_nothing(self, record_states):
        # no cell reaches the area floor: every step keeps every cell
        cfg = en.EngineConfig(cell_budget=20_000, max_steps=2,
                              min_area_rel=1.0, checks="full")
        eng = en.Engine(en.unit_square_domain(), rep_datum(), DELTA, cfg)
        states = record_states(eng)
        rows = eng.metrics.rows
        assert [r["n_cells"] for r in rows] == [2, 2, 2]
        assert rows[2]["frozen_measure"] == 1.0
        for st, row in zip(states, rows):
            assert {c: row[c] for c in CARRIED} == measured(eng, st)
