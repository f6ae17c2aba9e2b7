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

DELTA = 0.5


def rep_datum(stage=2):
    return ia.stage_representative(stage, DELTA)


def stage_one_datum():
    return np.array([[0.9973157602026531, 0.48745354630644433],
                     [1.0536712127723509e-08, 1.0026914694830042]])


@pytest.fixture(scope="module")
def ramp_run():
    cfg = en.EngineConfig(cell_budget=20_000, max_steps=3, checks="fast",
                          track_bv=False, keep_states=True)
    eng = en.Engine(en.unit_square_domain(), rep_datum(), DELTA, cfg)
    eng.run()
    return eng


@pytest.fixture(scope="module")
def stage_one_run():
    cfg = en.EngineConfig(cell_budget=20_000, max_steps=4, checks="full",
                          keep_states=True)
    eng = en.Engine(en.unit_square_domain(), stage_one_datum(), DELTA, cfg)
    eng.run()
    return eng


@pytest.fixture(scope="module")
def stall_run():
    # no cover of either root cell fits under this budget: the first
    # step stalls
    cfg = en.EngineConfig(cell_budget=50, max_steps=3, checks="fast",
                          track_bv=False, keep_states=True)
    eng = en.Engine(en.unit_square_domain(), rep_datum(), DELTA, cfg)
    eng.run()
    return eng


@pytest.fixture(scope="module")
def small_run():
    cfg = en.EngineConfig(cell_budget=60_000, max_steps=3, checks="full",
                          track_bv=True, keep_states=True)
    return en.run_construction(en.unit_square_domain(), rep_datum(), DELTA,
                               config=cfg)


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


class TestRunSoundness:
    def test_certified_every_step(self, small_run):
        rows = small_run.metrics.rows
        dom = small_run.domain_area
        assert rows[-1]["k"] == 3
        for r in rows:
            assert r["partition_err"] <= 1e-10 * dom
            if "continuity_err" in r:
                assert r["continuity_err"] < 1e-9
                assert r["trace_err"] < 1e-10
        assert small_run.restarts == 0

    def test_stage_monotone_and_advancing(self, small_run):
        mins = [r["min_stage"] for r in small_run.metrics.rows]
        maxs = [r["max_stage"] for r in small_run.metrics.rows]
        assert all(a <= b for a, b in zip(mins, mins[1:]))
        assert maxs[-1] > maxs[0]
        for st in small_run.states:
            # children never fall below the datum's stage
            assert st.stages.min() >= 2

    def test_mean_distance_non_increasing(self, small_run):
        md = [r["mean_dist"] for r in small_run.metrics.rows]
        assert all(b <= a + 1e-15 for a, b in zip(md, md[1:]))

    def test_streamed_l1_matches_state_pairs(self, small_run):
        # the step metric is accumulated from per-diamond plan units; the
        # sweep-free nested-partition integral must agree exactly
        states = small_run.states
        rows = small_run.metrics.rows
        for k in range(1, len(states)):
            direct = an.l1_diff(states[k - 1], states[k], "chi1")
            assert direct == pytest.approx(rows[k]["l1_chi_diff"],
                                           rel=1e-9, abs=1e-15)

    def test_parent_forest(self, small_run):
        for prev, st in zip(small_run.states, small_run.states[1:]):
            assert st.prev_index.min() >= 0
            assert st.prev_index.max() < prev.n
            # every child's triangle sits inside its source cell's bbox
            lo = prev.verts[st.prev_index].min(axis=1) - 1e-12
            hi = prev.verts[st.prev_index].max(axis=1) + 1e-12
            assert (st.verts.min(axis=1) >= lo).all()
            assert (st.verts.max(axis=1) <= hi).all()

    def test_iso_fast_path_used(self, small_run):
        assert small_run.iso_fast_hits > 0

    def test_single_dyadic_aspect(self, small_run):
        assert small_run.h_dyadic_used == {small_run.h0}

    def test_budget_respected(self, small_run):
        for r in small_run.metrics.rows:
            assert r["n_cells"] <= small_run.config.cell_budget


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
        assert stall_run.stalled
        assert [row["k"] for row in stall_run.metrics.rows] == [0]
        assert stall_run.states == [stall_run.state]
        fresh = en.Engine(en.unit_square_domain(), rep_datum(), DELTA,
                          stall_run.config)
        for name in en.COVER_COLUMNS + ("gid", "grads", "stages", "phases",
                                        "frozen", "ids", "parents",
                                        "prev_index"):
            assert np.array_equal(getattr(stall_run.state, name),
                                  getattr(fresh.state, name)), name
        assert stall_run.metrics.rows == fresh.metrics.rows
        with pytest.raises(ConstructionFailureError):
            stall_run.step()

    def test_largest_cells_refined_first(self):
        cfg = en.EngineConfig(cell_budget=25_000, max_steps=3, checks="fast",
                              track_bv=False, keep_states=True)
        eng = en.run_construction(en.unit_square_domain(), rep_datum(), DELTA,
                                  config=cfg)
        states = eng.states
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

    def test_frozen_cells_never_refined(self):
        cfg = en.EngineConfig(cell_budget=25_000, max_steps=3, checks="fast",
                              track_bv=False, keep_states=True)
        eng = en.run_construction(en.unit_square_domain(), rep_datum(), DELTA,
                                  config=cfg)
        for prev, st in zip(eng.states, eng.states[1:]):
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
        full = an.continuity_residual

        def forced(verts, *args, **kwargs):
            if verts.shape[0] > 5_000:
                return 1.0
            return full(verts, *args, **kwargs)

        monkeypatch.setattr(an, "continuity_residual", forced)
        cfg = en.EngineConfig(cell_budget=20_000, max_steps=3, checks="full",
                              track_bv=False)
        first = r"^continuity residual 1\.000e\+00 at step"
        with pytest.raises(ConstructionFailureError, match=first) as err:
            en.run_construction(en.unit_square_domain(), rep_datum(), DELTA,
                                config=cfg)
        assert not isinstance(err.value, AspectFailureError)
        assert len(engines) == 1


class TestLargeDelta:
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


@pytest.fixture
def sweeps(monkeypatch):
    """Every sweep_intervals call the engine makes: (verts, prev, result)."""
    calls = []

    def recorded(verts, prev=None):
        sw = FULL_SWEEP(verts, prev)
        calls.append((verts, prev, sw))
        return sw

    monkeypatch.setattr(an, "sweep_intervals", recorded)
    return calls


class TestIncrementalSweep:
    """The engine carries each state's sweep into the next one's; the
    result equals the sweep of the state alone."""

    def test_every_state_matches_full_sweep(self, sweeps, assert_same_sweep):
        cfg = en.EngineConfig(cell_budget=20_000, max_steps=5, checks="full",
                              track_bv=True, keep_states=True)
        eng = en.run_construction(en.unit_square_domain(), rep_datum(),
                                  DELTA, config=cfg)
        # the domain check, then one sweep per state, carried from step 1
        assert len(eng.states) == 6 and len(sweeps) == 7
        assert [prev is None for _, prev, _ in sweeps] == [True] * 2 \
            + [False] * 5
        for k, (verts, prev, sw) in enumerate(sweeps[1:]):
            st = eng.states[k]
            assert verts is st.verts
            if prev is not None:
                last, prev_index, n_kept = prev
                assert last is sweeps[k][2]
                assert prev_index is st.prev_index
                # kept cells first, then the children of covered ones
                kept = prev_index[:n_kept]
                assert np.array_equal(verts[:n_kept],
                                      eng.states[k - 1].verts[kept])
                assert not np.isin(prev_index[n_kept:], kept).any()
            assert_same_sweep(sw, FULL_SWEEP(verts))
        assert eng._sweep is sweeps[-1][2]

    def test_restart_starts_from_full_sweep(self, sweeps, assert_same_sweep):
        # h0 = 1/16 fails at step 1 before its state is recorded; the
        # retry's engine starts from a full sweep again
        cfg = en.EngineConfig(cell_budget=20_000, max_steps=3, checks="full",
                              track_bv=True, h0=1 / 16)
        eng = en.run_construction(en.unit_square_domain(), rep_datum(),
                                  DELTA, config=cfg)
        assert eng.restarts == 1
        assert [prev is None for _, prev, _ in sweeps] == [True] * 4 \
            + [False] * 3
        for verts, prev, sw in sweeps[4:]:
            assert_same_sweep(sw, FULL_SWEEP(verts))

    def test_fast_run_carries_no_line_keys(self, sweeps):
        cfg = en.EngineConfig(cell_budget=20_000, max_steps=3, checks="fast",
                              track_bv=False)
        eng = en.run_construction(en.unit_square_domain(), rep_datum(),
                                  DELTA, config=cfg)
        assert eng.state.k == 3
        assert len(sweeps) == 1             # the domain check only
        assert eng._sweep is None


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
        eng = stage_one_run
        assert ia.classify(eng.M, DELTA) == 1
        assert eng.state.k == 4
        assert eng.iso_fast_hits > 0
        assert all(r["continuity_err"] < 1e-9 for r in eng.metrics.rows[1:])


class TestRecordedStates:
    def test_states_match_their_rows(self, ramp_run, stall_run):
        # a state is not written after its row is recorded, also when a
        # step stalls
        for eng, n in ((ramp_run, 4), (stall_run, 1)):
            rows = eng.metrics.rows
            assert len(eng.states) == len(rows) == n
            for st, row in zip(eng.states, rows):
                assert st.k == row["k"]
                assert (float(st.areas()[st.frozen].sum())
                        == row["frozen_measure"])
                assert int(np.count_nonzero(~st.frozen)) == row["n_active"]

    @pytest.mark.parametrize("run", ["ramp_run", "stage_one_run"])
    def test_iso_cells_are_members_of_their_plan_class(self, run, request):
        # st.iso records that the cell is an isosceles triangle of its
        # plan's aspect with its apex axis along the plan's diamond axis
        eng = request.getfixturevalue(run)
        tagged = 0
        for st in eng.states:
            cells = np.flatnonzero(st.iso)
            tagged += cells.size
            rows, which = np.unique(st.gid[cells], return_inverse=True)
            for g, row in enumerate(rows):
                plan = eng._plan(int(row))
                member, axis = cv.iso_membership(
                    st.verts[cells[which == g]], plan.h)
                assert member.all()
                assert (np.abs(axis @ plan.dhat) >= 1 - cv.ISO_TOL).all()
        assert tagged > 0


@pytest.fixture(scope="module", params=["stage_two", "cli_default"])
def table_run(request):
    """A three-step run with keep_states on a stage-2 datum or on the CLI's
    default (stage-0) boundary, and copies of the grads, stages and phases
    of each state taken right after it was recorded."""
    if request.param == "stage_two":
        M, delta, stage = rep_datum(), DELTA, 2
    else:
        run = cli.RunConfig()
        M, delta = cli.parse_boundary(run.boundary, run.delta), run.delta
        stage = 0
    assert ia.classify(M, delta) == stage
    cfg = en.EngineConfig(cell_budget=20_000, max_steps=3, checks="fast",
                          track_bv=False, keep_states=True)
    eng = en.Engine(en.unit_square_domain(), M, delta, cfg)
    copies = []
    while True:
        st = eng.state
        copies.append((st.grads.copy(), st.stages.copy(), st.phases.copy()))
        if st.k == cfg.max_steps:
            return eng, copies
        eng.step()


class TestGradientTable:
    def test_rows_are_distinct_gradients(self, table_run):
        eng, _ = table_run
        grads = eng.table.grads
        assert len({G.tobytes() for G in grads}) == grads.shape[0]
        # each plan's piece rows hold its pieces' gradients, then its own
        assert len(eng.piece_rows) == len(eng._plans) > 0
        for row, plan in eng._plans.items():
            rows = eng.piece_rows[id(plan)]
            assert rows[-1] == row
            assert np.array_equal(grads[rows], np.concatenate(
                [plan.grads, plan.M[None]]))

    def test_stage_and_phase_of_each_row(self, table_run):
        eng, _ = table_run
        t = eng.table
        assert t.stages.dtype == np.int16 and t.phases.dtype == np.uint8
        assert t.stages.tolist() == [ia.classify(G, eng.delta)
                                     for G in t.grads]
        assert np.array_equal(t.phases, mg.phases(t.grads, eng.wells))

    def test_kept_states_read_what_was_recorded(self, table_run):
        # later steps append rows; a kept state still gathers its own
        eng, copies = table_run
        assert len(eng.states) == len(copies) == 4
        assert eng.states[0].table.grads.shape[0] == 1
        assert eng.table.grads.shape[0] > 1
        for st, (grads, stages, phases) in zip(eng.states, copies):
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


def restarted_run():
    # h0 = 1/16 fails at step 1 before its state is recorded; the retry
    # records every state
    cfg = en.EngineConfig(cell_budget=20_000, max_steps=3, checks="fast",
                          track_bv=False, h0=1 / 16, keep_states=True)
    eng = en.run_construction(en.unit_square_domain(), rep_datum(), DELTA,
                              config=cfg)
    assert eng.restarts == 1 and eng.state.k == 3
    return eng


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
    def test_rows_equal_a_measure_of_the_state(self, run, request, stepped):
        if run == "two-plans":
            eng = stepped(run)[0]
        elif run == "restarted":
            eng = restarted_run()
        else:
            eng = request.getfixturevalue(run)
        states, rows = eng.states, eng.metrics.rows
        assert len(states) == len(rows) == eng.state.k + 1
        # the two-plans state 0 was rewritten after its row was recorded
        first = 1 if run == "two-plans" else 0
        for st, row in zip(states[first:], rows[first:]):
            want = measured(eng, st)
            assert {c: row[c] for c in CARRIED} == want, st.k

    def test_only_children_are_measured(self, measure_calls):
        eng = restarted_run()
        states = eng.states
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

        def sweep(verts, prev=None):
            released.append(last[-1]() is None)
            return FULL_SWEEP(verts, prev)

        monkeypatch.setattr(an, "sweep_intervals", sweep)
        for _ in range(cfg.max_steps):
            last.append(weakref.ref(eng.state))
            eng.step()
        assert eng.state.k == 3
        assert released == [True] * 3

    def test_step_that_covers_nothing(self):
        # no cell reaches the area floor: every step keeps every cell
        cfg = en.EngineConfig(cell_budget=20_000, max_steps=2,
                              min_area_rel=1.0, checks="full",
                              keep_states=True)
        eng = en.Engine(en.unit_square_domain(), rep_datum(), DELTA, cfg)
        eng.run()
        rows = eng.metrics.rows
        assert [r["n_cells"] for r in rows] == [2, 2, 2]
        assert rows[2]["frozen_measure"] == 1.0
        for st, row in zip(eng.states, rows):
            assert {c: row[c] for c in CARRIED} == measured(eng, st)
