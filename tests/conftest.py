"""Shared pytest hooks: print the acceptance certificate after the run;
the sweep and line-totals comparisons, and the edge count of every sweep,
shared by the analysis and engine tests; the recorded states of a run and
the stepped engines shared by the lineage and engine tests; the row
comparison shared by the stacked-geometry tests."""

import sys

import numpy as np
import pytest

from twowell import analysis as an
from twowell import engine as en
from twowell import inapprox as ia
from twowell.errors import TwoWellError


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    for mod in list(sys.modules.values()):
        lines = getattr(mod, "CERTIFICATE_LINES", None)
        if lines:
            terminalreporter.section("acceptance certificate")
            for ln in lines:
                terminalreporter.write_line(ln)
            break


SWEEP_ARRAYS = ("dt", "left_owner", "right_owner", "point_lo", "point_hi",
                "line", "overlap")


def _assert_same_sweep(a, b):
    """Two SweepAccumulators are equal bit for bit (NaN equals NaN, so gap
    endpoints compare equal)."""
    for name in SWEEP_ARRAYS:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.shape == y.shape, name
        assert np.array_equal(x, y, equal_nan=x.dtype.kind == "f"), name
    assert a.frame[1] == b.frame[1]
    assert a.frame[0].tobytes() == b.frame[0].tobytes()


@pytest.fixture
def assert_same_sweep():
    return _assert_same_sweep


def _assert_same_totals(tot, want):
    """LineTotals tot holds the columns of the dict want (oracles.
    line_totals) bit for bit, and no term column that want lacks; want's
    frame is tot's."""
    for name in an.TERM_COLUMNS:
        assert (getattr(tot, name) is None) == (name not in want), name
    assert tot.frame[1] == want["frame"][1]
    assert tot.frame[0].tobytes() == want["frame"][0].tobytes()
    for name, y in want.items():
        if name == "frame":
            continue
        x = getattr(tot, name)
        assert x.dtype == y.dtype and x.shape == y.shape, name
        assert x.tobytes() == y.tobytes(), name


@pytest.fixture
def assert_same_totals():
    return _assert_same_totals


@pytest.fixture
def swept(monkeypatch):
    """The edge count of every table analysis._sweep_lines sweeps, in call
    order."""
    counts = []
    sweep_lines = an._sweep_lines

    def counted(edges, *args):
        counts.append(edges[0].shape[0])
        return sweep_lines(edges, *args)

    monkeypatch.setattr(an, "_sweep_lines", counted)
    return counts


def _assert_same_rows(errors, row, calls):
    """A stack's rows against their one-row calls.  Where calls[i]() raises,
    errors[i] is an error of its class with its message; where it returns a
    tuple, errors[i] is None and row(i), the stack's fields at row i,
    equals it bit for bit.  The stack must hold rows of both kinds."""
    for i, call in enumerate(calls):
        try:
            want = call()
        except TwoWellError as err:
            assert type(errors[i]) is type(err), (i, errors[i], err)
            assert str(errors[i]) == str(err), i
        else:
            assert errors[i] is None, (i, errors[i])
            for got, exp in zip(row(i), want, strict=True):
                assert (np.asarray(got).tobytes()
                        == np.asarray(exp).tobytes()), (i, got, exp)
    assert 0 < sum(e is None for e in errors) < len(errors)


@pytest.fixture
def assert_same_rows():
    return _assert_same_rows


def _record_states(eng):
    """Step eng as Engine.run does and return the state each of its rows
    recorded, row 0's first.  As an attempt of engine.restarting, a failed
    attempt's states go with its engine."""
    states = [eng.state]
    while eng.state.k < eng.config.max_steps and not eng.stalled:
        eng.step()
        if not eng.stalled:
            states.append(eng.state)
    return states


@pytest.fixture(scope="session")
def record_states():
    return _record_states


def _stepped(run):
    """An engine after its steps, the state each of its rows recorded, and
    the cover kinds the steps must use.

    "ramp": three steps of the capacity ramp at a 20k budget, one plan and
    one parent offset per batch.  "two-plans": four cells of a square
    carrying two stage-2 gradients (two cells each) at distinct nonzero
    offsets, all covered by one step, so each of its two generic batches
    mixes offsets.  Its state 0 is rewritten after its row is recorded.
    """
    delta = 0.5
    datum = ia.stage_representative(2, delta)
    if run == "ramp":
        cfg = en.EngineConfig(cell_budget=20_000, max_steps=3,
                              checks="fast", track_bv=False)
        eng = en.Engine(en.unit_square_domain(), datum, delta, cfg)
        states = _record_states(eng)
        assert eng.state.k == 3
        return eng, states, {"iso", "generic"}
    sq = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    domain = np.stack([[sq[k], sq[(k + 1) % 4], [0.5, 0.5]]
                       for k in range(4)])
    cfg = en.EngineConfig(cell_budget=100_000, max_steps=1, checks="fast",
                          track_bv=False)
    eng = en.Engine(domain, datum, delta, cfg)
    other = ia.sample_stage(2, delta, np.random.default_rng(3))
    assert ia.classify(other, delta) == 2
    st = eng.state
    st.gid[1::2] = eng._row(other)
    st.table = eng.table
    st.offs[:] = np.random.default_rng(0).normal(size=(4, 2))
    states = _record_states(eng)
    assert eng.state.k == 1 and len(eng._plans) == 2
    assert not np.isin(st.ids, eng.state.ids).any()
    return eng, states, {"generic"}


@pytest.fixture
def stepped():
    return _stepped
