"""tools/peak_probe.py: per-call traced memory of the sweep's layers;
tools/digests.py: the bit-identity digests of the plans and the sampler,
and the per-column digests of metric rows."""

import importlib.util
import os

import numpy as np
import pytest

from twowell import analysis as an
from twowell import cell as cl
from twowell import engine as en
from twowell import inapprox as ia
from twowell import lineage as lin

TOOLS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "tools")


def _load(name):
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(TOOLS, name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def peak_probe():
    return _load("peak_probe")


def test_probe_reports_every_call_and_unwraps(peak_probe, capsys):
    originals = {name: getattr(an, name) for name in peak_probe.TARGETS}
    assert peak_probe.main(["--workload", "big_run", "--input", "0",
                            "--toy"]) == 0
    for name, fn in originals.items():
        assert getattr(an, name) is fn, name
    lines = capsys.readouterr().out.splitlines()
    calls = lines[2:-2]
    rows = [ln.split() for ln in calls]
    assert {r[0] for r in rows} == set(peak_probe.TARGETS)
    # a carried step merges its clean and fresh line totals: some does
    assert sum(r[0] == "_merge_lines" for r in rows) > 0
    # every engine sweep evaluates twin terms, the first state's included
    assert sum(r[0] == "_twin_terms" for r in rows) == sum(
        r[0] == "sweep_totals" for r in rows)
    outer = None
    for row, line in zip(rows, calls):
        entry, peak, ret = map(float, row[1:4])
        assert peak >= max(entry, ret)
        if line.startswith("sweep_"):
            outer = peak
            # a sweep's counts: edges swept, twin pairs carried
            assert len(row) == 6 and int(row[4]) >= 0
            assert (row[5] == "-") == (row[0] == "sweep_intervals")
        else:
            # a helper runs inside its sweep, whose peak covers it
            assert line.startswith("  ") and peak <= outer
            assert len(row) == 4
    # the engine's placed diamonds carry twin pairs
    assert max(int(r[5]) for r in rows if r[0] == "sweep_totals") > 0
    assert lines[-2].startswith("traced peak of the run")
    assert float(lines[-2].split()[-2]) >= max(float(r[2]) for r in rows)
    assert lines[-1].startswith("peak resident set")


def test_plans_digests_are_pinned(monkeypatch):
    """The calibrated aspect table, the dyadic plans of stages 2..16 and
    the low-stage plans of the ten cli_pipeline boundary data are the same
    bit for bit.  The digests are pinned for numpy 2.4.6 (OpenBLAS 0.3.31)
    on the x86-64 host they were recorded on; another numpy, BLAS or CPU
    may round a 2x2 product differently and print other values."""
    digests = _load("digests")
    monkeypatch.setattr(cl, "_H0_CACHE", {})     # it clears the cache
    table, dyadic, low = digests.plans_digests()
    assert f"table {table} dyadic {dyadic} low {low}" == (
        "table a9880a3b3be7316d dyadic a5cb5dbf7d5c2a6c low 468b99b093d1c90e")


def test_sampled_rows_digest_is_pinned():
    """The rows of lineage.sample_generations on the stage-2
    representative (300 lineages, 4 generations, seed 0, no restart) are
    the same bit for bit.  Like the plans digests, the value is pinned for
    numpy 2.4.6 (OpenBLAS 0.3.31) on the x86-64 host it was recorded on."""
    digests = _load("digests")
    series = lin.sample_generations(en.unit_square_domain(),
                                    ia.stage_representative(2, 0.5), 0.5,
                                    n_samples=300, generations=4, seed=0)
    assert series.meta["restarts"] == 0
    assert digests.rows_digest(series.rows) == "946edd6fd729000c"


def test_sampled_rows_on_thin_cells_are_pinned():
    """At delta 8 thin cells lay squares so small that some of their
    corner and end triangles have zero area, and a point's margin to such
    a triangle is NaN; it must never win the located child.  The rows of
    the stage-2 representative at delta 8 (100 lineages, 3 generations,
    seed 0) reach such candidates and are the same bit for bit, pinned as
    above."""
    digests = _load("digests")
    series = lin.sample_generations(en.unit_square_domain(),
                                    ia.stage_representative(2, 8.0), 8.0,
                                    n_samples=100, generations=3, seed=0)
    assert digests.rows_digest(series.rows) == "0c1a3e6d2b7de1c7"


def test_column_digests_name_the_moved_column():
    """Two row lists that differ in one column (here by one ulp) get
    different digests for that column and equal ones for the others."""
    digests = _load("digests")
    rows = [{"k": k, "l1_chi_diff": 0.1 * k, "n_cells": 2 + k}
            for k in range(3)]
    moved = [dict(row) for row in rows]
    moved[2]["l1_chi_diff"] = float(np.nextafter(0.2, 1.0))
    a, b = digests.column_digests(rows), digests.column_digests(moved)
    assert list(a) == list(b) == ["k", "l1_chi_diff", "n_cells"]
    assert [name for name in a if a[name] != b[name]] == ["l1_chi_diff"]
