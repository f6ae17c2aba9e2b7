"""tools/peak_probe.py: per-call traced memory of the sweep's layers."""

import importlib.util
import os

import pytest

from twowell import analysis as an

PROBE = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "tools", "peak_probe.py")


@pytest.fixture(scope="module")
def peak_probe():
    spec = importlib.util.spec_from_file_location("peak_probe", PROBE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
    # a carried sweep runs all three helpers: some call does
    assert sum(r[0] == "_merge_rows" for r in rows) > 0
    outer = None
    for row, line in zip(rows, calls):
        entry, peak, ret = map(float, row[1:])
        assert peak >= max(entry, ret)
        if line.startswith("sweep_intervals"):
            outer = peak
        else:
            # a helper runs inside its sweep, whose peak covers it
            assert line.startswith("  ") and peak <= outer
    assert lines[-2].startswith("traced peak of the run")
    assert float(lines[-2].split()[-2]) >= max(float(r[2]) for r in rows)
    assert lines[-1].startswith("peak resident set")
