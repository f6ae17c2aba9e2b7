"""Shared pytest hooks: print the acceptance certificate after the run;
the sweep comparison shared by the analysis and engine tests."""

import sys

import numpy as np
import pytest


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    for mod in list(sys.modules.values()):
        lines = getattr(mod, "CERTIFICATE_LINES", None)
        if lines:
            terminalreporter.section("acceptance certificate")
            for ln in lines:
                terminalreporter.write_line(ln)
            break


SWEEP_ARRAYS = ("dt", "left_owner", "right_owner", "point_lo", "point_hi",
                "line", "cell_lines")


def _assert_same_sweep(a, b):
    """Two SweepAccumulators are equal bit for bit (NaN equals NaN, so gap
    endpoints compare equal)."""
    for name in SWEEP_ARRAYS:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.shape == y.shape, name
        assert np.array_equal(x, y, equal_nan=x.dtype.kind == "f"), name
    assert a.overlap_error == b.overlap_error
    assert a.frame[1] == b.frame[1]
    assert a.frame[0].tobytes() == b.frame[0].tobytes()


@pytest.fixture
def assert_same_sweep():
    return _assert_same_sweep
