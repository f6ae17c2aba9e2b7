"""The benchmark's tracer wraps package functions by name: every one must
still exist and be callable."""

import importlib.util
import os

import pytest

TRACER = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench", "tracer.py")


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves_to_a_callable(tracer):
    assert tracer.TARGETS
    for module, attr, _ in tracer.TARGETS:
        owner, leaf = tracer._resolve(module, attr)
        assert callable(getattr(owner, leaf, None)), f"{module}.{attr}"
