"""Fixtures shared by the test modules."""

import gc
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(autouse=True)
def collector_left_enabled():
    """Fail any test that returns with the cyclic garbage collector off.

    sim.run turns the collector off for the length of a run and restores
    the caller's state; a test that left it off would run every later test
    without it. The collector is turned back on before the failure.
    """
    yield
    if not gc.isenabled():
        gc.enable()
        pytest.fail("the test returned with the garbage collector disabled")


@pytest.fixture
def perfbench_run(monkeypatch):
    """The benchmark's perfbench/run.py, loaded as a module."""
    monkeypatch.syspath_prepend(str(PERFBENCH))  # run.py imports reference
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    # the module's dataclass looks itself up in sys.modules while it is built
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module
