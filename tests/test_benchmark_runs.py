"""The benchmark still runs end to end on the current engine.

perfbench/ calls the engine and the harness with keywords and shapes of
its own (for example ``run_budget_sweep(..., workers=1)``), so a
signature change can break every benchmark run while every other test
here passes.  This runs each workload once at the tiny size of
perfbench/selftest.py, untraced and traced, and asserts that every
operation it ran was checked correct.
"""

import os
import sys
from unittest import mock

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.fixture(scope="module")
def selftest():
    saved = list(sys.path)
    sys.path.insert(0, PERFBENCH)
    try:
        with mock.patch.dict(os.environ):  # the import pins BLAS threads to 1
            import selftest
        yield selftest
    finally:
        sys.path[:] = saved


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["lockstep", "long_context", "sweep", "datagen"])
def test_tiny_workload_runs_correct(selftest, tmp_path, monkeypatch, workload, trace):
    monkeypatch.setattr(selftest.run, "OUT_DIR", str(tmp_path))
    result = selftest.run_tiny(workload, trace)
    assert result["correct"], result
    assert result["failed"] == 0 and result["attempted"] >= 1
