"""Shared fixtures for the benchmark harness.

Each bench regenerates one table or figure from the paper's evaluation
section; the file name says which (``test_table3_*``, ``test_figure5a_*``,
...).  The expensive inputs — the offline navigation models and the Table 3
end-to-end runs — are produced once per session and shared by every bench.
"""

from __future__ import annotations

import pytest

from repro.bench.runner import BenchmarkConfig, BenchmarkRunner, DEFAULT_SEED

#: The paper's protocol: every task runs three times and results are averaged.
TRIALS = 3
#: One canonical seed for library, CLI and harness (see runner.DEFAULT_SEED).
SEED = DEFAULT_SEED


@pytest.fixture(scope="session")
def runner() -> BenchmarkRunner:
    return BenchmarkRunner(BenchmarkConfig(trials=TRIALS, seed=SEED))


@pytest.fixture(scope="session")
def offline_artifacts(runner):
    """Offline navigation models for Word, Excel and PowerPoint (§5.2)."""
    return runner.all_offline_artifacts()


@pytest.fixture(scope="session")
def table3_outcomes(runner, offline_artifacts):
    """The eight Table 3 configurations, 27 tasks x 3 trials each."""
    return runner.run_table3()
