"""Shared helpers for the benchmark suite.

Every benchmark target runs one experiment module (docs/experiments.md),
prints its table (visible with ``-s`` or in the captured output), asserts
all of the experiment's guarantee checks, and reports wall-clock through
pytest-benchmark (single round — these are end-to-end pipeline runs, not
micro-benchmarks).

``REPRO_FULL=1`` switches from the CI grid to the full sweep.
"""

from __future__ import annotations

import pytest

from repro.experiments.harness import (
    ExperimentReport,
    engine_grid_report,
    fast_mode,
)
from repro.experiments.runner import run_grid


def run_experiment(benchmark, run_fn, **kwargs) -> ExperimentReport:
    """Benchmark one experiment run and certify its checks."""
    kwargs.setdefault("fast", fast_mode())
    report = benchmark.pedantic(
        run_fn, kwargs=kwargs, iterations=1, rounds=1, warmup_rounds=0
    )
    print()
    print(report.render())
    failed = [name for name, ok in report.checks.items() if not ok]
    assert not failed, f"{report.experiment} guarantee checks failed: {failed}"
    return report


def run_engine_grid(benchmark, cells, jobs: int = 1) -> ExperimentReport:
    """Benchmark one batch-runner grid and certify its parity checks."""
    results = benchmark.pedantic(
        run_grid, args=(cells,), kwargs={"jobs": jobs},
        iterations=1, rounds=1, warmup_rounds=0,
    )
    report = engine_grid_report(results)
    print()
    print(report.render())
    failed = [name for name, ok in report.checks.items() if not ok]
    assert not failed, f"engine grid checks failed: {failed}"
    return report


@pytest.fixture
def experiment(benchmark):
    """Fixture flavor of :func:`run_experiment`."""

    def _run(run_fn, **kwargs):
        return run_experiment(benchmark, run_fn, **kwargs)

    return _run
