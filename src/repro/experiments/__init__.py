"""Experiment implementations E1-E12 (see docs/experiments.md).

Each module exposes ``run(fast: bool = True) -> ExperimentReport``; the
``benchmarks/`` tree wraps them in pytest-benchmark targets and prints the
tables.  ``fast=True`` sweeps a reduced grid suitable for CI; the full grid
is selected by ``REPRO_FULL=1`` in the environment.
"""

from repro.experiments.harness import (
    ExperimentReport,
    engine_grid_cells,
    engine_grid_report,
    fast_mode,
    standard_suite,
)

__all__ = [
    "ExperimentReport",
    "engine_grid_cells",
    "engine_grid_report",
    "standard_suite",
    "fast_mode",
]
