"""Benchmark E7: baseline comparison table.

Regenerates the baseline comparison (see docs/experiments.md) and certifies
every guarantee check recorded by the experiment.
"""

from benchmarks.conftest import run_experiment
from repro.experiments import e07_baselines


def bench_e07_baselines(benchmark):
    run_experiment(benchmark, e07_baselines.run)
