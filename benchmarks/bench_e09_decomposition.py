"""Benchmark E9: network decomposition quality table.

Regenerates the network decomposition quality (see docs/experiments.md) and certifies
every guarantee check recorded by the experiment.
"""

from benchmarks.conftest import run_experiment
from repro.experiments import e09_decomposition


def bench_e09_decomposition(benchmark):
    run_experiment(benchmark, e09_decomposition.run)
