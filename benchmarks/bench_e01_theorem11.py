"""Benchmark E1: Theorem 1.1 decomposition-route MDS quality table.

Regenerates the Theorem 1.1 decomposition-route MDS quality (see docs/experiments.md) and certifies
every guarantee check recorded by the experiment.
"""

from benchmarks.conftest import run_experiment
from repro.experiments import e01_theorem11


def bench_e01_theorem11(benchmark):
    run_experiment(benchmark, e01_theorem11.run)
