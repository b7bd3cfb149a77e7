"""Benchmark E4: Lemmas 3.6/3.7 uncovered-probability table.

Regenerates the Lemmas 3.6/3.7 uncovered-probability (see docs/experiments.md) and certifies
every guarantee check recorded by the experiment.
"""

from benchmarks.conftest import run_experiment
from repro.experiments import e04_uncovered


def bench_e04_uncovered(benchmark):
    run_experiment(benchmark, e04_uncovered.run)
