"""Benchmark E5: Lemma 3.14 factor-two iteration trace.

Regenerates the Lemma 3.14 factor-two iteration trace (see docs/experiments.md) and certifies
every guarantee check recorded by the experiment.
"""

from benchmarks.conftest import run_experiment
from repro.experiments import e05_factor_two


def bench_e05_factor_two(benchmark):
    run_experiment(benchmark, e05_factor_two.run)
