"""Benchmark E3: Lemma 2.1 fractional substrate table.

Regenerates the Lemma 2.1 fractional substrate (see docs/experiments.md) and certifies
every guarantee check recorded by the experiment.
"""

from benchmarks.conftest import run_experiment
from repro.experiments import e03_fractional


def bench_e03_fractional(benchmark):
    run_experiment(benchmark, e03_fractional.run)
