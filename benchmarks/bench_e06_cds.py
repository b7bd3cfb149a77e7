"""Benchmark E6: Theorem 1.4 CDS quality table.

Regenerates the Theorem 1.4 CDS quality (see docs/experiments.md) and certifies
every guarantee check recorded by the experiment.
"""

from benchmarks.conftest import run_experiment
from repro.experiments import e06_cds


def bench_e06_cds(benchmark):
    run_experiment(benchmark, e06_cds.run)
