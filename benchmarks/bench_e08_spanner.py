"""Benchmark E8: Baswana-Sen spanner substrate table.

Regenerates the Baswana-Sen spanner substrate (see docs/experiments.md) and certifies
every guarantee check recorded by the experiment.
"""

from benchmarks.conftest import run_experiment
from repro.experiments import e08_spanner


def bench_e08_spanner(benchmark):
    run_experiment(benchmark, e08_spanner.run)
