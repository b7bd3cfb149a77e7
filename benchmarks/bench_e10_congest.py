"""Benchmark E10: CONGEST round/bit accounting table.

Regenerates the CONGEST round/bit accounting (see docs/experiments.md) and certifies
every guarantee check recorded by the experiment.
"""

from benchmarks.conftest import run_experiment
from repro.experiments import e10_congest


def bench_e10_congest(benchmark):
    run_experiment(benchmark, e10_congest.run)
