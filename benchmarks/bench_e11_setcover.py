"""Benchmark E11: set cover generalization table.

Regenerates the set cover generalization (see docs/experiments.md) and certifies
every guarantee check recorded by the experiment.
"""

from benchmarks.conftest import run_experiment
from repro.experiments import e11_setcover


def bench_e11_setcover(benchmark):
    run_experiment(benchmark, e11_setcover.run)
