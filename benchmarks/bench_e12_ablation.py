"""Benchmark E12: design ablations.

Regenerates the design ablations (see docs/experiments.md) and certifies
every guarantee check recorded by the experiment.
"""

from benchmarks.conftest import run_experiment
from repro.experiments import e12_ablation


def bench_e12_ablation(benchmark):
    run_experiment(benchmark, e12_ablation.run)
