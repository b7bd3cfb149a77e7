"""The Theorem 1.2 route still calls every function the benchmark traces.

``perfbench/tracer.py`` wraps layer functions by name.  A refactor that
stops calling one through that name leaves its time in
``runner.unaccounted`` and fails no check, so this test installs the tracer
and counts the calls.  It also checks the lazy solver import.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.graphs.generators import gnp_graph
from repro.mds.deterministic import approx_mds_coloring
from repro.mds.pipeline import PipelineParams

ROOT = Path(__file__).resolve().parent.parent

#: Seams every provider's Theorem 1.2 run passes through, and the ones only
#: one provider reaches.
SEAMS = ("domsets.covering_build", "fractional.repair", "coloring.distance2",
         "derand.cond_exp", "analysis.verify")
PROVIDER_SEAMS = {"lp": "fractional.lp", "distributed": "fractional.waterfill"}


def _load_tracer():
    path = ROOT / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("provider", sorted(PROVIDER_SEAMS))
def test_theorem12_reaches_every_traced_seam(provider):
    tracer_module = _load_tracer()
    tracer = tracer_module.Tracer()
    uninstall = tracer_module.install(tracer)
    try:
        with tracer.iteration():
            approx_mds_coloring(
                gnp_graph(60, 0.1, seed=3), params=PipelineParams(part1_provider=provider)
            )
    finally:
        uninstall()
    for seam in SEAMS + (PROVIDER_SEAMS[provider],):
        assert tracer.calls[seam] >= 1, seam


def test_import_does_not_load_the_solvers():
    code = (
        "import sys, repro\n"
        "from repro.api import available_programs\n"
        "available_programs()\n"
        "print('scipy.optimize' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert out.stdout.strip() == "False"
