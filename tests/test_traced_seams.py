"""The Theorem 1.2 route still calls every function the benchmark traces.

``perfbench/tracer.py`` wraps layer functions by name.  A refactor that
stops calling one through that name leaves its time in
``runner.unaccounted`` and fails no check, so this test installs the tracer
and counts the calls.  It also checks the import rule: networkx and scipy
load on first use, so importing ``repro`` and running the engine's gnp cells
loads neither.
"""

import ast
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
    """The registry, a service and greedy and color-reduction gnp cells on
    ``vector`` load neither networkx nor scipy."""
    code = (
        "import sys, repro\n"
        "from repro.api import Experiment, available_programs\n"
        "from repro.service import SimulationService\n"
        "available_programs()\n"
        "SimulationService().start().stop()\n"
        "sweep = (Experiment('greedy', 'color-reduction').on('gnp').sizes(60)\n"
        "         .seed(0).engine('vector').run())\n"
        "assert sweep.ok and len(sweep) == 2, sweep.failures()\n"
        "print(sorted({m.split('.')[0] for m in sys.modules} & {'networkx', 'scipy'}))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert out.stdout.strip() == "[]"


def _import_time_imports(tree: ast.Module):
    """The import statements that run when the module is imported: all but
    those in a function body or under ``if TYPE_CHECKING:``."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.If) and ast.unparse(node.test) in (
            "TYPE_CHECKING", "typing.TYPE_CHECKING",
        ):
            stack.extend(node.orelse)
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        stack.extend(ast.iter_child_nodes(node))


def test_networkx_and_scipy_are_imported_where_they_are_used():
    """No module of ``repro`` imports networkx or scipy at import time."""
    offenders = []
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for node in _import_time_imports(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                names = [node.module or ""]
            if any(name.split(".")[0] in ("networkx", "scipy") for name in names):
                offenders.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert not offenders
