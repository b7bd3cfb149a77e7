"""The G(n, p) families run from their arrays, never from a networkx graph.

``build_network`` compiles a gnp cell with ``Network.from_csr`` straight
from the generated CSR, while the other families compile their graph.  A
``from_csr`` network rebuilds ``network.graph`` in sorted adjacency order,
not in the generated graph's insertion order, so every registered program
must give the same record on both compilations; and no layer of the gnp
route may build the networkx graph, or the generation cost comes back.
"""

from __future__ import annotations

import pytest

from repro.api import Experiment
from repro.api.registry import registered_specs
from repro.congest.engine import available_engines
from repro.congest.network import Network
from repro.experiments.harness import comparable_records
from repro.experiments.runner import GridCell, _run_cell_record, build_network
from repro.graphs.generators import EdgeArrays
from repro.graphs.suite import suite_instance
from repro.service import ServiceConfig, SimulationService

GNP_FAMILIES = ("gnp", "gnp-dense")

#: The programs of the repo benchmark's sweep; all three stack on `vector`.
SWEEP_PROGRAMS = ("greedy", "color-reduction", "lemma310")


def every_program_cell(family, n, seed):
    """One cell per registered program and engine it allows."""
    return [
        GridCell(family, n, spec.name, engine, seed)
        for spec in registered_specs()
        for engine in available_engines()
        if spec.supports_engine(engine)
    ]


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("n", [20, 60])
@pytest.mark.parametrize("family", GNP_FAMILIES)
def test_csr_and_graph_networks_give_the_same_records(family, n, seed):
    graph = suite_instance(family, n, seed=seed).graph
    for cell in every_program_cell(family, n, seed):
        from_csr = _run_cell_record(cell, build_network(cell))
        from_graph = _run_cell_record(cell, Network.congest(graph))
        assert from_csr.ok, (cell.key, from_csr.error)
        assert comparable_records([from_csr]) == comparable_records([from_graph])


@pytest.fixture()
def no_networkx(monkeypatch):
    """Make every lazy networkx builder of the gnp route raise."""

    def refuse(*_args):
        raise AssertionError("the gnp route built a networkx graph")

    monkeypatch.setattr(EdgeArrays, "graph", refuse)
    monkeypatch.setattr(Network, "graph", property(refuse))


@pytest.mark.parametrize("strategy", ["batch", "cell"])
def test_sweep_programs_build_no_networkx_graph(no_networkx, strategy):
    records = (
        Experiment(*SWEEP_PROGRAMS)
        .on(*GNP_FAMILIES)
        .sizes(30, 80)
        .seeds([0, 1])
        .engine("vector")
        .strategy(strategy)
        .run()
        .records
    )
    assert len(records) == 24
    assert all(record.ok for record in records), [r.error for r in records]
    # A stacked group that raised would rerun per cell, where batch_inputs
    # is never called: a batch record proves the stacked path ran.
    assert all((record.batch is not None) == (strategy == "batch") for record in records)


def test_service_round_builds_no_networkx_graph(no_networkx):
    service = SimulationService(ServiceConfig(window_s=30.0)).start()
    try:
        cells = [
            GridCell(family, n, program, "vector", seed)
            for family in GNP_FAMILIES
            for program in SWEEP_PROGRAMS
            for n in (30, 80)
            for seed in (0, 1)
        ]
        ticket = service.submit("tenant", cells)
        service.flush()
        records = ticket.collect(timeout=60.0)
    finally:
        service.stop(drain=False)
    assert len(records) == len(cells)
    assert all(record.ok for record in records), [r.error for r in records]
