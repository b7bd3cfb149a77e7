"""Shared-memory topology transport and generate-once grid execution."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.api import Experiment
from repro.api.registry import registered_specs
from repro.congest.engine import available_engines
from repro.congest.network import Network
from repro.errors import GraphError, UnknownEngineError, UnknownProgramError
from repro.experiments.runner import GridCell, run_grid
from repro.experiments.sharedmem import SharedTopology, attach_network
from repro.graphs.generators import gnp_graph, star_graph


class TestNetworkFromCsr:
    def test_round_trip_preserves_topology(self, small_gnp):
        original = Network.congest(small_gnp)
        indptr, indices = original.csr()
        rebuilt = Network.from_csr(indptr, indices, bit_budget=original.bit_budget)
        assert rebuilt.n == original.n
        assert rebuilt.bit_budget == original.bit_budget
        for v in range(original.n):
            assert rebuilt.neighbors(v) == original.neighbors(v)
            assert rebuilt.degree(v) == original.degree(v)
        assert rebuilt.max_degree == original.max_degree

    def test_lazy_graph_reconstruction(self):
        g = star_graph(7)
        original = Network.congest(g)
        rebuilt = Network.from_csr(*original.csr(), bit_budget=None)
        assert nx.is_isomorphic(rebuilt.graph, g)
        assert sorted(rebuilt.graph.nodes()) == sorted(g.nodes())
        assert sorted(rebuilt.graph.edges()) == sorted(g.edges())

    def test_malformed_csr_rejected(self):
        with pytest.raises(GraphError):
            Network.from_csr([0, 2], [1], bit_budget=None)
        with pytest.raises(GraphError):
            Network.from_csr([0], [], bit_budget=None)


class TestSharedTopology:
    def test_publish_attach_round_trip(self):
        g = gnp_graph(40, 0.15, seed=2)
        network = Network.congest(g)
        topology = SharedTopology.publish(network)
        try:
            rebuilt = attach_network(topology.handle)
            assert rebuilt.n == network.n
            assert rebuilt.bit_budget == network.bit_budget
            for v in range(network.n):
                assert rebuilt.neighbors(v) == network.neighbors(v)
        finally:
            topology.unlink()

    def test_handle_is_picklable(self):
        import pickle

        network = Network.congest(star_graph(5))
        topology = SharedTopology.publish(network)
        try:
            handle = pickle.loads(pickle.dumps(topology.handle))
            rebuilt = attach_network(handle)
            assert rebuilt.n == network.n
        finally:
            topology.unlink()

    def test_edgeless_graph_publishes(self):
        network = Network.local(nx.empty_graph(3))
        topology = SharedTopology.publish(network)
        try:
            rebuilt = attach_network(topology.handle)
            assert rebuilt.n == 3
            assert all(rebuilt.neighbors(v) == () for v in range(3))
        finally:
            topology.unlink()


class TestGridExpansionValidation:
    def test_unknown_engine_raises_structured(self):
        with pytest.raises(UnknownEngineError) as exc:
            Experiment().on("tree").sizes(16).engine("warp-drive").cells()
        assert "warp-drive" in str(exc.value)
        assert "fast" in str(exc.value)

    def test_unknown_program_raises_structured(self):
        with pytest.raises(UnknownProgramError) as exc:
            Experiment("quicksort").on("tree").sizes(16).cells()
        assert "quicksort" in str(exc.value)


class TestSharedMemoryGrid:
    # Every registered program (the cds composite included) on every engine
    # it allows: workers run on from_csr networks, whose lazy graph is
    # rebuilt in sorted adjacency order.
    GRID = [
        GridCell(family="gnp", n=24, program=spec.name, engine=e, seed=5)
        for spec in registered_specs()
        for e in available_engines()
        if spec.supports_engine(e)
    ]

    def _strip_walls(self, results):
        import copy

        stripped = copy.deepcopy(results)
        for rec in stripped:
            rec.pop("wall_s", None)
        return stripped

    def test_workers_match_sequential(self):
        sequential = run_grid(self.GRID, jobs=1)
        parallel = run_grid(self.GRID, jobs=2)
        assert self._strip_walls(sequential) == self._strip_walls(parallel)
        assert all(r["ok"] for r in parallel)

    def test_failed_topology_is_per_cell_structured(self):
        cells = [
            GridCell(family="gnp", n=16, program="bfs", engine="fast"),
            GridCell(family="nope", n=16, program="bfs", engine="fast"),
        ]
        for jobs in (1, 2):
            results = run_grid(cells, jobs=jobs)
            assert [r["ok"] for r in results] == [True, False]
            assert results[1]["error"]["type"] == "GraphError"
