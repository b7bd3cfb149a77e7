"""Degenerate and adversarial inputs through every public entry point."""

import networkx as nx
import pytest

from repro.analysis.verify import is_connected_dominating_set, is_dominating_set
from repro.baselines.greedy import greedy_mds
from repro.cds.pipeline import approx_cds
from repro.decomposition.ball_carving import carve_decomposition
from repro.decomposition.cluster_graph import validate_decomposition
from repro.domsets.covering import CoveringInstance
from repro.fractional.lp import lp_fractional_mds
from repro.graphs.generators import clique_graph, star_graph
from repro.graphs.normalize import normalize_graph
from repro.mds.deterministic import approx_mds_coloring, approx_mds_decomposition
from repro.setcover.instance import SetCoverInstance
from repro.setcover.solve import approx_min_set_cover, greedy_set_cover
from repro.spanner.baswana_sen import baswana_sen_spanner, derandomized_sampler


def singleton_graph():
    g = nx.Graph()
    g.add_node(0)
    return normalize_graph(g)


class TestSingletonGraph:
    def test_mds_routes(self):
        g = singleton_graph()
        for runner in (approx_mds_coloring, approx_mds_decomposition):
            result = runner(g, eps=0.5)
            assert result.dominating_set == {0}

    def test_cds(self):
        result = approx_cds(singleton_graph())
        assert result.cds == {0}
        assert result.route == "trivial"

    def test_greedy_and_lp(self):
        g = singleton_graph()
        assert greedy_mds(g) == {0}
        assert lp_fractional_mds(g).optimum == pytest.approx(1.0)

    def test_decomposition(self):
        dec = carve_decomposition(singleton_graph())
        validate_decomposition(dec)
        assert dec.num_clusters == 1


class TestTwoNodeGraph:
    def test_mds(self):
        g = normalize_graph(nx.path_graph(2))
        result = approx_mds_coloring(g, eps=0.5)
        assert len(result.dominating_set) == 1

    def test_cds(self):
        g = normalize_graph(nx.path_graph(2))
        result = approx_cds(g)
        assert is_connected_dominating_set(g, result.cds)
        assert len(result.cds) <= 2


class TestExtremeShapes:
    def test_star_everything_is_one(self):
        g = star_graph(30)
        for runner in (approx_mds_coloring, approx_mds_decomposition):
            result = runner(g, eps=0.5)
            assert is_dominating_set(g, result.dominating_set)
            assert result.size <= 3  # OPT=1, ln(31)-ish headroom is plenty

    def test_clique(self):
        g = clique_graph(15)
        result = approx_mds_coloring(g, eps=0.5)
        assert is_dominating_set(g, result.dominating_set)
        assert result.size <= 4

    def test_disjoint_union_mds(self):
        """Disconnected graphs are fine for MDS (only CDS needs
        connectivity)."""
        g = normalize_graph(nx.disjoint_union(nx.path_graph(4), nx.path_graph(4)))
        result = approx_mds_coloring(g, eps=0.5)
        assert is_dominating_set(g, result.dominating_set)
        dec = carve_decomposition(g)
        validate_decomposition(dec)

    def test_spanner_disconnected_input(self):
        g = normalize_graph(nx.disjoint_union(nx.cycle_graph(5), nx.cycle_graph(5)))
        result = baswana_sen_spanner(g, derandomized_sampler())
        # Per-component connectivity must be preserved.
        from repro.spanner.baswana_sen import spanner_subgraph

        sub = spanner_subgraph(g, result)
        for comp in nx.connected_components(g):
            assert nx.is_connected(sub.subgraph(comp))


class TestSetCoverEdgeCases:
    def test_single_set_covers_all(self):
        inst = SetCoverInstance.from_iterables(
            {0: [1, 2, 3], 1: [1]}, universe=[1, 2, 3]
        )
        assert greedy_set_cover(inst) == {0}
        result = approx_min_set_cover(inst)
        assert inst.is_cover(result.chosen)

    def test_every_element_unique_set(self):
        inst = SetCoverInstance.from_iterables(
            {i: [i] for i in range(6)}, universe=range(6)
        )
        result = approx_min_set_cover(inst)
        assert result.chosen == set(range(6))

    def test_gradual_matches_cover(self):
        from repro.setcover.instance import random_setcover_instance

        inst = random_setcover_instance(30, 12, 6, seed=9)
        result = approx_min_set_cover(inst, gradual=True)
        assert inst.is_cover(result.chosen)
        assert result.ledger.total_rounds > 0

    def test_empty_universe(self):
        inst = SetCoverInstance.from_iterables({0: [1]}, universe=[])
        assert greedy_set_cover(inst) == set()


class TestQuantizationExtremes:
    def test_coarse_grid_still_feasible(self, small_gnp):
        """A deliberately coarse transmittable grid must not break
        feasibility (values are always rounded up)."""
        from repro.derand.coloring_based import one_shot_via_coloring
        from repro.fractional.raising import kmw06_initial_fds
        from repro.util.transmittable import TransmittableGrid

        initial = kmw06_initial_fds(small_gnp, eps=0.5)
        out = one_shot_via_coloring(
            CoveringInstance.from_graph(small_gnp, initial.values),
            grid=TransmittableGrid(iota=8),
        )
        ds = {v for v, x in out.values.items() if x >= 1 - 1e-9}
        assert is_dominating_set(small_gnp, ds)

    def test_all_values_one(self, small_gnp):
        inst = CoveringInstance.from_graph(
            small_gnp, {v: 1.0 for v in small_gnp.nodes()}
        )
        from repro.rounding.schemes import one_shot_scheme

        scheme = one_shot_scheme(inst, delta_tilde=10)
        assert scheme.participating() == []  # everything deterministic
