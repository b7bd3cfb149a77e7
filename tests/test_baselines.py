"""Baselines: greedy, exact branch-and-bound, randomized LP rounding."""

import itertools

import networkx as nx
import pytest

from repro.analysis.bounds import greedy_bound
from repro.analysis.verify import is_connected_dominating_set, is_dominating_set
from repro.baselines.exact import exact_cds, exact_mds
from repro.baselines.greedy import greedy_mds
from repro.baselines.randomized_lp import randomized_lp_rounding_mds
from repro.errors import GraphError
from repro.fractional.lp import lp_fractional_mds
from repro.graphs.generators import (
    caterpillar_graph,
    clique_graph,
    gnp_graph,
    ring_graph,
    star_graph,
)
from repro.graphs.normalize import normalize_graph


def brute_force_mds_size(graph):
    nodes = sorted(graph.nodes())
    for size in range(0, len(nodes) + 1):
        for cand in itertools.combinations(nodes, size):
            if is_dominating_set(graph, cand):
                return size
    return len(nodes)


def slow_greedy_order(graph):
    """The naive quadratic greedy: the order in which it picks nodes, the
    largest inclusive gain first, ties to the lowest id."""
    covered = set()
    order = []
    nodes = set(graph.nodes())
    while covered != nodes:
        best, best_gain = None, -1
        for v in sorted(nodes):
            gain = len((set(graph.neighbors(v)) | {v}) - covered)
            if gain > best_gain:
                best, best_gain = v, gain
        order.append(best)
        covered |= set(graph.neighbors(best)) | {best}
    return order


class TestGreedy:
    def test_valid_on_zoo(self, zoo_graph):
        assert is_dominating_set(zoo_graph, greedy_mds(zoo_graph))

    def test_star_picks_center(self):
        g = star_graph(8)
        assert len(greedy_mds(g)) == 1

    def test_ratio_within_harmonic_bound(self, small_gnp):
        lp = lp_fractional_mds(small_gnp)
        greedy = greedy_mds(small_gnp)
        delta = max(d for _, d in small_gnp.degree())
        assert len(greedy) <= greedy_bound(delta) * lp.optimum + 1e-9

    def test_matches_slow_reference(self):
        """The lazy-heap greedy must pick the same-size cover as the naive
        quadratic greedy (identical tie-breaks)."""
        for seed in range(4):
            g = gnp_graph(20, 0.2, seed=seed)
            fast = greedy_mds(g)
            slow_order = slow_greedy_order(g)
            assert len(fast) == len(slow_order)

    def test_deterministic(self, medium_gnp):
        assert greedy_mds(medium_gnp) == greedy_mds(medium_gnp)

    def test_empty_graph(self):
        assert greedy_mds(nx.Graph()) == set()


class TestExactMDS:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force(self, seed):
        g = gnp_graph(11, 0.25, seed=seed)
        assert len(exact_mds(g)) == brute_force_mds_size(g)

    def test_known_optima(self):
        assert len(exact_mds(star_graph(7))) == 1
        assert len(exact_mds(clique_graph(6))) == 1
        assert len(exact_mds(ring_graph(9))) == 3  # ceil(9/3)
        cat = caterpillar_graph(4, 2)
        assert len(exact_mds(cat)) == 4  # the spine

    def test_never_beaten_by_greedy(self, zoo_graph):
        if zoo_graph.number_of_nodes() <= 26:
            assert len(exact_mds(zoo_graph)) <= len(greedy_mds(zoo_graph))

    def test_node_limit(self):
        with pytest.raises(GraphError):
            exact_mds(gnp_graph(80, 0.05, seed=1))

    def test_valid_output(self, small_gnp):
        assert is_dominating_set(small_gnp, exact_mds(small_gnp))


class TestExactCDS:
    def test_path_cds_is_interior(self):
        g = normalize_graph(nx.path_graph(5))
        cds = exact_cds(g)
        assert cds == {1, 2, 3}

    def test_star(self):
        assert len(exact_cds(star_graph(5))) == 1

    def test_cycle(self):
        g = ring_graph(6)
        cds = exact_cds(g)
        assert is_connected_dominating_set(g, cds)
        assert len(cds) == 4  # n - 2 for a cycle

    def test_disconnected_returns_none(self):
        g = normalize_graph(nx.Graph([(0, 1), (2, 3)]))
        assert exact_cds(g) is None

    def test_at_least_mds(self):
        g = gnp_graph(12, 0.25, seed=3)
        cds = exact_cds(g)
        assert len(cds) >= len(exact_mds(g))

    def test_node_limit(self):
        with pytest.raises(GraphError):
            exact_cds(gnp_graph(40, 0.1, seed=1))

    def test_singleton(self):
        g = nx.Graph()
        g.add_node(0)
        assert exact_cds(normalize_graph(g)) == {0}


class TestRandomizedLP:
    def test_valid_dominating_set(self, medium_gnp):
        for seed in range(3):
            ds = randomized_lp_rounding_mds(medium_gnp, seed=seed)
            assert is_dominating_set(medium_gnp, ds)

    def test_seeded_reproducible(self, small_gnp):
        assert randomized_lp_rounding_mds(small_gnp, seed=5) == \
            randomized_lp_rounding_mds(small_gnp, seed=5)

    def test_quality_shape(self, medium_gnp):
        """Median randomized size within the ln(D~)+alteration budget."""
        import math
        import statistics

        lp = lp_fractional_mds(medium_gnp)
        delta_tilde = max(d for _, d in medium_gnp.degree()) + 1
        sizes = [
            len(randomized_lp_rounding_mds(medium_gnp, seed=s)) for s in range(7)
        ]
        budget = math.log(delta_tilde) * lp.optimum + \
            medium_gnp.number_of_nodes() / delta_tilde
        assert statistics.median(sizes) <= 2.0 * budget + 2

    def test_empty_graph(self):
        assert randomized_lp_rounding_mds(nx.Graph()) == set()
