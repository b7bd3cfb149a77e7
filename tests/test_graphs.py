"""Graph generators, normalization, powers and the benchmark suite."""

import hashlib
import json

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.congest.network import Network, congest_bit_budget
from repro.errors import GraphError
from repro.experiments.runner import GridCell, run_grid
from repro.graphs.generators import (
    caterpillar_graph,
    clique_graph,
    dumbbell_graph,
    geometric_graph,
    gnp_arrays,
    gnp_graph,
    grid_graph,
    preferential_attachment_graph,
    random_tree,
    regular_graph,
    ring_graph,
    star_graph,
)
from repro.graphs.normalize import (
    is_normalized,
    normalize_graph,
    relabel_map,
    require_normalized,
)
from repro.graphs.powers import ball, nodes_within, square_graph
from repro.graphs.suite import benchmark_suite, families, suite_instance
from repro.graphs.validation import require_connected


class TestNormalize:
    def test_relabels_to_range(self):
        g = nx.Graph([("b", "a"), ("a", "c")])
        n = normalize_graph(g)
        assert set(n.nodes()) == {0, 1, 2}
        assert is_normalized(n)

    def test_drops_self_loops(self):
        g = nx.Graph([(0, 0), (0, 1)])
        n = normalize_graph(g)
        assert n.number_of_edges() == 1

    def test_rejects_directed(self):
        with pytest.raises(GraphError):
            normalize_graph(nx.DiGraph([(0, 1)]))

    def test_deterministic(self):
        g = nx.Graph([("x", "y"), ("y", "z")])
        assert nx.utils.graphs_equal(normalize_graph(g), normalize_graph(g))

    def test_require_normalized_raises(self):
        g = nx.Graph()
        g.add_node(5)
        with pytest.raises(GraphError):
            require_normalized(g)

    def test_labels_rank_by_repr(self):
        """Integer labels rank as strings: part of every topology's identity."""
        by_repr = [0, 1, 10, 11, 2, 3, 4, 5, 6, 7, 8, 9]
        assert relabel_map(nx.path_graph(12)) == {label: i for i, label in enumerate(by_repr)}
        once = normalize_graph(nx.path_graph(12))
        assert nx.utils.graphs_equal(once, nx.path_graph([0, 1, 4, 5, 6, 7, 8, 9, 10, 11, 2, 3]))
        # Not idempotent: a normalized graph with >= 11 nodes is permuted again.
        assert sorted(normalize_graph(once).edges()) != sorted(once.edges())


class TestGenerators:
    def test_gnp_connected_and_seeded(self):
        a = gnp_graph(50, 0.05, seed=3)
        b = gnp_graph(50, 0.05, seed=3)
        assert nx.is_connected(a)
        assert nx.utils.graphs_equal(a, b)

    def test_gnp_rejects_bad_n(self):
        with pytest.raises(GraphError):
            gnp_graph(0, 0.5)

    def test_geometric_default_radius_connected(self):
        g = geometric_graph(60, seed=1)
        assert nx.is_connected(g)
        assert is_normalized(g)

    def test_preferential_attachment(self):
        g = preferential_attachment_graph(40, m=2, seed=2)
        assert g.number_of_edges() == pytest.approx(2 * 38, abs=4)
        with pytest.raises(GraphError):
            preferential_attachment_graph(2, m=3)

    def test_grid_shape(self):
        g = grid_graph(3, 4)
        assert g.number_of_nodes() == 12
        assert max(d for _, d in g.degree()) <= 4

    def test_ring(self):
        g = ring_graph(7)
        assert all(d == 2 for _, d in g.degree())

    def test_random_tree_is_tree(self):
        for n in (1, 2, 3, 20):
            g = random_tree(n, seed=5)
            assert nx.is_tree(g)
            assert g.number_of_nodes() == n

    def test_caterpillar(self):
        g = caterpillar_graph(4, legs_per_node=2)
        assert g.number_of_nodes() == 4 + 8
        assert nx.is_tree(g)

    def test_regular_degree(self):
        g = regular_graph(20, 6, seed=1)
        assert all(d == 6 for _, d in g.degree())
        with pytest.raises(GraphError):
            regular_graph(7, 3)
        for n, d in ((6, 6), (4, 8), (6, -2)):
            with pytest.raises(GraphError):
                regular_graph(n, d)
        # The suite's regular family asks for d=6, impossible at n <= 6.
        for n in (1, 5, 6):
            with pytest.raises(GraphError):
                suite_instance("regular", n)
        assert regular_graph(8, 0).number_of_edges() == 0

    def test_star_and_clique(self):
        assert max(d for _, d in star_graph(5).degree()) == 5
        assert clique_graph(5).number_of_edges() == 10

    def test_dumbbell_connected(self):
        g = dumbbell_graph(4, 3)
        assert nx.is_connected(g)
        assert g.number_of_nodes() == 11


class TestPowers:
    def test_square_of_path(self):
        g = normalize_graph(nx.path_graph(5))
        sq = square_graph(g)
        assert sq.has_edge(0, 2)
        assert not sq.has_edge(0, 3)

    def test_square_matches_distance(self, small_gnp):
        sq = square_graph(small_gnp)
        lengths = dict(nx.all_pairs_shortest_path_length(small_gnp))
        for u in small_gnp.nodes():
            for v in small_gnp.nodes():
                if u == v:
                    continue
                expect = lengths[u].get(v, 10 ** 9) <= 2
                assert sq.has_edge(u, v) == expect

    def test_ball_restricted(self, path5):
        b = ball(path5, 0, 2, within={0, 1})
        assert set(b) == {0, 1}

    def test_nodes_within_multi_source(self, path5):
        assert nodes_within(path5, [0, 4], 1) == {0, 1, 3, 4}


class TestSuite:
    def test_families_stable(self):
        assert "gnp" in families()
        assert "geometric" in families()

    def test_instance_reproducible(self):
        a = suite_instance("gnp", 40, seed=1)
        b = suite_instance("gnp", 40, seed=1)
        assert nx.utils.graphs_equal(a.graph, b.graph)
        assert a.name == "gnp-40"

    def test_unknown_family(self):
        with pytest.raises(GraphError):
            suite_instance("nope", 10)

    @pytest.mark.parametrize("n", [0, -3])
    @pytest.mark.parametrize("family", families())
    def test_rejects_n_below_one(self, family, n):
        with pytest.raises(GraphError, match="n must be positive"):
            suite_instance(family, n)
        (record,) = run_grid([GridCell(family, n, "bfs", "fast")])
        assert record["error"]["type"] == "GraphError"

    def test_benchmark_suite_covers_families(self):
        instances = list(benchmark_suite(sizes=(20,), families_subset=("gnp", "tree")))
        assert {i.family for i in instances} == {"gnp", "tree"}


class TestValidation:
    def test_require_connected(self):
        g = normalize_graph(nx.Graph([(0, 1), (2, 3)]))
        with pytest.raises(GraphError):
            require_connected(g)
        with pytest.raises(GraphError):
            require_connected(nx.Graph())


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 40), st.integers(0, 10))
def test_gnp_always_normalized_connected(n, seed):
    g = gnp_graph(n, 3.0 / n, seed=seed)
    assert is_normalized(g)
    assert nx.is_connected(g)


def edge_pairs(arrays):
    """Flat pair indices (the order of ``itertools.combinations(range(n),
    2)``) of the edges of an :class:`EdgeArrays`, ascending."""
    n = arrays.n
    rows = np.repeat(np.arange(n), np.diff(arrays.indptr))
    upper = arrays.indices > rows
    u, v = rows[upper], arrays.indices[upper]
    return u * (2 * n - u - 1) // 2 + v - u - 1


class TestGnpSampler:
    """``gnp_arrays`` draws G(n, p) exactly: checked against the law on fixed
    seeds (so every run sees the same samples), with networkx as the
    reference for components."""

    def test_edge_count_is_binomial(self):
        n, p, seeds = 60, 0.1, range(400)
        total = n * (n - 1) // 2
        counts = np.array([len(edge_pairs(gnp_arrays(n, p, s, False))) for s in seeds])
        mean, var = total * p, total * p * (1 - p)
        assert abs(counts.mean() - mean) < 4 * (var / len(counts)) ** 0.5
        assert 0.8 < counts.var() / var < 1.25

    def test_pooled_degrees_are_binomial(self):
        from scipy import stats

        n, p, seeds = 100, 0.05, range(200)
        degrees = np.concatenate(
            [np.diff(gnp_arrays(n, p, s, False).indptr) for s in seeds]
        )
        law = stats.binom(n - 1, p)
        # Degrees 0..11, the tail above 11 pooled into the last bin.
        top = 11
        observed = np.bincount(np.minimum(degrees, top), minlength=top + 1)
        expected = law.pmf(np.arange(top + 1)) * len(degrees)
        expected[-1] = law.sf(top - 1) * len(degrees)
        assert stats.chisquare(observed, expected).pvalue > 1e-3

    def test_every_pair_is_drawn_at_rate_p(self):
        from scipy import stats

        n, p, seeds = 8, 0.3, range(2000)
        total = n * (n - 1) // 2
        hits = np.zeros(total, dtype=np.int64)
        for s in seeds:
            hits[edge_pairs(gnp_arrays(n, p, s, False))] += 1
        sd = (len(seeds) * p * (1 - p)) ** 0.5
        assert np.abs(hits - len(seeds) * p).max() < 5 * sd
        assert stats.chisquare(hits).pvalue > 1e-3

    @pytest.mark.parametrize("p", [0.0, -0.5, 5e-324, float("nan")])
    def test_p_at_most_zero_draws_no_edge(self, p):
        assert gnp_arrays(40, p, seed=3, connected=False).indices.size == 0
        # The patch alone connects the isolated nodes: n - 1 links.
        g = gnp_graph(40, p, seed=3)
        assert nx.is_connected(g) and g.number_of_edges() == 39

    @pytest.mark.parametrize("p", [1.0, 1.5])
    def test_p_at_least_one_draws_every_pair(self, p):
        for n in (1, 2, 30, 150):
            assert nx.utils.graphs_equal(gnp_graph(n, p, seed=4), nx.complete_graph(n))

    @pytest.mark.parametrize("seed", [-5, 5, 0, 2**32, 2**64 + 1, 2**80])
    def test_seeds_of_any_size_and_sign_are_deterministic(self, seed):
        first, again = gnp_arrays(200, 0.03, seed), gnp_arrays(200, 0.03, seed)
        assert np.array_equal(first.indptr, again.indptr)
        assert np.array_equal(first.indices, again.indices)
        # As for random.Random, a seed and its negation name one graph.
        mirror = gnp_arrays(200, 0.03, -seed)
        assert np.array_equal(first.indices, mirror.indices)

    def test_seeds_past_64_bits_are_not_truncated(self):
        samples = {
            tuple(edge_pairs(gnp_arrays(50, 0.1, seed, False)))
            for seed in (1, 2**64 + 1, 2**128 + 1, 2)
        }
        assert len(samples) == 4

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 300), st.sampled_from([0.5, 1.0, 1.5, 3.0]), st.integers(0, 10**6))
    def test_one_link_per_component_but_the_largest(self, n, scale, seed):
        """The patch adds the drawn graph's edges plus one link from each
        component but the largest (ties: the one with the smallest node)
        to the largest."""
        p = scale / n
        drawn = gnp_graph(n, p, seed=seed, connected=False)
        patched = gnp_graph(n, p, seed=seed)
        components = sorted(nx.connected_components(drawn), key=len, reverse=True)
        component_of = {v: i for i, comp in enumerate(components) for v in comp}
        links = set(map(frozenset, patched.edges())) - set(map(frozenset, drawn.edges()))
        assert set(map(frozenset, drawn.edges())) <= set(map(frozenset, patched.edges()))
        assert len(links) == len(components) - 1
        linked = sorted(sorted(component_of[v] for v in link) for link in links)
        assert linked == [[0, i] for i in range(1, len(components))]
        assert nx.is_connected(patched)

    def test_links_join_uniform_members(self):
        """Each link's ends are uniform members of their components: their
        ranks within the component, pooled over seeds, average to 1/2."""
        ranks = {True: [], False: []}  # keyed by "in the largest component"
        n = 300
        for seed in range(40):
            drawn = gnp_graph(n, 1.2 / n, seed=seed, connected=False)
            patched = gnp_graph(n, 1.2 / n, seed=seed)
            components = [sorted(c) for c in nx.connected_components(drawn)]
            largest = max(len(c) for c in components)
            members = {v: ordered for ordered in components for v in ordered}
            for link in set(patched.edges()) - set(drawn.edges()):
                for end in link:
                    ordered = members[end]
                    if len(ordered) > 1:
                        rank = (ordered.index(end) + 0.5) / len(ordered)
                        ranks[len(ordered) == largest].append(rank)
        for pooled in ranks.values():
            assert abs(np.mean(pooled) - 0.5) < 4 * (1 / 12 / len(pooled)) ** 0.5

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 120), st.floats(0.0, 1.0), st.integers(0, 10**6), st.booleans())
    def test_graph_and_csr_agree(self, n, p, seed, connected):
        """``graph()`` lists every adjacency in ascending order, as the CSR
        does, and both compile to the same network."""
        arrays = gnp_arrays(n, p, seed=seed, connected=connected)
        graph = arrays.graph()
        assert list(graph) == list(range(n))
        for v in graph:
            row = arrays.indices[arrays.indptr[v] : arrays.indptr[v + 1]].tolist()
            assert list(graph.adj[v]) == row
        compiled = Network.from_csr(
            arrays.indptr, arrays.indices, bit_budget=congest_bit_budget(arrays.n)
        )
        reference = Network.congest(graph)
        assert compiled.csr() == reference.csr()
        assert compiled.bit_budget == reference.bit_budget


#: sha256 of the JSON of ``[list(G.adj[v]) for v in G]`` for one instance of
#: every suite family, recorded at each family's generator version
#: (``repro.graphs.suite.GENERATOR_VERSIONS``: the G(n, p) families at 2, the
#: O(n + m) sampler; the rest at 1, networkx's generators).  The oracle's
#: persisted JSON and the committed BENCH_*.json artifacts assume these never
#: change at a given version: a generator rewrite or a networkx upgrade that
#: moves one must bump that family's version and regenerate the artifacts.
TOPOLOGY_FINGERPRINTS = {
    ("ba", 200): "9c5bdc219484fb6d7e3df95fd7fafec4e27265aa7d4244d95c4c80b86c3fa204",
    ("caterpillar", 200): "b57aad1c29ec4d2e9ab0cb618215e239239b760b4d8fc3a8a131a21807f83fca",
    ("geometric", 200): "47607ab40c1eae888729ca7f7d3a9939ed9e3f0ba6e2b810eb1e6103c1cdfa7d",
    ("gnp", 1000): "78684ac393e0811aab2aa3fb4209eb565a46925d9e60bca1ed93fbc5ed573e9b",
    ("gnp-dense", 200): "e295865d5d56182ad36bb4fa31ed29584a4d292c29372381704e62d386f1594e",
    ("grid", 200): "b21541c64224efd4bd6848e116f39f6b3478b445a105941035d853da41db8cf6",
    ("regular", 200): "8006fe525734a92a7ab6c1cc8a3224301c9058893ab69c90920eb4cefed4e5cd",
    ("tree", 200): "d13e648cd99ab138e75a1f050bffd379f08908ab5e28a5cf1a578b0f51581c4d",
}


class TestTopologyIdentity:
    def test_every_family_is_pinned(self):
        assert sorted(family for family, _ in TOPOLOGY_FINGERPRINTS) == families()

    @pytest.mark.parametrize("family, n", sorted(TOPOLOGY_FINGERPRINTS))
    def test_fingerprint(self, family, n):
        graph = suite_instance(family, n, seed=7).graph
        adjacency_json = json.dumps([list(graph.adj[v]) for v in graph])
        digest = hashlib.sha256(adjacency_json.encode()).hexdigest()
        assert digest == TOPOLOGY_FINGERPRINTS[family, n]
