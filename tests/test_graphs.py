"""Graph generators, normalization, powers and the benchmark suite."""

import hashlib
import json
import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.congest.network import Network, congest_bit_budget
from repro.errors import GraphError
from repro.experiments.runner import GridCell, build_network, run_grid
from repro.graphs.generators import (
    _ensure_connected,
    _python_random_stream,
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
    repr_rank,
    require_normalized,
)
from repro.graphs.powers import (
    ball,
    graph_power,
    nodes_within,
    shortest_path_within,
    square_graph,
)
from repro.graphs.suite import benchmark_suite, families, suite_instance
from repro.graphs.validation import degree_stats, require_connected


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

    @pytest.mark.parametrize("n", [0, 1, 9, 10, 11, 101, 1000])
    def test_repr_rank_is_relabel_map_of_integer_labels(self, n):
        mapping = relabel_map(nx.empty_graph(n))
        assert repr_rank(n).tolist() == [mapping[label] for label in range(n)]


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

    def test_power_matches_distance(self, small_gnp):
        k = 3
        p = graph_power(small_gnp, k)
        lengths = dict(nx.all_pairs_shortest_path_length(small_gnp))
        for u in small_gnp.nodes():
            for v in small_gnp.nodes():
                if u == v:
                    continue
                expect = lengths[u].get(v, 10 ** 9) <= k
                assert p.has_edge(u, v) == expect

    def test_power_rejects_bad_k(self, path5):
        with pytest.raises(GraphError):
            graph_power(path5, 0)

    def test_ball_restricted(self, path5):
        b = ball(path5, 0, 2, within={0, 1})
        assert set(b) == {0, 1}

    def test_nodes_within_multi_source(self, path5):
        assert nodes_within(path5, [0, 4], 1) == {0, 1, 3, 4}

    def test_shortest_path_within(self, path5):
        assert shortest_path_within(path5, 0, 3, 3) == [0, 1, 2, 3]
        assert shortest_path_within(path5, 0, 4, 3) is None
        assert shortest_path_within(path5, 2, 2, 0) == [2]


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
    def test_degree_stats(self, small_gnp):
        stats = degree_stats(small_gnp)
        assert stats.n == 30
        assert stats.delta_tilde == stats.max_degree + 1
        assert stats.min_degree <= stats.avg_degree <= stats.max_degree

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


def reference_gnp_graph(n, p, seed=0, connected=True):
    """The frozen G(n, p) path: networkx's pair loop, patched and normalized."""
    graph = nx.gnp_random_graph(n, p, seed=seed)
    if connected:
        _ensure_connected(graph, random.Random(seed))
    return normalize_graph(graph)


def adjacency(graph):
    """Node order plus each node's adjacency order (``graphs_equal`` ignores
    the latter, but edge iteration, and so every run, depends on it)."""
    return list(graph), [list(graph.adj[v]) for v in graph]


def assert_same_network(network, reference):
    """Same sorted adjacency arrays and bit budget."""
    assert network.csr() == reference.csr()
    assert network.bit_budget == reference.bit_budget


def kth_draw(seed, k):
    """The ``k``-th ``random()`` of ``random.Random(seed)``."""
    stream = random.Random(seed)
    for _ in range(k):
        stream.random()
    return stream.random()


SEEDS = st.one_of(
    st.integers(-(2**40), 2**40),
    st.integers(2**32, 2**80),
    st.sampled_from([0, -5, 2**32, 2**70 + 3]),
)


@st.composite
def gnp_params(draw):
    n = draw(st.integers(1, 120))
    seed = draw(SEEDS)
    pairs = n * (n - 1) // 2
    kind = draw(st.sampled_from(["fixed", "per-n", "sparse", "float", "on-a-draw"]))
    if kind == "fixed":
        p = draw(st.sampled_from([0.0, -0.1, 1.0, 1.5]))
    elif kind == "per-n":
        p = draw(st.sampled_from([4.0, 12.0])) / n
    elif kind == "sparse":
        # Many components of tied sizes: the connectivity patch's order.
        p = draw(st.sampled_from([0.5, 1.0])) / n
    elif kind == "on-a-draw" and pairs:
        # p equal to the stream's own k-th draw: pair k sits on the threshold.
        p = kth_draw(seed, draw(st.integers(0, pairs - 1)))
    else:
        p = draw(st.floats(0.0, 1.0))
    return n, p, seed


class TestGnpReplay:
    """``gnp_graph`` replays networkx's G(n, p) stream in numpy: the graph
    must equal the frozen networkx path down to adjacency order."""

    @pytest.mark.parametrize("seed", [0, -5, 2**32, 2**70 + 3])
    def test_stream_replays_python_random(self, seed):
        python = random.Random(seed)
        expected = [python.random() for _ in range(10**4)]
        assert _python_random_stream(seed).random_sample(10**4).tolist() == expected

    @settings(max_examples=80, deadline=None)
    @given(gnp_params(), st.booleans())
    def test_matches_networkx_reference(self, params, connected):
        n, p, seed = params
        reference = reference_gnp_graph(n, p, seed=seed, connected=connected)
        assert adjacency(gnp_graph(n, p, seed=seed, connected=connected)) == adjacency(
            reference
        )
        arrays = gnp_arrays(n, p, seed=seed, connected=connected)
        compiled = Network.from_csr(
            arrays.indptr, arrays.indices, bit_budget=congest_bit_budget(arrays.n)
        )
        assert_same_network(compiled, Network.congest(reference))

    def test_draw_equal_to_p_is_not_kept(self):
        n, seed = 30, 3
        python = random.Random(seed)
        draws = [python.random() for _ in range(n * (n - 1) // 2)]
        p = draws[100]
        g = gnp_graph(n, p, seed=seed, connected=False)
        assert g.number_of_edges() == sum(d < p for d in draws)
        assert adjacency(g) == adjacency(reference_gnp_graph(n, p, seed, False))

    @pytest.mark.parametrize("n", [200, 250, 400, 500, 800, 1000])
    def test_suite_instances_at_benchmark_sizes(self, n):
        for family, p in (("gnp", min(0.5, 4.0 / n)), ("gnp-dense", min(0.8, 12.0 / n))):
            for seed in (0, 7):
                reference = reference_gnp_graph(n, p, seed=seed)
                g = suite_instance(family, n, seed=seed).graph
                assert adjacency(g) == adjacency(reference)
                cell = GridCell(family, n, "greedy", "vector", seed)
                assert_same_network(build_network(cell), Network.congest(reference))


#: sha256 of the JSON of ``[list(G.adj[v]) for v in G]`` for one instance of
#: every suite family, recorded while G(n, p) still ran on networkx's own
#: generator.  Topology cache keys carry no generator version, so the result
#: and oracle caches (and the oracle's persisted JSON) and the committed
#: BENCH_*.json artifacts all assume these never change; a generator rewrite
#: or a networkx upgrade that moves one must version the cache key instead.
TOPOLOGY_FINGERPRINTS = {
    ("ba", 200): "9c5bdc219484fb6d7e3df95fd7fafec4e27265aa7d4244d95c4c80b86c3fa204",
    ("caterpillar", 200): "b57aad1c29ec4d2e9ab0cb618215e239239b760b4d8fc3a8a131a21807f83fca",
    ("geometric", 200): "47607ab40c1eae888729ca7f7d3a9939ed9e3f0ba6e2b810eb1e6103c1cdfa7d",
    ("gnp", 1000): "f6bf9f84b72d9925c7868d97bc45a17a91983190ccf0de7bfecd876b3ecf9f0c",
    ("gnp-dense", 200): "dbb82f7ad25f23187d1ec44bad204c7a3dae2ab15d42a5e2db2c5e2ba0894c6c",
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
