"""Colorings: greedy, distance-2, bipartite (Lemma 3.12), reduction, Linial."""

import hashlib
import json

import networkx as nx
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.coloring import distance2
from repro.coloring.distance2 import (
    Distance2Coloring,
    _first_fit,
    bipartite_distance2_coloring,
    distance2_coloring,
    validate_distance2,
)
from repro.coloring.greedy import (
    color_classes,
    greedy_coloring,
    validate_coloring,
)
from repro.coloring.linial import linial_coloring, linial_one_round
from repro.coloring.reduction import reduce_coloring
from repro.congest.cost import bek15_coloring_rounds
from repro.congest.network import Network
from repro.congest.programs import lemma310
from repro.domsets.covering import CoveringInstance
from repro.errors import ColoringError
from repro.graphs.generators import clique_graph, gnp_graph, regular_graph, star_graph
from repro.graphs.normalize import normalize_graph
from repro.graphs.powers import square_graph
from repro.graphs.suite import families, suite_instance
from tests.covering_reference import value_conflict_graph


def reference_distance2_coloring(
    graph: nx.Graph, subset: set | None = None
) -> Distance2Coloring:
    """The networkx square-graph path, frozen as the parity reference for
    the CSR coloring: build G^2, restrict it to the subset, color it
    first-fit in ascending id and validate it."""
    sq = square_graph(graph)
    if subset is not None:
        sq = sq.subgraph(sorted(subset)).copy()
        missing = set(subset) - set(graph.nodes())
        if missing:
            raise ColoringError(f"subset nodes {sorted(missing)[:5]} not in graph")
        sq.add_nodes_from(sorted(subset))
    colors = greedy_coloring(sq)
    num = validate_coloring(sq, colors)
    max_deg = max((d for _, d in sq.degree()), default=0)
    charged = bek15_coloring_rounds(max_deg + 1, graph.number_of_nodes(),
                                    graph.number_of_nodes())
    return Distance2Coloring(
        colors=colors,
        num_colors=num,
        charged_rounds=charged,
        conflict_edges=sq.number_of_edges(),
    )


def tril_first_fit(conflicts, nodes):
    """First-fit over ``sparse.tril(..., k=-1)``, the route the CSR index
    mask replaced, frozen as its parity reference."""
    from scipy import sparse

    lower = sparse.tril(conflicts, k=-1, format="csr")
    ptr, idx = lower.indptr.tolist(), lower.indices.tolist()
    first_fit = []
    for v in range(conflicts.shape[0]):
        taken = {first_fit[u] for u in idx[ptr[v]:ptr[v + 1]]}
        color = 0
        while color in taken:
            color += 1
        first_fit.append(color)
    colors = np.array(first_fit, dtype=np.int64)
    later = np.repeat(np.arange(len(first_fit)), np.diff(lower.indptr))
    if (colors[later] == colors[lower.indices]).any():
        raise ColoringError("monochromatic conflict")
    return first_fit, lower.nnz


def sequential_first_fit(conflicts, nodes):
    """First-fit as one sequential loop in row order, the route the
    priority rounds replaced, frozen as their yardstick: row ``v`` takes the
    smallest color missing among its earlier conflicts (the entries below
    the diagonal, picked with an index mask)."""
    indptr, indices = conflicts.indptr, conflicts.indices
    rows = np.repeat(np.arange(conflicts.shape[0]), np.diff(indptr))
    lower = indices < rows
    later, earlier = rows[lower], indices[lower]
    ptr = np.concatenate(([0], np.cumsum(lower)))[indptr].tolist()
    idx = earlier.tolist()
    first_fit = []
    for v in range(conflicts.shape[0]):
        taken = {first_fit[u] for u in idx[ptr[v]:ptr[v + 1]]}
        color = 0
        while color in taken:
            color += 1
        first_fit.append(color)
    colors = np.array(first_fit, dtype=np.int64)
    clash = np.flatnonzero(colors[later] == colors[earlier])
    if clash.size:
        u, v = earlier[clash[0]], later[clash[0]]
        raise ColoringError(
            f"edge ({nodes[u]}, {nodes[v]}) is monochromatic with color {colors[v]}"
        )
    return first_fit, int(earlier.size)


def tril_distance2_coloring(network: Network) -> Distance2Coloring:
    """:func:`distance2_coloring` of every node as it was before the index
    mask: the square re-sliced by the identity, then :func:`tril_first_fit`."""
    from scipy import sparse

    n = network.n
    nodes = np.arange(n)
    indptr, indices = network.closed_csr()
    closed = sparse.csr_matrix(
        (np.ones(len(indices), dtype=np.int64), indices, indptr), shape=(n, n)
    )
    square = (closed @ closed)[nodes][:, nodes]
    first_fit, conflict_edges = tril_first_fit(square, nodes)
    max_deg = int(np.diff(square.indptr).max()) - 1
    return Distance2Coloring(
        colors=dict(zip(nodes.tolist(), first_fit)),
        num_colors=len(set(first_fit)),
        charged_rounds=bek15_coloring_rounds(max_deg + 1, n, n),
        conflict_edges=conflict_edges,
    )


@st.composite
def symmetric_csr(draw):
    """A symmetric 0/1 pattern as CSR with each row's columns shuffled:
    empty rows, diagonal entries or none, unsorted indices."""
    from scipy import sparse

    n = draw(st.integers(0, 24))
    node = st.integers(0, max(n - 1, 0))
    pairs = draw(st.sets(st.tuples(node, node), max_size=3 * n)) if n else set()
    rows = [set() for _ in range(n)]
    for u, v in pairs:
        rows[u].add(v)
        rows[v].add(u)
    ordered = [draw(st.permutations(sorted(row))) for row in rows]
    indptr = np.cumsum([0] + [len(row) for row in ordered])
    indices = np.array([v for row in ordered for v in row], dtype=np.int32)
    data = np.ones(len(indices), dtype=np.int64)
    return sparse.csr_matrix((data, indices, indptr), shape=(n, n))


@st.composite
def conflict_matrices(draw):
    """Symmetric conflict patterns shaped to stress the priority rounds:
    a :func:`symmetric_csr` draw, or blocks of cliques (one long chain of
    rounds each), stars and isolated rows, with the rows in a drawn order
    (so a hub may come before or after its leaves), with or without
    diagonal entries."""
    from scipy import sparse

    if draw(st.booleans()):
        return draw(symmetric_csr())
    blocks = draw(
        st.lists(
            st.tuples(st.sampled_from(("clique", "star", "isolated")), st.integers(1, 9)),
            min_size=1,
            max_size=5,
        )
    )
    pairs, n = set(), 0
    for kind, size in blocks:
        members = range(n, n + size)
        if kind == "clique":
            pairs |= {(u, v) for u in members for v in members if u != v}
        elif kind == "star":
            pairs |= {(n, v) for v in members if v != n}
        n += size
    order = draw(st.permutations(range(n)))
    rows = [set() for _ in range(n)]
    for u, v in pairs:
        rows[order[u]].add(order[v])
        rows[order[v]].add(order[u])
    if draw(st.booleans()):
        for v in range(n):
            rows[v].add(v)
    indptr = np.cumsum([0] + [len(row) for row in rows])
    indices = np.array([v for row in rows for v in sorted(row)], dtype=np.int32)
    data = np.ones(len(indices), dtype=np.int64)
    return sparse.csr_matrix((data, indices, indptr), shape=(n, n))


def network_forms(graph: nx.Graph) -> list:
    """``graph`` the three ways callers pass it: as the ``nx.Graph``, as a
    compiled network, and as the CSR twin a shared-memory worker rebuilds."""
    network = Network.congest(graph)
    twin = Network.from_csr(*network.csr(), bit_budget=network.bit_budget)
    return [graph, network, twin]


# Normalized graphs of every shape the coloring treats differently: a single
# node, no edges at all, one hub, long thin paths, random graphs up to n=60
# and one instance of every suite family.
distance2_graphs = st.one_of(
    st.just(normalize_graph(nx.empty_graph(1))),
    st.integers(2, 12).map(lambda n: normalize_graph(nx.empty_graph(n))),
    st.integers(1, 20).map(star_graph),
    st.integers(2, 30).map(lambda n: normalize_graph(nx.path_graph(n))),
    st.builds(
        gnp_graph,
        st.integers(1, 60),
        st.floats(0.0, 0.5),
        seed=st.integers(0, 10_000),
        connected=st.booleans(),
    ),
    st.sampled_from([suite_instance(family, 40, seed=5).graph for family in families()]),
)


@st.composite
def graphs_with_subsets(draw):
    graph = draw(distance2_graphs)
    n = graph.number_of_nodes()
    subset = draw(
        st.one_of(
            st.none(),
            st.just(set()),
            st.sets(st.integers(0, n - 1), max_size=n),
            st.just(set(range(n))),
        )
    )
    return graph, subset


class TestGreedy:
    def test_proper_and_bounded(self, zoo_graph):
        colors = greedy_coloring(zoo_graph)
        used = validate_coloring(zoo_graph, colors)
        delta = max((d for _, d in zoo_graph.degree()), default=0)
        assert used <= delta + 1

    def test_validate_rejects_monochromatic(self):
        g = normalize_graph(nx.path_graph(2))
        with pytest.raises(ColoringError):
            validate_coloring(g, {0: 0, 1: 0})

    def test_validate_rejects_uncolored(self):
        g = normalize_graph(nx.path_graph(2))
        with pytest.raises(ColoringError):
            validate_coloring(g, {0: 0})

    def test_color_classes_sorted(self):
        classes = color_classes({0: 1, 1: 0, 2: 1})
        assert classes == [[1], [0, 2]]


class TestDistance2:
    def test_distance2_is_valid(self, small_gnp):
        result = distance2_coloring(small_gnp)
        validate_distance2(small_gnp, result.colors)

    def test_subset_only(self, small_gnp):
        subset = set(list(small_gnp.nodes())[:10])
        result = distance2_coloring(small_gnp, subset=subset)
        assert set(result.colors) == subset
        validate_distance2(small_gnp, result.colors)

    def test_color_count_bound(self, small_regular):
        result = distance2_coloring(small_regular)
        delta = max(d for _, d in small_regular.degree())
        assert result.num_colors <= delta * delta + 1

    def test_validate_distance2_catches_violation(self, path5):
        with pytest.raises(ColoringError):
            validate_distance2(path5, {0: 0, 2: 0})


#: sha256 of lemma310's canonical coloring of ``suite_instance("gnp", n,
#: seed=3)`` (JSON list of the colors in node order), recorded with the
#: networkx square-graph path that :func:`reference_distance2_coloring`
#: freezes, on the topologies of the gnp generator's version 2.
CANONICAL_COLORING_SHA256 = {
    250: "dadeb54c8804ea30dc3e9bde3bef24b8b36d5f9a4bbea5f633dcdd8ca5aed486",
    500: "8a695e9324af729731b50a243e713a2fa699b49cb3d193ce2665db15701a9268",
    1000: "0613b98f616b7a716d63b82772375d2dc6262e35b24bddae336309d101158cba",
}


class TestDistance2Parity:
    """The CSR coloring against the frozen networkx path, field for field."""

    @staticmethod
    def assert_matches(graph, subset):
        expected = reference_distance2_coloring(graph, subset)
        for form in network_forms(graph):
            result = distance2_coloring(form, subset)
            assert result == expected
            assert list(result.colors) == list(expected.colors)
            assert all(
                type(v) is int and type(c) is int for v, c in result.colors.items()
            )
            assert type(result.num_colors) is int
            assert type(result.charged_rounds) is int
            assert type(result.conflict_edges) is int

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(graphs_with_subsets())
    def test_matches_reference(self, case):
        self.assert_matches(*case)

    @settings(max_examples=200, deadline=None)
    @given(symmetric_csr())
    def test_first_fit_matches_the_tril_route(self, conflicts):
        nodes = np.arange(conflicts.shape[0])
        colors, count = _first_fit(conflicts, nodes)
        assert (colors.tolist(), count) == tril_first_fit(conflicts, nodes)

    @settings(max_examples=200, deadline=None)
    @given(conflict_matrices())
    def test_priority_rounds_match_the_sequential_loop(self, conflicts):
        nodes = np.arange(conflicts.shape[0])
        colors, count = _first_fit(conflicts, nodes)
        assert (colors.tolist(), count) == sequential_first_fit(conflicts, nodes)

    @pytest.mark.parametrize("family", families())
    @pytest.mark.parametrize("n", [60, 300])
    def test_suite_colorings_match_the_sequential_loop(self, family, n, monkeypatch):
        """Both colorings of every suite family equal what they give with
        the frozen loop in place of the rounds, on every node and on the
        participating subset Theorem 1.2 colors."""
        graph = suite_instance(family, n, seed=2).graph
        network = Network.congest(graph)
        instance = CoveringInstance.from_graph(graph, {v: 0.5 for v in graph.nodes()})
        subset = set(range(0, network.n, 3))

        def colorings():
            return (
                distance2_coloring(network),
                distance2_coloring(network, subset=subset),
                bipartite_distance2_coloring(instance),
                bipartite_distance2_coloring(instance, restrict=subset),
            )

        rounds = colorings()
        monkeypatch.setattr(distance2, "_first_fit", sequential_first_fit)
        assert rounds == colorings()

    @pytest.mark.parametrize("cells", [2, 7, 40])
    def test_rows_past_the_table_bound_wait_a_round(self, cells, monkeypatch):
        """A round colors only the ready rows its mex table holds; the rest
        wait for the next round, which changes no color."""
        monkeypatch.setattr(distance2, "_TABLE_CELLS", cells)
        for family in ("gnp", "grid", "tree"):
            network = Network.congest(suite_instance(family, 60, seed=4).graph)
            want = list(tril_distance2_coloring(network).colors.values())
            assert list(distance2_coloring(network).colors.values()) == want

    def test_a_conflict_listed_in_one_row_only_is_still_checked(self):
        """Rows 0 and 1 both list nothing earlier, so both are ready at
        once and take color 0; row 0 lists 1, row 1 does not list 0."""
        from scipy import sparse

        one_sided = sparse.csr_matrix(([1], [1], [0, 1, 1]), shape=(2, 2))
        with pytest.raises(ColoringError, match=r"edge \(0, 1\) is monochromatic"):
            _first_fit(one_sided, np.arange(2))
        # Row 1 lists 0 as earlier, row 0 does not list 1: nothing frees row 1.
        waiting = sparse.csr_matrix(([1], [0], [0, 0, 1]), shape=(2, 2))
        with pytest.raises(ColoringError, match="not symmetric"):
            _first_fit(waiting, np.arange(2))

    @pytest.mark.parametrize("family", families())
    def test_suite_colorings_match_the_tril_route(self, family):
        for n in (60, 250):
            network = Network.congest(suite_instance(family, n, seed=2).graph)
            assert distance2_coloring(network) == tril_distance2_coloring(network)

    @pytest.mark.parametrize("n", [256, 300])
    def test_clique_counts_do_not_wrap(self, n):
        # Every pair of K_n shares all n closed neighbours.  An 8-bit count
        # wraps to exactly 0 at n=256 and the sparse product drops every
        # conflict; n=300 keeps counts above 255.  The reference would square
        # K_n by BFS for seconds; the answer is known: n colors, all pairs.
        expected = Distance2Coloring(
            colors={v: v for v in range(n)},
            num_colors=n,
            charged_rounds=bek15_coloring_rounds(n, n, n),
            conflict_edges=n * (n - 1) // 2,
        )
        for form in network_forms(clique_graph(n)):
            assert distance2_coloring(form) == expected

    @pytest.mark.parametrize("form", [0, 1, 2], ids=["graph", "network", "twin"])
    def test_unknown_subset_node_raises(self, form):
        graph = normalize_graph(nx.path_graph(5))
        with pytest.raises(ColoringError, match=r"subset nodes \[5, 99\] not in graph"):
            distance2_coloring(network_forms(graph)[form], subset={0, 5, 99})

    @pytest.mark.parametrize("n", sorted(CANONICAL_COLORING_SHA256))
    def test_lemma310_canonical_coloring_pinned(self, n):
        network = Network.congest(suite_instance("gnp", n, seed=3).graph)
        colors = lemma310._canonical_colors([network])[0].tolist()
        assert len(colors) == n
        blob = json.dumps(colors).encode()
        assert hashlib.sha256(blob).hexdigest() == CANONICAL_COLORING_SHA256[n]


class TestBipartiteLemma312:
    def test_colors_within_deltaL_deltaR(self, medium_gnp):
        inst = CoveringInstance.from_graph(
            medium_gnp, {v: 0.5 for v in medium_gnp.nodes()}
        )
        result = bipartite_distance2_coloring(inst)
        assert result.num_colors <= inst.max_constraint_degree * inst.max_var_degree
        assert result.charged_rounds >= 1

    def test_coloring_is_conflict_proper(self, small_gnp):
        inst = CoveringInstance.from_graph(
            small_gnp, {v: 0.5 for v in small_gnp.nodes()}
        )
        result = bipartite_distance2_coloring(inst)
        conflict = value_conflict_graph(inst)
        validate_coloring(conflict, result.colors)

    def test_restricted_coloring(self, small_gnp):
        inst = CoveringInstance.from_graph(
            small_gnp, {v: 0.5 for v in small_gnp.nodes()}
        )
        keep = set(list(inst.value_vars)[:8])
        result = bipartite_distance2_coloring(inst, restrict=keep)
        assert set(result.colors) == keep

    def test_restrict_rejects_unknown_ids(self):
        path4 = normalize_graph(nx.path_graph(4))
        inst = CoveringInstance.from_graph(path4, {v: 0.5 for v in path4.nodes()})
        with pytest.raises(ColoringError, match=r"restrict ids \[99\]"):
            bipartite_distance2_coloring(inst, restrict={0, 99})


class TestReduction:
    def test_reduces_to_delta_plus_one(self, small_gnp):
        initial = {v: v for v in small_gnp.nodes()}  # IDs as colors
        result = reduce_coloring(small_gnp, initial)
        delta = max(d for _, d in small_gnp.degree())
        assert result.num_colors <= delta + 1
        validate_coloring(small_gnp, result.colors)

    def test_rounds_counted(self, small_gnp):
        initial = {v: v for v in small_gnp.nodes()}
        result = reduce_coloring(small_gnp, initial)
        assert result.rounds >= 1

    def test_already_small_untouched(self, path5):
        colors = greedy_coloring(path5)
        result = reduce_coloring(path5, colors)
        assert result.num_colors <= 2 + 1


class TestLinial:
    def test_one_round_shrinks_and_stays_proper(self):
        g = regular_graph(64, 4, seed=2)
        colors = {v: v for v in g.nodes()}
        new = linial_one_round(g, colors)
        validate_coloring(g, new)
        assert max(new.values()) < 64 * 64  # in [q^2]

    def test_full_run_polylog_palette(self):
        g = regular_graph(128, 4, seed=3)
        result = linial_coloring(g)
        validate_coloring(g, result.colors)
        delta = 4
        # O(Delta^2 log^2-ish) palette: generous explicit cap.
        assert result.num_colors <= (10 * delta) ** 2
        assert result.rounds <= 10
        # Palette shrinks monotonically across iterations.
        assert all(
            b <= a for a, b in zip(result.color_counts, result.color_counts[1:])
        )

    def test_rejects_improper_input(self, path5):
        with pytest.raises(ColoringError):
            linial_one_round(path5, {v: 0 for v in path5.nodes()})

    def test_respects_initial_coloring(self, small_regular):
        initial = greedy_coloring(small_regular)
        result = linial_coloring(small_regular, initial=initial)
        validate_coloring(small_regular, result.colors)
        assert result.num_colors <= max(initial.values()) + 1
