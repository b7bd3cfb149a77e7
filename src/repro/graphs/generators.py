"""Deterministic (seeded) graph generators for workloads.

The paper motivates MDS with clustering in wireless ad-hoc / sensor networks,
so the suite leans on random geometric (unit-disk) graphs; classic families
(G(n,p), preferential attachment, grids, trees, caterpillars, regular graphs)
round out the sweep so degree distributions from near-regular to heavy-tailed
are covered.  All generators return normalized graphs (labels ``0..n-1``)
and take an explicit ``seed`` so experiments are reproducible.

G(n, p) is sampled straight into arrays (:func:`gnp_arrays`, an
:class:`EdgeArrays`) in O(n + m): a binomial edge count, that many distinct
uniform pairs, the connectivity patch from numpy component labels
(:func:`_component_roots`), and the sorted adjacency (CSR) by one sort.
These are not networkx's G(n, p) draws, so the family carries its own
generator version (:data:`repro.graphs.suite.GENERATOR_VERSIONS`) in every
persisted topology key.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Tuple

import numpy as np

from repro.errors import GraphError
from repro.graphs.normalize import normalize_graph

if TYPE_CHECKING:
    import networkx as nx


def _ensure_connected(graph: nx.Graph, rng: random.Random) -> nx.Graph:
    """Connect components by linking a random node of each component to the
    largest component (adds the minimum number of edges)."""
    import networkx as nx

    if graph.number_of_nodes() == 0:
        return graph
    components = sorted(nx.connected_components(graph), key=len, reverse=True)
    anchor_pool = sorted(components[0])
    for comp in components[1:]:
        u = rng.choice(sorted(comp))
        v = rng.choice(anchor_pool)
        graph.add_edge(u, v)
    return graph


@dataclass(frozen=True, eq=False)
class EdgeArrays:
    """A normalized graph on ``0..n-1`` held as its sorted adjacency (CSR),
    the arrays the engines run on: ``indices[indptr[w]:indptr[w + 1]]`` are
    ``w``'s neighbours in ascending order.
    """

    indptr: np.ndarray
    indices: np.ndarray

    @classmethod
    def from_edges(cls, n: int, u: np.ndarray, v: np.ndarray) -> "EdgeArrays":
        """The CSR of a simple edge list on ``0..n-1``, by one sort."""
        slots = np.sort(np.concatenate([u * n + v, v * n + u]))
        counts = np.bincount(slots // n, minlength=n)
        indptr = np.concatenate([[0], np.cumsum(counts)])
        return cls(indptr, slots % n)

    @property
    def n(self) -> int:
        return len(self.indptr) - 1

    @property
    def max_degree(self) -> int:
        return int(np.diff(self.indptr).max(initial=0))

    def graph(self) -> nx.Graph:
        """The networkx graph: nodes ``0..n-1``, then the edges ``(w, x)``,
        ``w < x``, in ascending order, so every adjacency lists its
        neighbours in ascending order, as the CSR does."""
        import networkx as nx

        rows = np.repeat(np.arange(self.n), np.diff(self.indptr))
        upper = self.indices > rows
        graph = nx.Graph()
        graph.add_nodes_from(range(self.n))
        graph.add_edges_from(zip(rows[upper].tolist(), self.indices[upper].tolist()))
        return graph


def _gnp_pairs(n: int, p: float, rng: np.random.Generator) -> Tuple[np.ndarray, np.ndarray]:
    """The edges ``(u, v)``, ``u < v``, of a ``G(n, p)`` sample.

    Every pair being an edge independently with probability ``p`` is the
    same law as a ``Binomial(n(n-1)/2, p)`` edge count followed by a
    uniform choice of that many distinct pairs, which costs O(n + m)
    instead of one draw per pair.  ``p <= 0`` (or NaN) gives no edge and
    ``p >= 1`` every pair, without a binomial draw.  Pair ``k`` of
    ``itertools.combinations(range(n), 2)`` maps back to ``(u, v)`` through
    the row offsets ``u * (2n - u - 1) / 2`` (the flat index of ``(u, u + 1)``).
    """
    total = n * (n - 1) // 2
    count = 0 if not p > 0 else total if p >= 1 else int(rng.binomial(total, p))
    flat = np.sort(rng.choice(total, count, replace=False, shuffle=False))
    rows = np.arange(n, dtype=np.int64)
    offsets = rows * (2 * n - rows - 1) // 2
    u = np.searchsorted(offsets, flat, side="right") - 1
    return u, flat - offsets[u] + u + 1


def _component_roots(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The smallest node of every node's component in the graph on
    ``0..n-1`` with edges ``(u, v)``.

    Min-label hooking with pointer jumping: each round, every edge between
    two trees hooks the larger root under the smaller, and every node then
    jumps to its root.  Pointers only decrease, so a component's smallest
    node stays its root.
    """
    root = np.arange(n)
    while True:
        ru, rv = root[u], root[v]
        cross = ru != rv
        if not cross.any():
            return root
        u, v, ru, rv = u[cross], v[cross], ru[cross], rv[cross]
        np.minimum.at(root, np.maximum(ru, rv), np.minimum(ru, rv))
        jumped = root[root]
        while not np.array_equal(jumped, root):
            root, jumped = jumped, jumped[jumped]


def _connect(
    n: int, u: np.ndarray, v: np.ndarray, rng: np.random.Generator
) -> Tuple[np.ndarray, np.ndarray]:
    """The edges ``(u, v)`` on ``0..n-1`` plus the fewest links that connect
    them: one per component but the largest (of equal sizes, the one with
    the smallest node), from a uniform member of it to a uniform member of
    the largest, all drawn from ``rng`` in one call."""
    root = _component_roots(n, u, v)
    smallest = np.flatnonzero(root == np.arange(n))
    if len(smallest) == 1:
        return u, v
    labels = np.searchsorted(smallest, root)
    sizes = np.bincount(labels)
    members = np.argsort(labels, kind="stable")
    starts = np.cumsum(sizes) - sizes
    largest = int(np.argmax(sizes))
    others = np.delete(np.arange(len(sizes)), largest)
    # Row 0 names each link's component, row 1 the largest.
    ends = np.stack([others, np.full_like(others, largest)])
    linked = members[starts[ends] + rng.integers(0, sizes[ends])]
    return np.concatenate([u, linked[0]]), np.concatenate([v, linked[1]])


def gnp_arrays(n: int, p: float, seed: int = 0, connected: bool = True) -> EdgeArrays:
    """Erdos-Renyi ``G(n, p)``, optionally patched to be connected, as arrays.

    One numpy ``Generator`` seeded with ``abs(seed)`` draws the edges
    (:func:`_gnp_pairs`) and then the patch's links (:func:`_connect`), so
    ``seed`` and ``-seed`` name one graph, as they do for
    ``random.Random``, and seeds past 64 bits work.  Time and memory are
    O(n + m), and no networkx graph is built.  G(n, p) is exchangeable, so
    the sample needs no relabelling.
    """
    if n <= 0:
        raise GraphError("n must be positive")
    rng = np.random.default_rng(abs(seed))
    u, v = _gnp_pairs(n, p, rng)
    if connected:
        u, v = _connect(n, u, v, rng)
    return EdgeArrays.from_edges(n, u, v)


def gnp_graph(n: int, p: float, seed: int = 0, connected: bool = True) -> nx.Graph:
    """Erdos-Renyi ``G(n, p)``; optionally patched to be connected.

    The networkx graph of :func:`gnp_arrays`, every adjacency in ascending
    order.
    """
    return gnp_arrays(n, p, seed=seed, connected=connected).graph()


def geometric_graph(
    n: int, radius: float | None = None, seed: int = 0, connected: bool = True
) -> nx.Graph:
    """Random geometric (unit-disk) graph: the sensor-network workload.

    ``radius`` defaults to the connectivity threshold
    ``sqrt(2 * ln(n) / (pi * n))`` so average degree stays ~logarithmic.
    """
    import networkx as nx

    if n <= 0:
        raise GraphError("n must be positive")
    if radius is None:
        radius = math.sqrt(2.0 * math.log(max(2, n)) / (math.pi * n))
    rng = random.Random(seed)
    graph = nx.random_geometric_graph(n, radius, seed=seed)
    if connected:
        _ensure_connected(graph, rng)
    return normalize_graph(graph)


def preferential_attachment_graph(n: int, m: int = 2, seed: int = 0) -> nx.Graph:
    """Barabasi-Albert preferential attachment: heavy-tailed degrees."""
    import networkx as nx

    if n <= m:
        raise GraphError("n must exceed m")
    return normalize_graph(nx.barabasi_albert_graph(n, m, seed=seed))


def grid_graph(rows: int, cols: int) -> nx.Graph:
    """2D grid: the bounded-degree, large-diameter extreme."""
    import networkx as nx

    return normalize_graph(nx.grid_2d_graph(rows, cols))


def ring_graph(n: int) -> nx.Graph:
    """Cycle on ``n`` nodes."""
    import networkx as nx

    return normalize_graph(nx.cycle_graph(n))


def random_tree(n: int, seed: int = 0) -> nx.Graph:
    """Uniform random labelled tree (Pruefer sequence)."""
    import networkx as nx

    if n <= 0:
        raise GraphError("n must be positive")
    if n <= 2:
        return normalize_graph(nx.path_graph(n))
    rng = random.Random(seed)
    prufer = [rng.randrange(n) for _ in range(n - 2)]
    return normalize_graph(nx.from_prufer_sequence(prufer))


def caterpillar_graph(spine: int, legs_per_node: int = 2) -> nx.Graph:
    """Caterpillar: a path spine with pendant legs.

    Its MDS is essentially the spine, a classic adversarial shape for greedy.
    """
    import networkx as nx

    graph = nx.path_graph(spine)
    next_id = spine
    for v in range(spine):
        for _ in range(legs_per_node):
            graph.add_edge(v, next_id)
            next_id += 1
    return normalize_graph(graph)


def regular_graph(n: int, d: int, seed: int = 0) -> nx.Graph:
    """Random ``d``-regular graph."""
    import networkx as nx

    if not 0 <= d < n:
        raise GraphError("a d-regular graph needs 0 <= d < n")
    if (n * d) % 2 != 0:
        raise GraphError("n*d must be even for a d-regular graph")
    return normalize_graph(nx.random_regular_graph(d, n, seed=seed))


def star_graph(n: int) -> nx.Graph:
    """Star with ``n`` leaves: MDS is a single node, Delta = n."""
    import networkx as nx

    return normalize_graph(nx.star_graph(n))


def clique_graph(n: int) -> nx.Graph:
    """Complete graph: MDS is a single node, maximal density."""
    import networkx as nx

    return normalize_graph(nx.complete_graph(n))


def dumbbell_graph(clique_size: int, path_length: int) -> nx.Graph:
    """Two cliques joined by a path: dense ends, sparse middle, a shape where
    the domination need is heterogeneous (good crossover probe)."""
    import networkx as nx

    graph = nx.complete_graph(clique_size)
    offset = clique_size
    other = nx.complete_graph(clique_size)
    graph = nx.disjoint_union(graph, other)
    prev = 0
    next_id = 2 * clique_size
    for _ in range(path_length):
        graph.add_edge(prev, next_id)
        prev = next_id
        next_id += 1
    graph.add_edge(prev, offset)
    return normalize_graph(graph)
