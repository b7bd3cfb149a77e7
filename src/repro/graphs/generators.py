"""Deterministic (seeded) graph generators for workloads.

The paper motivates MDS with clustering in wireless ad-hoc / sensor networks,
so the suite leans on random geometric (unit-disk) graphs; classic families
(G(n,p), preferential attachment, grids, trees, caterpillars, regular graphs)
round out the sweep so degree distributions from near-regular to heavy-tailed
are covered.  All generators return normalized graphs (labels ``0..n-1``)
and take an explicit ``seed`` so experiments are reproducible.

G(n, p) is generated as arrays (:func:`gnp_arrays`, an :class:`EdgeArrays`):
networkx's ``random()`` draws replayed in numpy, the connectivity patch
from numpy component labels (:func:`_component_roots`), ``normalize_graph``'s
relabelling as one rank array, and the sorted adjacency (CSR) by one sort.
The arrays equal those of the networkx route, and :func:`gnp_graph` builds
the same graph from them, down to adjacency order.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Tuple

import numpy as np

from repro.errors import GraphError
from repro.graphs.normalize import normalize_graph, repr_rank

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


#: Draws per chunk of the G(n, p) replay: 2**16 doubles, about 0.5 MB.
_GNP_CHUNK = 1 << 16


def _python_random_stream(seed: int) -> np.random.RandomState:
    """A numpy generator whose ``random_sample`` replays
    ``random.Random(seed).random()`` bit for bit.

    CPython seeds its Mersenne Twister by ``init_by_array`` over the
    little-endian 32-bit words of ``abs(seed)`` (``[0]`` for 0), and numpy's
    legacy ``RandomState`` does the same for a sequence seed; both then build
    each double from two 32-bit outputs the same way.  The words go in as a
    list: a scalar (or one-element array) seed takes numpy's
    ``init_genrand`` route, a different stream.
    """
    rest = abs(seed)
    words = []
    while True:
        words.append(rest & 0xFFFFFFFF)
        rest >>= 32
        if not rest:
            return np.random.RandomState(words)


@dataclass(frozen=True, eq=False)
class EdgeArrays:
    """A normalized graph on ``0..n-1`` held as arrays.

    ``u[i]``-``v[i]`` is the ``i``-th edge in the order
    :func:`~repro.graphs.normalize.normalize_graph` would add it, and
    ``indptr``/``indices`` are the sorted adjacency (CSR) the engines run
    on: ``indices[indptr[w]:indptr[w + 1]]`` are ``w``'s neighbours in
    ascending order.
    """

    u: np.ndarray
    v: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray

    @classmethod
    def from_edges(cls, n: int, u: np.ndarray, v: np.ndarray) -> "EdgeArrays":
        """Wrap an ordered simple edge list; its CSR takes one sort."""
        slots = np.sort(np.concatenate([u * n + v, v * n + u]))
        counts = np.bincount(slots // n, minlength=n)
        indptr = np.concatenate([[0], np.cumsum(counts)])
        return cls(u, v, indptr, slots % n)

    @property
    def n(self) -> int:
        return len(self.indptr) - 1

    @property
    def max_degree(self) -> int:
        return int(np.diff(self.indptr).max(initial=0))

    def graph(self) -> nx.Graph:
        """The networkx graph, equal to the networkx route's down to
        adjacency order (nodes ``0..n-1`` first, then the edges in order)."""
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(range(self.n))
        graph.add_edges_from(zip(self.u.tolist(), self.v.tolist()))
        return graph


def _gnp_pairs(n: int, p: float, seed: int) -> Tuple[np.ndarray, np.ndarray]:
    """The edges ``nx.gnp_random_graph(n, p, seed=seed)`` adds, in its order.

    Pair ``k`` of ``itertools.combinations(range(n), 2)`` is kept when the
    ``k``-th draw of ``random.Random(seed)`` is ``< p``; a kept flat index
    maps back to ``(u, v)`` through the row offsets ``u * (2n - u - 1) / 2``
    (the flat index of ``(u, u + 1)``).  For ``p >= 1`` every draw is kept,
    as networkx's complete graph adds every pair in the same order.
    """
    total = n * (n - 1) // 2
    kept = [np.empty(0, dtype=np.int64)]
    if p > 0:
        stream = _python_random_stream(seed)
        for start in range(0, total, _GNP_CHUNK):
            draws = stream.random_sample(min(_GNP_CHUNK, total - start))
            kept.append(np.flatnonzero(draws < p) + start)
    flat = np.concatenate(kept)
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
    n: int, u: np.ndarray, v: np.ndarray, rng: random.Random
) -> Tuple[np.ndarray, np.ndarray]:
    """The edges ``(u, v)`` on ``0..n-1`` patched by :func:`_ensure_connected`
    with ``rng``, in the networkx graph's ``edges()`` order.

    networkx lists components by smallest node and the sort by size is
    stable, so components go largest first, ties by smallest node; each
    later one links a member to the largest, both chosen from sorted lists.
    ``edges()`` lists each edge under its smaller endpoint, in that node's
    adjacency order: its drawn neighbours ascending, then its links.  For
    drawn edges in pair order followed by the links, that is a stable sort
    by smaller endpoint.
    """
    root = _component_roots(n, u, v)
    smallest = np.flatnonzero(root == np.arange(n))
    count = len(smallest)
    if count == 1:
        return u, v
    labels = np.searchsorted(smallest, root)
    sizes = np.bincount(labels, minlength=count)
    order = np.lexsort((smallest, -sizes))
    members = np.argsort(labels, kind="stable")
    starts = np.concatenate([[0], np.cumsum(sizes)])
    anchor = members[starts[order[0]] : starts[order[0] + 1]]
    links = [
        (rng.choice(members[starts[c] : starts[c + 1]]), rng.choice(anchor))
        for c in order[1:].tolist()
    ]
    low = np.concatenate([u, np.min(links, axis=1)])
    high = np.concatenate([v, np.max(links, axis=1)])
    by_low = np.argsort(low, kind="stable")
    return low[by_low], high[by_low]


def gnp_arrays(n: int, p: float, seed: int = 0, connected: bool = True) -> EdgeArrays:
    """Erdos-Renyi ``G(n, p)``, optionally patched to be connected, as arrays.

    The arrays of ``normalize_graph(nx.gnp_random_graph(n, p, seed=seed))``
    (patched first by :func:`_ensure_connected` when ``connected``), whose
    ``n(n-1)/2`` Python ``random()`` calls are replayed in numpy; no
    networkx graph is built.  ``normalize_graph`` adds the edges in
    ``edges()`` order, relabelled by one rank array.
    """
    if n <= 0:
        raise GraphError("n must be positive")
    u, v = _gnp_pairs(n, p, seed)
    if connected:
        u, v = _connect(n, u, v, random.Random(seed))
    rank = repr_rank(n)
    return EdgeArrays.from_edges(n, rank[u], rank[v])


def gnp_graph(n: int, p: float, seed: int = 0, connected: bool = True) -> nx.Graph:
    """Erdos-Renyi ``G(n, p)``; optionally patched to be connected.

    Identical, down to node and adjacency order, to
    ``nx.gnp_random_graph(n, p, seed=seed)`` (then patched and normalized):
    the networkx graph of :func:`gnp_arrays`.
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
