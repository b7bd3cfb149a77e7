"""Deterministic (seeded) graph generators for workloads.

The paper motivates MDS with clustering in wireless ad-hoc / sensor networks,
so the suite leans on random geometric (unit-disk) graphs; classic families
(G(n,p), preferential attachment, grids, trees, caterpillars, regular graphs)
round out the sweep so degree distributions from near-regular to heavy-tailed
are covered.  All generators return normalized graphs (labels ``0..n-1``)
and take an explicit ``seed`` so experiments are reproducible.
"""

from __future__ import annotations

import math
import random
from typing import Iterator, Tuple

import networkx as nx
import numpy as np

from repro.errors import GraphError
from repro.graphs.normalize import normalize_graph


def _ensure_connected(graph: nx.Graph, rng: random.Random) -> nx.Graph:
    """Connect components by linking a random node of each component to the
    largest component (adds the minimum number of edges)."""
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


def _gnp_pairs(n: int, p: float, seed: int) -> Iterator[Tuple[int, int]]:
    """The edges ``nx.gnp_random_graph(n, p, seed=seed)`` adds, in its order.

    Pair ``k`` of ``itertools.combinations(range(n), 2)`` is kept when the
    ``k``-th draw of ``random.Random(seed)`` is ``< p``; a kept flat index
    maps back to ``(u, v)`` through the row offsets ``u * (2n - u - 1) / 2``
    (the flat index of ``(u, u + 1)``).
    """
    total = n * (n - 1) // 2
    stream = _python_random_stream(seed)
    kept = [np.empty(0, dtype=np.int64)]
    for start in range(0, total, _GNP_CHUNK):
        draws = stream.random_sample(min(_GNP_CHUNK, total - start))
        kept.append(np.flatnonzero(draws < p) + start)
    flat = np.concatenate(kept)
    rows = np.arange(n, dtype=np.int64)
    offsets = rows * (2 * n - rows - 1) // 2
    u = np.searchsorted(offsets, flat, side="right") - 1
    v = flat - offsets[u] + u + 1
    return zip(u.tolist(), v.tolist())


def gnp_graph(n: int, p: float, seed: int = 0, connected: bool = True) -> nx.Graph:
    """Erdos-Renyi ``G(n, p)``; optionally patched to be connected.

    Identical, down to node and adjacency order, to
    ``nx.gnp_random_graph(n, p, seed=seed)`` (then patched and normalized),
    whose ``n(n-1)/2`` Python ``random()`` calls are replayed in numpy.
    """
    if n <= 0:
        raise GraphError("n must be positive")
    rng = random.Random(seed)
    if p >= 1:
        graph = nx.complete_graph(n)
    else:
        graph = nx.empty_graph(n)
        if p > 0:
            graph.add_edges_from(_gnp_pairs(n, p, seed))
    if connected:
        _ensure_connected(graph, rng)
    return normalize_graph(graph)


def geometric_graph(
    n: int, radius: float | None = None, seed: int = 0, connected: bool = True
) -> nx.Graph:
    """Random geometric (unit-disk) graph: the sensor-network workload.

    ``radius`` defaults to the connectivity threshold
    ``sqrt(2 * ln(n) / (pi * n))`` so average degree stays ~logarithmic.
    """
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
    if n <= m:
        raise GraphError("n must exceed m")
    return normalize_graph(nx.barabasi_albert_graph(n, m, seed=seed))


def grid_graph(rows: int, cols: int) -> nx.Graph:
    """2D grid: the bounded-degree, large-diameter extreme."""
    return normalize_graph(nx.grid_2d_graph(rows, cols))


def ring_graph(n: int) -> nx.Graph:
    """Cycle on ``n`` nodes."""
    return normalize_graph(nx.cycle_graph(n))


def random_tree(n: int, seed: int = 0) -> nx.Graph:
    """Uniform random labelled tree (Pruefer sequence)."""
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
    graph = nx.path_graph(spine)
    next_id = spine
    for v in range(spine):
        for _ in range(legs_per_node):
            graph.add_edge(v, next_id)
            next_id += 1
    return normalize_graph(graph)


def regular_graph(n: int, d: int, seed: int = 0) -> nx.Graph:
    """Random ``d``-regular graph."""
    if not 0 <= d < n:
        raise GraphError("a d-regular graph needs 0 <= d < n")
    if (n * d) % 2 != 0:
        raise GraphError("n*d must be even for a d-regular graph")
    return normalize_graph(nx.random_regular_graph(d, n, seed=seed))


def star_graph(n: int) -> nx.Graph:
    """Star with ``n`` leaves: MDS is a single node, Delta = n."""
    return normalize_graph(nx.star_graph(n))


def clique_graph(n: int) -> nx.Graph:
    """Complete graph: MDS is a single node, maximal density."""
    return normalize_graph(nx.complete_graph(n))


def dumbbell_graph(clique_size: int, path_length: int) -> nx.Graph:
    """Two cliques joined by a path: dense ends, sparse middle, a shape where
    the domination need is heterogeneous (good crossover probe)."""
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
