"""Graph powers.

``G^k`` connects two distinct nodes iff their distance in ``G`` is at most
``k``.  The paper needs ``G^2`` (distance-2 colorings, 2-hop network
decompositions) and ``G^3``-style reachability for the ``G_S`` graph of
Section 4.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Dict, Iterable, List, Set

from repro.errors import GraphError

if TYPE_CHECKING:
    import networkx as nx


def ball(
    graph: nx.Graph, center: int, radius: int, within: Set[int] | None = None
) -> Dict[int, int]:
    """BFS ball: map node -> distance for all nodes within ``radius`` of
    ``center``; optionally restricted to the induced subgraph on ``within``.
    """
    if center not in graph:
        raise GraphError(f"center {center} not in graph")
    dist = {center: 0}
    frontier = deque([center])
    while frontier:
        u = frontier.popleft()
        if dist[u] == radius:
            continue
        for w in graph.neighbors(u):
            if within is not None and w not in within:
                continue
            if w not in dist:
                dist[w] = dist[u] + 1
                frontier.append(w)
    return dist


def graph_power(graph: nx.Graph, k: int) -> nx.Graph:
    """``G^k`` on the same node set.

    Runs a depth-``k`` BFS from every node; ``O(n * m_k)`` where ``m_k`` is
    the ball size, fine at simulation scale.
    """
    import networkx as nx

    if k < 1:
        raise GraphError("power k must be >= 1")
    power = nx.Graph()
    power.add_nodes_from(graph.nodes())
    for v in graph.nodes():
        for u, d in ball(graph, v, k).items():
            if u != v and d >= 1:
                power.add_edge(v, u)
    return power


def square_graph(graph: nx.Graph) -> nx.Graph:
    """``G^2`` (used by distance-2 colorings and 2-hop decompositions)."""
    return graph_power(graph, 2)


def nodes_within(graph: nx.Graph, sources: Iterable[int], radius: int) -> Set[int]:
    """All nodes within ``radius`` hops of any source (multi-source BFS)."""
    dist: Dict[int, int] = {}
    frontier: deque[int] = deque()
    for s in sources:
        dist[s] = 0
        frontier.append(s)
    while frontier:
        u = frontier.popleft()
        if dist[u] == radius:
            continue
        for w in graph.neighbors(u):
            if w not in dist:
                dist[w] = dist[u] + 1
                frontier.append(w)
    return set(dist)


def pairwise_distance_at_most(
    graph: nx.Graph, u: int, v: int, limit: int
) -> bool:
    """Whether ``d_G(u, v) <= limit`` (early-exit bidirectional-ish BFS)."""
    if u == v:
        return True
    seen = ball(graph, u, limit)
    return v in seen


def shortest_path_within(
    graph: nx.Graph, u: int, v: int, limit: int
) -> List[int] | None:
    """A shortest path from ``u`` to ``v`` if its length is at most
    ``limit``; ``None`` otherwise.  Ties broken deterministically by BFS
    order over sorted adjacency.
    """
    if u == v:
        return [u]
    parent: Dict[int, int] = {u: -1}
    frontier = deque([(u, 0)])
    while frontier:
        w, d = frontier.popleft()
        if d == limit:
            continue
        for nxt in sorted(graph.neighbors(w)):
            if nxt in parent:
                continue
            parent[nxt] = w
            if nxt == v:
                path = [v]
                while path[-1] != u:
                    path.append(parent[path[-1]])
                return list(reversed(path))
            frontier.append((nxt, d + 1))
    return None
