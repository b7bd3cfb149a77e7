"""Graph powers.

``G^k`` connects two distinct nodes iff their distance in ``G`` is at most
``k``.  The paper needs ``G^2`` (distance-2 colorings, 2-hop network
decompositions) and ``G^3``-style reachability for the ``G_S`` graph of
Section 4.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Dict, Iterable, Set

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


def square_graph(graph: nx.Graph) -> nx.Graph:
    """``G^2`` on the same node set (used by distance-2 colorings and 2-hop
    decompositions): a depth-2 BFS from every node, ``O(n * m_2)`` where
    ``m_2`` is the ball size, fine at simulation scale.
    """
    import networkx as nx

    square = nx.Graph()
    square.add_nodes_from(graph.nodes())
    for v in graph.nodes():
        for u in ball(graph, v, 2):
            if u != v:
                square.add_edge(v, u)
    return square


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
