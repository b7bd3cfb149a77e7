"""Deterministic ball-carving network decomposition.

Construction (the [ALGP89]-style doubling argument):

1. *Carving.*  Repeatedly take the smallest-ID unclustered node and grow a
   BFS ball inside the unclustered part of the graph, adding the next BFS
   layer as long as it more than doubles the ball.  The doubling rule stops
   within ``log2 n`` layers, so every cluster is connected with BFS-tree
   depth at most ``log2 n``.
2. *Coloring.*  Two clusters conflict when some pair of their members is at
   distance <= k in the *full* graph; greedy coloring of the conflict graph
   in cluster-ID order yields colors with exact ``k``-separation by
   construction.

This substitutes the [GK18] CONGEST construction (see "Charged stages" in
docs/architecture.md): the (d, c) quality is measured (experiment E9)
instead of bounded by ``2^O(sqrt(log n log log n))``, and the CONGEST cost
of the original is charged separately.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Dict, List, Set

from repro.decomposition.cluster_graph import (
    Cluster,
    NetworkDecomposition,
)
from repro.errors import DecompositionError
from repro.graphs.normalize import require_normalized
from repro.graphs.powers import nodes_within

if TYPE_CHECKING:
    import networkx as nx


def _grow_ball(graph: nx.Graph, center: int, available: Set[int]) -> Set[int]:
    """BFS ball around ``center`` in ``G[available]`` under the doubling
    rule: include the next layer only while it more than doubles the ball."""
    ball = {center}
    frontier = {center}
    while True:
        next_layer: Set[int] = set()
        for v in frontier:
            for u in graph.neighbors(v):
                if u in available and u not in ball and u not in next_layer:
                    next_layer.add(u)
        if not next_layer:
            break
        if len(ball) + len(next_layer) <= 2 * len(ball):
            break
        ball |= next_layer
        frontier = next_layer
    return ball


def _bfs_tree(graph: nx.Graph, root: int, members: Set[int]) -> tuple[Dict[int, int], int]:
    """Rooted BFS tree of ``G[members]``; returns (parent map, depth)."""
    parent = {root: -1}
    depth = 0
    frontier = deque([(root, 0)])
    while frontier:
        v, d = frontier.popleft()
        depth = max(depth, d)
        for u in sorted(graph.neighbors(v)):
            if u in members and u not in parent:
                parent[u] = v
                frontier.append((u, d + 1))
    if set(parent) != members:
        raise DecompositionError(
            f"cluster around {root} is not connected inside its members"
        )
    return parent, depth


def carve_clusters(graph: nx.Graph) -> List[Cluster]:
    """Partition the graph into connected low-depth clusters (uncolored)."""
    require_normalized(graph)
    available: Set[int] = set(graph.nodes())
    clusters: List[Cluster] = []
    next_id = 0
    while available:
        center = min(available)
        members = _grow_ball(graph, center, available)
        parent, depth = _bfs_tree(graph, center, members)
        clusters.append(
            Cluster(
                id=next_id,
                members=frozenset(members),
                leader=center,
                parent=parent,
                depth=depth,
            )
        )
        available -= members
        next_id += 1
    return clusters


def color_clusters(
    graph: nx.Graph, clusters: List[Cluster], separation_k: int
) -> List[Cluster]:
    """Greedy conflict coloring achieving pairwise ``k``-separation."""
    # Conflict relation: cluster A conflicts with B iff B has a member within
    # distance k of A.
    member_cluster: Dict[int, int] = {}
    for cluster in clusters:
        for v in cluster.members:
            member_cluster[v] = cluster.id

    conflicts: Dict[int, Set[int]] = {c.id: set() for c in clusters}
    for cluster in clusters:
        reach = nodes_within(graph, cluster.members, separation_k)
        for v in reach:
            other = member_cluster[v]
            if other != cluster.id:
                conflicts[cluster.id].add(other)
                conflicts[other].add(cluster.id)

    colors: Dict[int, int] = {}
    for cluster in sorted(clusters, key=lambda c: c.id):
        taken = {colors[o] for o in conflicts[cluster.id] if o in colors}
        color = 0
        while color in taken:
            color += 1
        colors[cluster.id] = color

    return [
        Cluster(
            id=c.id,
            members=c.members,
            leader=c.leader,
            parent=c.parent,
            depth=c.depth,
            color=colors[c.id],
        )
        for c in clusters
    ]


def carve_decomposition(graph: nx.Graph, separation_k: int = 2) -> NetworkDecomposition:
    """Full pipeline: carve, build trees, color with ``k``-separation.

    The default ``separation_k = 2`` produces the 2-hop decomposition
    Lemma 3.4 consumes (same-color clusters at distance >= 3, so their
    inclusive cluster neighborhoods ``N(C)`` are disjoint).
    """
    clusters = color_clusters(graph, carve_clusters(graph), separation_k)
    return NetworkDecomposition(
        graph=graph, clusters=clusters, separation_k=separation_k
    )
