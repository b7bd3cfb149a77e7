"""Cluster graphs and network decompositions (Definitions 3.1 / 3.2).

A :class:`Cluster` is a connected node set with a leader and a rooted
spanning tree of bounded depth; a :class:`NetworkDecomposition` partitions
the graph into clusters colored so that same-color clusters are
``k``-separated (every inter-cluster node pair is at distance > k).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, FrozenSet, List

from repro.errors import DecompositionError
from repro.graphs.powers import nodes_within

if TYPE_CHECKING:
    import networkx as nx


@dataclass(frozen=True)
class Cluster:
    """One cluster of a decomposition (Definition 3.1).

    ``parent`` maps every member to its tree parent (leader maps to ``-1``);
    ``depth`` is the tree's maximum root distance.
    """

    id: int
    members: FrozenSet[int]
    leader: int
    parent: Dict[int, int]
    depth: int
    color: int = -1

    def __post_init__(self) -> None:
        if self.leader not in self.members:
            raise DecompositionError(
                f"cluster {self.id}: leader {self.leader} not a member"
            )

    @property
    def size(self) -> int:
        return len(self.members)

    def sorted_members(self) -> List[int]:
        return sorted(self.members)


@dataclass
class NetworkDecomposition:
    """A strong-diameter ``k``-hop ``(d, c)``-decomposition (Definition 3.2)."""

    graph: nx.Graph
    clusters: List[Cluster]
    separation_k: int
    cluster_of: Dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.cluster_of:
            for cluster in self.clusters:
                for v in cluster.members:
                    self.cluster_of[v] = cluster.id

    @property
    def num_clusters(self) -> int:
        return len(self.clusters)

    @property
    def num_colors(self) -> int:
        return len({c.color for c in self.clusters}) if self.clusters else 0

    @property
    def max_depth(self) -> int:
        """The decomposition's ``d`` parameter (max cluster tree depth)."""
        return max((c.depth for c in self.clusters), default=0)

    def color_classes(self) -> List[List[Cluster]]:
        """Clusters grouped by color, ordered by color then cluster id."""
        buckets: Dict[int, List[Cluster]] = {}
        for cluster in self.clusters:
            buckets.setdefault(cluster.color, []).append(cluster)
        return [
            sorted(buckets[color], key=lambda c: c.id) for color in sorted(buckets)
        ]


def _validate_tree(graph: nx.Graph, cluster: Cluster) -> None:
    members = cluster.members
    if set(cluster.parent) != set(members):
        raise DecompositionError(
            f"cluster {cluster.id}: tree does not span exactly the members"
        )
    depth_seen = 0
    for v in members:
        hops = 0
        u = v
        while u != cluster.leader:
            p = cluster.parent[u]
            if p == -1 or p not in members:
                raise DecompositionError(
                    f"cluster {cluster.id}: node {u} has parent {p} outside"
                )
            if not graph.has_edge(u, p):
                raise DecompositionError(
                    f"cluster {cluster.id}: tree edge ({u}, {p}) not in graph"
                )
            u = p
            hops += 1
            if hops > len(members):
                raise DecompositionError(
                    f"cluster {cluster.id}: parent pointers cycle at {v}"
                )
        depth_seen = max(depth_seen, hops)
    if cluster.parent[cluster.leader] != -1:
        raise DecompositionError(
            f"cluster {cluster.id}: leader must have parent -1"
        )
    if depth_seen > cluster.depth:
        raise DecompositionError(
            f"cluster {cluster.id}: actual depth {depth_seen} exceeds "
            f"declared {cluster.depth}"
        )


def validate_decomposition(dec: NetworkDecomposition) -> None:
    """Check all Definition 3.1 / 3.2 invariants; raise on violation."""
    import networkx as nx

    graph = dec.graph
    seen: Dict[int, int] = {}
    for cluster in dec.clusters:
        for v in cluster.members:
            if v in seen:
                raise DecompositionError(
                    f"node {v} in clusters {seen[v]} and {cluster.id}"
                )
            seen[v] = cluster.id
    if set(seen) != set(graph.nodes()):
        missing = set(graph.nodes()) - set(seen)
        raise DecompositionError(
            f"decomposition misses {len(missing)} nodes (e.g. {sorted(missing)[:5]})"
        )
    for cluster in dec.clusters:
        sub = graph.subgraph(cluster.members)
        if cluster.size > 1 and not nx.is_connected(sub):
            raise DecompositionError(f"cluster {cluster.id} is not connected")
        _validate_tree(graph, cluster)
        if cluster.color < 0:
            raise DecompositionError(f"cluster {cluster.id} is uncolored")

    # k-separation of same-color clusters.
    k = dec.separation_k
    by_color: Dict[int, List[Cluster]] = {}
    for cluster in dec.clusters:
        by_color.setdefault(cluster.color, []).append(cluster)
    for color, clusters in by_color.items():
        for cluster in clusters:
            reach = nodes_within(graph, cluster.members, k)
            for other in clusters:
                if other.id == cluster.id:
                    continue
                overlap = reach & other.members
                if overlap:
                    raise DecompositionError(
                        f"color {color}: clusters {cluster.id} and {other.id} "
                        f"are within distance {k} (witness {sorted(overlap)[:3]})"
                    )
