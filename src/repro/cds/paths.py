"""Bounded-congestion connection paths between clusters (Theorem 1.4 proof,
rules 1-3).

Instead of using every ``G_S`` edge between clusters — impossible to
simulate congestion-free in CONGEST — each pair of adjacent clusters is
connected through paths selected so every ``G`` edge carries at most two
paths:

1. for S-nodes of different clusters adjacent in ``G``, the direct edge;
2. every non-S node ``w`` picks one S-neighbor per adjacent cluster
   (``w_1..w_k(w)``) and chains them with the 2-hop paths
   ``(w_i, w, w_{i+1})``;
3. adjacent non-S nodes ``w, w'`` (both with ``k >= 1``) add the 3-hop
   paths ``(w_1, w, w', w'_{k(w')})`` and ``(w'_1, w', w, w_{k(w)})``.

The selected paths keep the cluster graph ``G'_S`` connected (the chains at
rule-2 nodes merge all clusters adjacent to one relay; rule-3 bridges relay
pairs), and path endpoints are always S-nodes so the spanner stage can
realize its edges by adding only the (at most 2) interior relay nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Set, Tuple

from repro.cds.clustering import ClusterTreeSet
from repro.errors import GraphError

if TYPE_CHECKING:
    import networkx as nx


@dataclass
class PathSelection:
    """Cluster-level edges with witness paths and congestion accounting."""

    #: (cluster_a, cluster_b) sorted -> lexicographically smallest witness path
    cluster_edges: Dict[Tuple[int, int], List[int]]
    #: how many selected paths traverse each G edge
    edge_congestion: Dict[Tuple[int, int], int]
    #: paths selected in total (before cluster-level dedup)
    total_paths: int = 0

    @property
    def max_congestion(self) -> int:
        return max(self.edge_congestion.values(), default=0)

    def cluster_graph(self) -> nx.Graph:
        import networkx as nx

        g = nx.Graph()
        for (a, b) in self.cluster_edges:
            g.add_edge(a, b)
        return g


def select_connection_paths(
    graph: nx.Graph,
    s_nodes: Set[int],
    clustering: ClusterTreeSet,
) -> PathSelection:
    """Apply rules 1-3 and collect the resulting cluster edges."""
    cluster_of = clustering.cluster_of_s
    missing = [s for s in s_nodes if s not in cluster_of]
    if missing:
        raise GraphError(f"S-nodes {missing[:5]} missing from the clustering")

    cluster_edges: Dict[Tuple[int, int], List[int]] = {}
    congestion: Dict[Tuple[int, int], int] = {}
    total = 0

    def edge_key(u: int, v: int) -> Tuple[int, int]:
        return (u, v) if u < v else (v, u)

    def add_path(path: List[int]) -> None:
        nonlocal total
        a = cluster_of[path[0]]
        b = cluster_of[path[-1]]
        if a == b:
            return
        total += 1
        key = (a, b) if a < b else (b, a)
        oriented = path if cluster_of[path[0]] == key[0] else list(reversed(path))
        if key not in cluster_edges or oriented < cluster_edges[key]:
            cluster_edges[key] = oriented

    # Rule 1: direct S-S edges across clusters.
    for u, v in graph.edges():
        if u in s_nodes and v in s_nodes and cluster_of[u] != cluster_of[v]:
            add_path([u, v] if u < v else [v, u])

    # Rule 2: per-relay chains.  w picks its smallest S-neighbor per
    # adjacent cluster, ordered by cluster id.
    picks: Dict[int, List[int]] = {}
    for w in sorted(graph.nodes()):
        if w in s_nodes:
            continue
        per_cluster: Dict[int, int] = {}
        for u in sorted(graph.neighbors(w)):
            if u in s_nodes:
                per_cluster.setdefault(cluster_of[u], u)
        chosen = [per_cluster[c] for c in sorted(per_cluster)]
        picks[w] = chosen
        for a, b in zip(chosen, chosen[1:]):
            add_path([a, w, b])

    # Rule 3: bridges between adjacent relays.
    for w, wp in graph.edges():
        if w in s_nodes or wp in s_nodes:
            continue
        kw, kwp = picks.get(w, []), picks.get(wp, [])
        if not kw or not kwp:
            continue
        add_path([kw[0], w, wp, kwp[-1]])
        add_path([kwp[0], wp, w, kw[-1]])

    # Congestion is accounted on the deduplicated selection (one witness
    # path per cluster pair) — that is the set of paths the spanner stage
    # actually communicates over; E6 reports the measured maximum.
    for path in cluster_edges.values():
        for u, v in zip(path, path[1:]):
            ek = edge_key(u, v)
            congestion[ek] = congestion.get(ek, 0) + 1

    return PathSelection(
        cluster_edges=cluster_edges,
        edge_congestion=congestion,
        total_paths=total,
    )
