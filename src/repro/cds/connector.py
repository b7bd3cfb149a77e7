"""Baseline CDS construction: spanning tree of ``G_S`` plus witness paths.

The classical bound: a spanning tree of ``G_S`` has ``|S| - 1`` edges, each
realized by at most 2 interior connector nodes, so ``|CDS| < 3|S|``.  This
is the non-local construction (computing a spanning tree takes
diameter-linear time distributedly) that Theorem 1.4 replaces by the
clustering + spanner route; it doubles as the small-instance fallback and
the quality yardstick in E6.
"""

from __future__ import annotations

from typing import Set

from repro.analysis.verify import require_connected_dominating_set
from repro.cds.gs_graph import GSGraph
from repro.errors import GraphError


def cds_from_spanning_tree(gsg: GSGraph) -> Set[int]:
    """``S`` plus the interior nodes of witness paths of a ``G_S`` spanning
    tree (BFS tree from the smallest S-node)."""
    import networkx as nx

    if not gsg.s_nodes:
        if gsg.graph.number_of_nodes() == 0:
            return set()
        raise GraphError("empty dominating set on a non-empty graph")
    if not nx.is_connected(gsg.graph):
        raise GraphError("CDS requires a connected graph")
    cds: Set[int] = set(gsg.s_nodes)
    if len(gsg.s_nodes) == 1:
        return cds
    root = gsg.s_nodes[0]
    # Deterministic BFS tree over G_S.
    tree_edges = list(nx.bfs_edges(gsg.gs, root, sort_neighbors=sorted))
    for u, v in tree_edges:
        path = gsg.witness_path(u, v)
        cds.update(path[1:-1])
    return require_connected_dominating_set(gsg.graph, cds, "spanning-tree CDS")
