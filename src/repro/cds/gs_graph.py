"""The ``G_S`` graph of Claim 4.1.

Given a dominating set ``S`` of ``G``, ``G_S`` has node set ``S`` and an
edge between two S-nodes whenever their distance in ``G`` is at most 3.
Claim 4.1: ``G_S`` is connected iff ``G`` is connected.  Every ``G_S`` edge
stores a witness path of length <= 3 in ``G`` so later stages can realize
cluster connections with concrete connector nodes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Tuple

from repro.analysis.verify import require_dominating_set

if TYPE_CHECKING:
    import networkx as nx


@dataclass
class GSGraph:
    """``G_S`` plus witness paths (keyed by sorted S-node pair)."""

    graph: nx.Graph
    s_nodes: List[int]
    gs: nx.Graph
    witness: Dict[Tuple[int, int], List[int]]

    def witness_path(self, u: int, v: int) -> List[int]:
        """Witness path from ``u`` to ``v`` (length <= 3), oriented u -> v."""
        key = (u, v) if u < v else (v, u)
        path = self.witness[key]
        return path if path[0] == u else list(reversed(path))


def build_gs_graph(graph: nx.Graph, s_nodes: Iterable[int]) -> GSGraph:
    """BFS to depth 3 from every S-node; record lexicographically smallest
    shortest witness paths."""
    import networkx as nx

    s_list = sorted(set(s_nodes))
    require_dominating_set(graph, s_list, "G_S input")
    s_set = set(s_list)
    gs = nx.Graph()
    gs.add_nodes_from(s_list)
    witness: Dict[Tuple[int, int], List[int]] = {}
    for s in s_list:
        # Depth-3 BFS with parent tracking (sorted adjacency = deterministic).
        parent: Dict[int, int] = {s: -1}
        depth: Dict[int, int] = {s: 0}
        frontier = deque([s])
        while frontier:
            v = frontier.popleft()
            if depth[v] == 3:
                continue
            for u in sorted(graph.neighbors(v)):
                if u not in parent:
                    parent[u] = v
                    depth[u] = depth[v] + 1
                    frontier.append(u)
        for t in parent:
            if t == s or t not in s_set or t < s:
                continue
            path = [t]
            while path[-1] != s:
                path.append(parent[path[-1]])
            path.reverse()  # s .. t
            gs.add_edge(s, t)
            key = (s, t)
            if key not in witness or path < witness[key]:
                witness[key] = path
    return GSGraph(graph=graph, s_nodes=s_list, gs=gs, witness=witness)


def verify_claim_41(gsg: GSGraph) -> bool:
    """Claim 4.1: ``G_S`` connected iff ``G`` connected."""
    import networkx as nx

    g_connected = nx.is_connected(gsg.graph) if gsg.graph.number_of_nodes() else True
    gs_connected = nx.is_connected(gsg.gs) if gsg.gs.number_of_nodes() else True
    return g_connected == gs_connected
