"""BFS-phase clustering of a dominating set around ruling-set centers
(Section 4, proof of Lemma 4.2).

Phases ``i = 1, 2, ...`` of three rounds each grow cluster trees rooted at
the centers ``S'``:

* round 1 — an unclustered non-S node adjacent to a clustered S-node hooks
  onto that node's tree;
* round 2 — an unclustered non-S node adjacent to a clustered non-S node
  (in particular a round-1 joiner) hooks on, so witness paths with two
  relay nodes can be crossed within one phase;
* round 3 — an unclustered S-node adjacent to any clustered node joins that
  cluster.

Ties always break to the smallest (cluster id, neighbor id).  The paper
phrases rounds 1 and 3 in terms of nodes that joined *in the previous
phase*; we hook onto *any* already-clustered node, which absorbs at least
the same frontier every phase (so the Lemma 4.2 radius bound still holds:
every S-node at ``G_S``-distance ``d`` from its nearest center is clustered
by phase ``d``) and cannot stall when witness paths of different S-nodes
interleave.  Afterwards each tree is pruned so only non-S nodes that lie on
a path to some S-node remain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Set

from repro.errors import GraphError

if TYPE_CHECKING:
    import networkx as nx


@dataclass
class ClusterTree:
    """One cluster: its center, S-members, and the connector tree in G."""

    center: int
    members_s: Set[int] = field(default_factory=set)
    #: tree parent for every tree node (center -> -1)
    parent: Dict[int, int] = field(default_factory=dict)

    @property
    def nodes(self) -> Set[int]:
        return set(self.parent)

    def radius(self) -> int:
        """Maximum parent-chain length to the center."""
        worst = 0
        for v in self.parent:
            hops = 0
            u = v
            while self.parent[u] != -1:
                u = self.parent[u]
                hops += 1
            worst = max(worst, hops)
        return worst

    def prune(self) -> None:
        """Drop non-S leaves repeatedly (connectors that support no S-node)."""
        children: Dict[int, int] = {v: 0 for v in self.parent}
        for v, p in self.parent.items():
            if p != -1:
                children[p] += 1
        leaves = [
            v for v, c in children.items() if c == 0 and v not in self.members_s
        ]
        while leaves:
            v = leaves.pop()
            p = self.parent.pop(v)
            if p != -1:
                children[p] -= 1
                if children[p] == 0 and p not in self.members_s:
                    leaves.append(p)


@dataclass
class ClusterTreeSet:
    """All cluster trees plus assignment and phase statistics."""

    trees: List[ClusterTree]
    cluster_of_s: Dict[int, int]
    phases: int

    @property
    def total_tree_nodes(self) -> int:
        return sum(len(t.parent) for t in self.trees)

    @property
    def connector_nodes(self) -> Set[int]:
        """All non-S nodes kept in some pruned tree."""
        out: Set[int] = set()
        for tree in self.trees:
            out |= tree.nodes - tree.members_s
        return out

    @property
    def max_radius(self) -> int:
        return max((t.radius() for t in self.trees), default=0)


def cluster_dominating_set(
    graph: nx.Graph,
    s_nodes: Set[int],
    centers: List[int],
    max_phases: Optional[int] = None,
) -> ClusterTreeSet:
    """Run the three-round phases until every S-node is clustered."""
    s_set = set(s_nodes)
    if not set(centers) <= s_set:
        raise GraphError("cluster centers must be dominating-set nodes")
    if not centers:
        raise GraphError("clustering needs at least one center")
    max_phases = max_phases or 3 * graph.number_of_nodes() + 3

    trees: List[ClusterTree] = []
    cluster_of: Dict[int, int] = {}  # any clustered node -> tree index
    cluster_of_s: Dict[int, int] = {}

    for idx, center in enumerate(sorted(centers)):
        tree = ClusterTree(center=center, members_s={center}, parent={center: -1})
        trees.append(tree)
        cluster_of[center] = idx
        cluster_of_s[center] = idx

    clustered_s: Set[int] = set(cluster_of_s)
    unclustered_s = s_set - clustered_s
    phases = 0
    all_nodes = sorted(graph.nodes())

    def hook(w: int, eligible: Set[int]) -> Optional[tuple]:
        """Smallest (cluster, neighbor) hook among eligible neighbors."""
        best = None
        for u in graph.neighbors(w):
            if u in eligible and u in cluster_of:
                key = (cluster_of[u], u)
                if best is None or key < best:
                    best = key
        return best

    while unclustered_s:
        phases += 1
        if phases > max_phases:
            raise GraphError(
                f"clustering failed to absorb {len(unclustered_s)} S-nodes "
                f"within {max_phases} phases; is the graph connected?"
            )
        progressed = False

        # Round 1: unclustered non-S nodes hook onto clustered S-nodes.
        joined_r1: Dict[int, tuple] = {}
        for w in all_nodes:
            if w in cluster_of or w in s_set:
                continue
            h = hook(w, clustered_s)
            if h is not None:
                joined_r1[w] = h
        for w, (idx, u) in joined_r1.items():
            trees[idx].parent[w] = u
            cluster_of[w] = idx
            progressed = True

        # Round 2: unclustered non-S nodes hook onto clustered non-S nodes.
        clustered_relays = {v for v in cluster_of if v not in s_set}
        joined_r2: Dict[int, tuple] = {}
        for w in all_nodes:
            if w in cluster_of or w in s_set:
                continue
            h = hook(w, clustered_relays)
            if h is not None:
                joined_r2[w] = h
        for w, (idx, u) in joined_r2.items():
            trees[idx].parent[w] = u
            cluster_of[w] = idx
            progressed = True

        # Round 3: unclustered S-nodes join via any clustered neighbor.
        clustered_any = set(cluster_of)
        joined_s: Dict[int, tuple] = {}
        for u in sorted(unclustered_s):
            h = hook(u, clustered_any)
            if h is not None:
                joined_s[u] = h
        for u, (idx, w) in joined_s.items():
            trees[idx].parent[u] = w
            trees[idx].members_s.add(u)
            cluster_of[u] = idx
            cluster_of_s[u] = idx
            clustered_s.add(u)
            progressed = True

        unclustered_s -= set(joined_s)
        if not progressed and unclustered_s:
            raise GraphError(
                f"clustering stalled with {len(unclustered_s)} S-nodes left; "
                "is the graph connected?"
            )

    for tree in trees:
        tree.prune()
    return ClusterTreeSet(trees=trees, cluster_of_s=cluster_of_s, phases=phases)
