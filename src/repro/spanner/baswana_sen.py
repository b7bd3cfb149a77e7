"""Baswana-Sen style sparse connected spanning subgraph.

The phase structure follows the paper's Section 4 description exactly:

* every node starts active, a singleton cluster;
* per phase, each surviving cluster is *sampled* with constant probability
  (1/2); a node of an unsampled cluster joins a neighboring sampled cluster
  through one edge if it can, otherwise it adds one edge to every
  neighboring cluster and becomes inactive;
* after the last phase every still-active node adds one edge per
  neighboring cluster.

With ``ceil(log2 n)`` phases the expected number of edges is
``O(n log^2 n)`` (a tighter analysis gives ``O(n log n)``) and the output is
a connected spanning subgraph of a connected input.

Sampling is pluggable: :func:`random_sampler` flips coins;
:func:`derandomized_sampler` fixes them one cluster at a time by conditional
expectations on the product-form potential

``Phi = sum_v E[edges added by v | fixed coins] + lam * E[#sampled]``.

The balance weight ``lam`` keeps the surviving-cluster count shrinking
(randomly it halves in expectation).  A forced-balance guard caps sampled
clusters at ``2/3`` of the survivors; the guard can only engage when the
potential-greedy choice would have over-sampled, and every run reports how
often it fired (tests assert it is rare and benchmarks E8 report edge counts
and halving behaviour).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Set, Tuple

from repro.errors import GraphError
from repro.util.mathx import ceil_log2

if TYPE_CHECKING:
    import networkx as nx

#: A sampler maps (phase, cluster ids, cluster adjacency info) -> sampled ids.
Sampler = Callable[[int, List[int], "PhaseView"], Set[int]]


@dataclass
class PhaseView:
    """What a sampler may look at: the active structure of one phase."""

    #: cluster id -> active member nodes
    clusters: Dict[int, Set[int]]
    #: node -> ids of clusters adjacent to it (excluding its own)
    adjacent_clusters: Dict[int, Set[int]]
    #: node -> its own cluster id
    cluster_of: Dict[int, int]


@dataclass
class SpannerResult:
    """Selected edges plus per-phase diagnostics."""

    edges: Set[Tuple[int, int]]
    phases: int
    cluster_counts: List[int]
    sampled_counts: List[int]
    forced_balance_events: int = 0

    @property
    def num_edges(self) -> int:
        return len(self.edges)


def random_sampler(rng: random.Random, probability: float = 0.5) -> Sampler:
    """Independent coin per cluster per phase."""

    def sample(phase: int, cluster_ids: List[int], view: PhaseView) -> Set[int]:
        return {c for c in cluster_ids if rng.random() < probability}

    return sample


def derandomized_sampler(
    probability: float = 0.5, balance_cap: float = 2.0 / 3.0
) -> Sampler:
    """Conditional-expectation sampling (deterministic).

    Coins are fixed in cluster-id order; each choice minimizes the exact
    conditional expectation of ``edges added this phase + lam * sampled``
    under independent ``probability`` coins for the still-undecided
    clusters.  The per-node expectation has closed product form because a
    node's added edges depend only on its adjacent clusters' coins.
    """
    stats = {"forced": 0}

    def sample(phase: int, cluster_ids: List[int], view: PhaseView) -> Set[int]:
        cluster_ids = sorted(cluster_ids)
        n_clusters = len(cluster_ids)
        if n_clusters == 0:
            return set()
        # Node-side bookkeeping: for each node, the number of adjacent
        # clusters still undecided, number decided-sampled, and list size.
        decided: Dict[int, bool] = {}

        def node_expected_edges(v: int) -> float:
            own = view.cluster_of[v]
            adj = view.adjacent_clusters[v]
            k = len(adj)
            # probability own cluster is unsampled
            if own in decided:
                p_own_unsampled = 0.0 if decided[own] else 1.0
            else:
                p_own_unsampled = 1.0 - probability
            if p_own_unsampled == 0.0:
                return 0.0
            # probability no adjacent cluster sampled
            p_none = 1.0
            for c in adj:
                if c in decided:
                    if decided[c]:
                        p_none = 0.0
                        break
                else:
                    p_none *= 1.0 - probability
            # 1 edge if some adjacent sampled, k edges if none
            return p_own_unsampled * ((1.0 - p_none) * 1.0 + p_none * k)

        # Only nodes adjacent to a cluster matter for the potential; the
        # balance weight makes each sampling "cost" about one average
        # node-degree worth of edges.
        relevant = sorted(view.adjacent_clusters)
        total_adj = sum(len(view.adjacent_clusters[v]) for v in relevant)
        lam = max(1.0, total_adj / max(1, n_clusters))

        # Affected nodes per cluster (own members + nodes adjacent to it).
        affected: Dict[int, Set[int]] = {c: set(view.clusters[c]) for c in cluster_ids}
        for v in relevant:
            for c in view.adjacent_clusters[v]:
                affected[c].add(v)

        sampled: Set[int] = set()
        max_sampled = max(1, int(math.floor(balance_cap * n_clusters)))
        for c in cluster_ids:
            if len(sampled) >= max_sampled:
                decided[c] = False
                stats["forced"] += 1
                continue
            base = {v: node_expected_edges(v) for v in affected[c]}
            decided[c] = True
            cost_sampled = sum(node_expected_edges(v) for v in affected[c]) + lam
            decided[c] = False
            cost_unsampled = sum(node_expected_edges(v) for v in affected[c])
            # Unused 'base' kept implicit: both branches re-evaluate fully.
            del base
            if cost_sampled < cost_unsampled:
                decided[c] = True
                sampled.add(c)
            else:
                decided[c] = False
        if not sampled and n_clusters > 1:
            # Degenerate guard: always sample at least the smallest cluster
            # so progress (cluster merging) is possible.
            sampled.add(cluster_ids[0])
        return sampled

    sample.stats = stats  # type: ignore[attr-defined]
    return sample


def baswana_sen_spanner(
    graph: nx.Graph,
    sampler: Sampler,
    phases: int | None = None,
) -> SpannerResult:
    """Run the phase process on ``graph`` and return the selected edges."""
    n = graph.number_of_nodes()
    if n == 0:
        raise GraphError("spanner requires a non-empty graph")
    if phases is None:
        phases = max(1, ceil_log2(max(2, n)))

    active: Set[int] = set(graph.nodes())
    cluster_of: Dict[int, int] = {v: v for v in graph.nodes()}
    edges: Set[Tuple[int, int]] = set()
    cluster_counts: List[int] = []
    sampled_counts: List[int] = []

    def norm(u: int, v: int) -> Tuple[int, int]:
        return (u, v) if u < v else (v, u)

    for phase in range(phases):
        clusters: Dict[int, Set[int]] = {}
        for v in active:
            clusters.setdefault(cluster_of[v], set()).add(v)
        cluster_ids = sorted(clusters)
        cluster_counts.append(len(cluster_ids))
        if len(cluster_ids) <= 1:
            sampled_counts.append(len(cluster_ids))
            break

        adjacent: Dict[int, Set[int]] = {}
        witness: Dict[int, Dict[int, int]] = {}
        for v in active:
            adj: Set[int] = set()
            wit: Dict[int, int] = {}
            for u in sorted(graph.neighbors(v)):
                if u in active and cluster_of[u] != cluster_of[v]:
                    c = cluster_of[u]
                    if c not in wit:
                        wit[c] = u
                    adj.add(c)
            adjacent[v] = adj
            witness[v] = wit

        view = PhaseView(
            clusters=clusters, adjacent_clusters=adjacent, cluster_of=dict(cluster_of)
        )
        sampled = set(sampler(phase, cluster_ids, view))
        sampled_counts.append(len(sampled))

        for v in sorted(active):
            if cluster_of[v] in sampled:
                continue
            sampled_adjacent = sorted(c for c in adjacent[v] if c in sampled)
            if sampled_adjacent:
                target = sampled_adjacent[0]
                edges.add(norm(v, witness[v][target]))
                cluster_of[v] = target
            else:
                for c in sorted(adjacent[v]):
                    edges.add(norm(v, witness[v][c]))
                active.discard(v)
                cluster_of.pop(v, None)

    # Final phase: remaining active nodes add one edge per neighboring
    # cluster (smallest-ID witness per cluster).
    for v in sorted(active):
        wit: Dict[int, int] = {}
        for u in sorted(graph.neighbors(v)):
            if u in active and cluster_of[u] != cluster_of[v]:
                wit.setdefault(cluster_of[u], u)
        for c in sorted(wit):
            edges.add(norm(v, wit[c]))

    forced = getattr(sampler, "stats", {}).get("forced", 0)
    return SpannerResult(
        edges=edges,
        phases=phases,
        cluster_counts=cluster_counts,
        sampled_counts=sampled_counts,
        forced_balance_events=forced,
    )


def spanner_subgraph(graph: nx.Graph, result: SpannerResult) -> nx.Graph:
    """The spanner as a graph, including intra-cluster joining structure.

    Spanner edges are edges of ``graph``; every node appears even if
    isolated in the spanner (singleton clusters that merged immediately).
    """
    import networkx as nx

    sub = nx.Graph()
    sub.add_nodes_from(graph.nodes())
    for u, v in result.edges:
        if not graph.has_edge(u, v):
            raise GraphError(f"spanner selected non-edge ({u}, {v})")
        sub.add_edge(u, v)
    return sub
