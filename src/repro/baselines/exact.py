"""Exact minimum (connected) dominating sets by branch and bound.

Usable up to a few dozen nodes — enough for the test-suite's ground truth
and the small-instance columns of the experiment tables.  The MDS search
branches on the lowest-ID uncovered node: one of its inclusive neighbors
must be in any dominating set.  Pruning: greedy upper bound, ``ceil
(uncovered / Delta~)`` lower bound, and LP lower bound at the root.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import TYPE_CHECKING, FrozenSet, List, Optional, Set

from repro.analysis.verify import (
    is_connected_dominating_set,
    require_dominating_set,
)
from repro.baselines.greedy import greedy_mds
from repro.errors import GraphError, SearchBudgetExceededError
from repro.graphs.normalize import require_normalized

if TYPE_CHECKING:
    import networkx as nx


def exact_mds(
    graph: nx.Graph,
    node_limit: int = 64,
    search_budget: Optional[int] = None,
) -> Set[int]:
    """Provably minimum dominating set (branch and bound).

    ``search_budget`` caps the number of explored search nodes; exceeding
    it raises :class:`~repro.errors.SearchBudgetExceededError` so callers
    with a fallback (the certification oracle's ILP rung) can bound the
    worst case.  ``None`` (the default) searches to completion.
    """
    require_normalized(graph)
    n = graph.number_of_nodes()
    if n == 0:
        return set()
    if n > node_limit:
        raise GraphError(
            f"exact_mds limited to {node_limit} nodes, got {n}; "
            "raise node_limit explicitly if you accept the blow-up"
        )
    inclusive = {
        v: frozenset(set(graph.neighbors(v)) | {v}) for v in graph.nodes()
    }
    delta_tilde = max(len(s) for s in inclusive.values())

    best: Set[int] = greedy_mds(graph)
    best_size = len(best)
    explored = 0

    def search(chosen: Set[int], covered: FrozenSet[int]) -> None:
        nonlocal best, best_size, explored
        explored += 1
        if search_budget is not None and explored > search_budget:
            raise SearchBudgetExceededError(
                f"exact_mds exceeded its search budget of {search_budget} "
                f"nodes on a {n}-node graph"
            )
        if len(chosen) >= best_size:
            return
        uncovered_count = n - len(covered)
        if uncovered_count == 0:
            best, best_size = set(chosen), len(chosen)
            return
        lower = len(chosen) + math.ceil(uncovered_count / delta_tilde)
        if lower >= best_size:
            return
        # Branch on the lowest-ID uncovered node; some inclusive neighbor
        # must join.  Try candidates by descending new coverage.
        pivot = min(v for v in graph.nodes() if v not in covered)
        candidates = sorted(
            inclusive[pivot],
            key=lambda u: (-len(inclusive[u] - covered), u),
        )
        for u in candidates:
            search(chosen | {u}, covered | inclusive[u])

    search(set(), frozenset())
    return require_dominating_set(graph, best, "exact MDS")


def exact_cds(graph: nx.Graph, node_limit: int = 24) -> Optional[Set[int]]:
    """Provably minimum connected dominating set, or ``None`` when the graph
    has no CDS (disconnected input).

    Enumerates candidate sizes upward, seeded by the exact MDS size (a CDS
    is a dominating set, so ``|MDS|`` lower-bounds ``|CDS|``).  Exponential;
    keep ``n`` small.
    """
    import networkx as nx

    require_normalized(graph)
    n = graph.number_of_nodes()
    if n == 0:
        return set()
    if not nx.is_connected(graph):
        return None
    if n == 1:
        return {0}
    if n > node_limit:
        raise GraphError(
            f"exact_cds limited to {node_limit} nodes, got {n}"
        )
    lower = len(exact_mds(graph))
    nodes: List[int] = sorted(graph.nodes())
    for size in range(max(1, lower), n + 1):
        for candidate in combinations(nodes, size):
            if is_connected_dominating_set(graph, candidate):
                return set(candidate)
    return set(nodes)  # pragma: no cover - whole vertex set always works
