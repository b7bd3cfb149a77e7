"""Ruling sets ([ALGP89, HKN16] substitute).

A ``(beta, gamma)``-ruling subset ``S'`` of candidates: chosen nodes are
pairwise at distance >= ``beta`` (in the given graph) and every candidate
has a chosen node within distance ``gamma``.  The deterministic greedy
by-ID construction yields ``gamma <= beta - 1`` (stronger than the paper's
``O(log^3 n)`` reach, which is fine — Lemma 4.2 only needs an upper bound);
the CONGEST cost of the distributed construction is charged at the
``O(log^3 n)`` rate by callers.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List

from repro.errors import GraphError

if TYPE_CHECKING:
    import networkx as nx


@dataclass(frozen=True)
class RulingSet:
    """Chosen nodes plus the realized quality parameters."""

    chosen: List[int]
    beta: int
    max_candidate_distance: int


def ruling_set(graph: nx.Graph, candidates: Iterable[int], beta: int) -> RulingSet:
    """Greedy ruling set: scan candidates by ID, keep those at distance
    >= ``beta`` (in ``graph``) from everything already kept."""
    if beta < 1:
        raise GraphError(f"ruling distance beta must be >= 1, got {beta}")
    cand = sorted(set(candidates))
    missing = [v for v in cand if v not in graph]
    if missing:
        raise GraphError(f"candidates {missing[:5]} not in graph")
    dist_to_chosen: Dict[int, int] = {}
    chosen: List[int] = []

    def absorb(source: int) -> None:
        """Multi-source incremental BFS to depth beta-1 from a new pick."""
        frontier = deque([(source, 0)])
        if dist_to_chosen.get(source, beta) > 0:
            dist_to_chosen[source] = 0
        while frontier:
            v, d = frontier.popleft()
            if d == beta - 1:
                continue
            for u in graph.neighbors(v):
                if dist_to_chosen.get(u, beta) > d + 1:
                    dist_to_chosen[u] = d + 1
                    frontier.append((u, d + 1))

    for v in cand:
        if dist_to_chosen.get(v, beta) >= beta:
            chosen.append(v)
            absorb(v)

    worst = 0
    for v in cand:
        worst = max(worst, dist_to_chosen.get(v, beta))
    return RulingSet(chosen=chosen, beta=beta, max_candidate_distance=worst)
