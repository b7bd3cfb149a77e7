"""Sequential greedy dominating set ([Joh74]).

Repeatedly pick the node covering the most still-uncovered nodes (inclusive
neighborhoods); ties break towards smaller IDs so runs are deterministic.
Guarantee: ``H(Delta + 1) <= 1 + ln(Delta + 1)`` times optimal — the
yardstick the paper's deterministic distributed algorithms are measured
against.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, List, Set, Tuple

from repro.analysis.verify import require_dominating_set
from repro.graphs.normalize import require_normalized

if TYPE_CHECKING:
    import networkx as nx


def greedy_mds(graph: nx.Graph) -> Set[int]:
    """Greedy minimum dominating set (lazy-heap implementation)."""
    require_normalized(graph)
    n = graph.number_of_nodes()
    if n == 0:
        return set()
    covered = [False] * n
    chosen: Set[int] = set()
    # Max-heap over (coverage gain, -id); gains only decrease, so lazy
    # re-evaluation is sound.
    heap: List[Tuple[int, int]] = [
        (-(graph.degree(v) + 1), v) for v in graph.nodes()
    ]
    heapq.heapify(heap)
    remaining = n

    def gain(v: int) -> int:
        g = 0 if covered[v] else 1
        for u in graph.neighbors(v):
            if not covered[u]:
                g += 1
        return g

    while remaining > 0:
        neg_gain, v = heapq.heappop(heap)
        current = gain(v)
        if current != -neg_gain:
            heapq.heappush(heap, (-current, v))
            continue
        if current == 0:  # pragma: no cover - defensive
            break
        chosen.add(v)
        if not covered[v]:
            covered[v] = True
            remaining -= 1
        for u in graph.neighbors(v):
            if not covered[u]:
                covered[u] = True
                remaining -= 1
    return require_dominating_set(graph, chosen, "greedy")
