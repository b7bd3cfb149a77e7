"""Iterative color reduction (the [BEK15] elimination-style final stage).

Given a proper ``C``-coloring, colors are eliminated from the top: in
iteration ``c`` (for ``c = C-1 .. target``), every node of color ``c``
simultaneously recolors itself with the smallest color not used in its
neighborhood.  Nodes of one color class form an independent set, so the
simultaneous step stays proper, and after the sweep at most
``max(target, Delta + 1)`` colors remain.  Each iteration is one CONGEST
round (nodes already know neighbor colors and announce changes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict

from repro.coloring.greedy import validate_coloring

if TYPE_CHECKING:
    import networkx as nx


@dataclass(frozen=True)
class ReductionResult:
    colors: Dict[int, int]
    num_colors: int
    rounds: int


def reduce_coloring(
    graph: nx.Graph, colors: Dict[int, int], target: int | None = None
) -> ReductionResult:
    """Reduce a proper coloring to at most ``max(target, Delta+1)`` colors.

    ``target`` defaults to ``Delta + 1``.  Runs in ``C - target`` rounds
    (one per eliminated color class).
    """
    validate_coloring(graph, colors)
    delta = max((d for _, d in graph.degree()), default=0)
    goal = max(target if target is not None else delta + 1, delta + 1)
    current = dict(colors)
    num_colors = max(current.values()) + 1 if current else 0
    rounds = 0
    for c in range(num_colors - 1, goal - 1, -1):
        movers = [v for v, col in current.items() if col == c]
        if not movers:
            continue
        rounds += 1
        updates = {}
        for v in movers:
            taken = {current[u] for u in graph.neighbors(v)}
            color = 0
            while color in taken:
                color += 1
            updates[v] = color
        current.update(updates)
    validate_coloring(graph, current)
    return ReductionResult(
        colors=current,
        num_colors=len(set(current.values())) if current else 0,
        rounds=rounds,
    )
