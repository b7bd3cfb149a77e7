"""Deterministic greedy coloring and coloring utilities.

Greedy coloring in increasing-ID order uses at most ``max_degree + 1``
colors and is fully deterministic — the centralized stand-in for the
[BEK15]/[BEG18] distributed (Delta+1)-coloring the paper invokes (round
costs for the distributed version are charged separately, see
:func:`repro.congest.cost.bek15_coloring_rounds`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Hashable, List, Sequence

from repro.errors import ColoringError

if TYPE_CHECKING:
    import networkx as nx


def greedy_coloring(
    graph: nx.Graph, order: Sequence[Hashable] | None = None
) -> Dict[Hashable, int]:
    """First-fit coloring in the given (default: sorted-ID) order.

    Returns a map node -> color with colors ``0..C-1``.
    """
    if order is None:
        order = sorted(graph.nodes())
    colors: Dict[Hashable, int] = {}
    for v in order:
        taken = {colors[u] for u in graph.neighbors(v) if u in colors}
        color = 0
        while color in taken:
            color += 1
        colors[v] = color
    return colors


def validate_coloring(graph: nx.Graph, colors: Dict[Hashable, int]) -> int:
    """Check properness; returns the number of colors used.

    Raises :class:`ColoringError` on a monochromatic edge or uncolored node.
    """
    for v in graph.nodes():
        if v not in colors:
            raise ColoringError(f"node {v} is uncolored")
    for u, v in graph.edges():
        if colors[u] == colors[v]:
            raise ColoringError(
                f"edge ({u}, {v}) is monochromatic with color {colors[u]}"
            )
    return len(set(colors[v] for v in graph.nodes())) if graph.number_of_nodes() else 0


def color_classes(colors: Dict[Hashable, int]) -> List[List[Hashable]]:
    """Group nodes by color, ordered by color index; nodes sorted within."""
    if not colors:
        return []
    buckets: Dict[int, List[Hashable]] = {}
    for v, c in colors.items():
        buckets.setdefault(c, []).append(v)
    return [sorted(buckets[c]) for c in sorted(buckets)]
