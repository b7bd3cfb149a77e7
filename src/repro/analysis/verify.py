"""Solution checkers.

Every algorithm output in tests and benchmarks passes through these;
"probably dominating" is not a thing this library reports.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Set

from repro.errors import InfeasibleSolutionError

if TYPE_CHECKING:
    import networkx as nx


def domination_deficit(graph: nx.Graph, candidate: Iterable[int]) -> List[int]:
    """Nodes not dominated by ``candidate`` (empty list = dominating set)."""
    chosen: Set[int] = set(candidate)
    uncovered = []
    for v in graph.nodes():
        if v in chosen:
            continue
        if not any(u in chosen for u in graph.neighbors(v)):
            uncovered.append(v)
    return uncovered


def is_dominating_set(graph: nx.Graph, candidate: Iterable[int]) -> bool:
    """Whether every node is in the set or adjacent to it."""
    return not domination_deficit(graph, candidate)


def require_dominating_set(
    graph: nx.Graph, candidate: Iterable[int], what: str = "solution"
) -> Set[int]:
    """Return the set if it dominates; raise with witnesses otherwise."""
    chosen = set(candidate)
    bad = domination_deficit(graph, chosen)
    if bad:
        raise InfeasibleSolutionError(
            f"{what} is not a dominating set; {len(bad)} uncovered nodes "
            f"(e.g. {bad[:5]})"
        )
    return chosen


def is_connected_dominating_set(graph: nx.Graph, candidate: Iterable[int]) -> bool:
    """Whether ``candidate`` dominates and induces a connected subgraph."""
    import networkx as nx

    chosen = set(candidate)
    if not chosen:
        return graph.number_of_nodes() == 0
    if not is_dominating_set(graph, chosen):
        return False
    induced = graph.subgraph(chosen)
    return nx.is_connected(induced)


def require_connected_dominating_set(
    graph: nx.Graph, candidate: Iterable[int], what: str = "CDS"
) -> Set[int]:
    import networkx as nx

    chosen = set(candidate)
    require_dominating_set(graph, chosen, what)
    induced = graph.subgraph(chosen)
    if chosen and not nx.is_connected(induced):
        parts = list(nx.connected_components(induced))
        raise InfeasibleSolutionError(
            f"{what} induces {len(parts)} components, expected 1"
        )
    return chosen
