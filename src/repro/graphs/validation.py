"""Graph input validation and summary statistics."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import GraphError

if TYPE_CHECKING:
    import networkx as nx


@dataclass(frozen=True)
class DegreeStats:
    """Degree summary used in experiment table rows."""

    n: int
    m: int
    max_degree: int
    min_degree: int
    avg_degree: float

    @property
    def delta_tilde(self) -> int:
        """Inclusive-neighborhood size bound ``Delta~ = Delta + 1``."""
        return self.max_degree + 1


def degree_stats(graph: nx.Graph) -> DegreeStats:
    """Compute degree statistics for a graph."""
    degrees = [d for _, d in graph.degree()]
    n = graph.number_of_nodes()
    return DegreeStats(
        n=n,
        m=graph.number_of_edges(),
        max_degree=max(degrees, default=0),
        min_degree=min(degrees, default=0),
        avg_degree=(sum(degrees) / n) if n else 0.0,
    )


def require_connected(graph: nx.Graph, what: str = "algorithm") -> None:
    """Raise :class:`GraphError` unless the graph is connected.

    The CDS problem (Section 4) is only well posed on connected graphs.
    """
    import networkx as nx

    if graph.number_of_nodes() == 0:
        raise GraphError(f"{what} requires a non-empty graph")
    if not nx.is_connected(graph):
        raise GraphError(f"{what} requires a connected graph")
