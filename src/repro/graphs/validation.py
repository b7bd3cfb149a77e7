"""Graph input validation."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import GraphError

if TYPE_CHECKING:
    import networkx as nx


def require_connected(graph: nx.Graph, what: str = "algorithm") -> None:
    """Raise :class:`GraphError` unless the graph is connected.

    The CDS problem (Section 4) is only well posed on connected graphs.
    """
    import networkx as nx

    if graph.number_of_nodes() == 0:
        raise GraphError(f"{what} requires a non-empty graph")
    if not nx.is_connected(graph):
        raise GraphError(f"{what} requires a connected graph")
