"""Canonical node labelling.

Every algorithm in this library assumes simple undirected graphs with integer
node labels ``0..n-1`` (node label == unique O(log n)-bit identifier, the
standard CONGEST assumption).  :func:`normalize_graph` converts arbitrary
``networkx`` graphs into that form deterministically, so symmetry-breaking
by ID is reproducible.

The new label is a node's rank by ``(type name, repr(label))``, not by the
label itself: integer labels order as strings, so ``normalize_graph`` of
``nx.path_graph(12)`` maps ``10 -> 2`` and ``2 -> 4``, and normalizing an
already normalized graph with 11 or more nodes permutes it again (the
function is not idempotent).  Every generator ends in this relabelling, so
the ranking is part of every topology's identity: the topology cache key,
the result and oracle caches and the committed benchmark artifacts all
assume it.  Do not "fix" it to numeric order without versioning the
topology cache key.  The G(n, p) generator relabels its edge arrays with
:func:`repr_rank`, the same ranking of the integer labels ``0..n-1`` as one
index array.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Hashable, Tuple

import numpy as np

from repro.errors import GraphError

if TYPE_CHECKING:
    import networkx as nx


def _rank_key(label: Hashable) -> Tuple[str, str]:
    return type(label).__name__, repr(label)


def relabel_map(graph: nx.Graph) -> Dict[Hashable, int]:
    """Deterministic mapping original-label -> 0..n-1 (sorted by repr order).

    Labels are sorted by ``(type name, repr(label))`` so heterogeneous label
    types (e.g. tuples from grid graphs) still order deterministically; the
    integer label 10 therefore ranks before 2 (see the module docstring).
    """
    labels = sorted(graph.nodes(), key=_rank_key)
    return {label: i for i, label in enumerate(labels)}


def repr_rank(n: int) -> np.ndarray:
    """:func:`relabel_map` of a graph on the integer labels ``0..n-1`` as
    one int64 index array: ``rank[label]`` is the label's new id."""
    rank = np.empty(n, dtype=np.int64)
    rank[sorted(range(n), key=_rank_key)] = np.arange(n)
    return rank


def normalize_graph(graph: nx.Graph) -> nx.Graph:
    """Return a simple undirected copy with nodes relabelled ``0..n-1``.

    Self-loops are dropped (a self-loop is meaningless for domination since
    neighborhoods are inclusive anyway); multi-edges collapse.
    """
    import networkx as nx

    if graph.is_directed():
        raise GraphError("directed graphs are not supported")
    simple = nx.Graph()
    mapping = relabel_map(graph)
    simple.add_nodes_from(range(graph.number_of_nodes()))
    for u, v in graph.edges():
        if u == v:
            continue
        simple.add_edge(mapping[u], mapping[v])
    return simple


def is_normalized(graph: nx.Graph) -> bool:
    """Whether node labels are exactly ``0..n-1``."""
    n = graph.number_of_nodes()
    return set(graph.nodes()) == set(range(n))


def require_normalized(graph: nx.Graph) -> None:
    """Raise :class:`GraphError` unless the graph is normalized."""
    if not is_normalized(graph):
        raise GraphError(
            "graph must have integer node labels 0..n-1; "
            "call repro.graphs.normalize_graph first"
        )
