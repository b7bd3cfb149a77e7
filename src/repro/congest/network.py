"""Network abstraction over a ``networkx`` graph.

Nodes are identified by integers ``0..n-1`` (see
:func:`repro.graphs.normalize_graph`).  The network exposes adjacency and the
CONGEST bit budget; it does not expose any global structure to node programs,
which only ever see their own id, their neighbor list (port numbering) and
``n`` (the standard assumption that nodes know the network size, used by the
paper for transmittable values).
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING, Dict, Tuple

import numpy as np

from repro.errors import GraphError
from repro.graphs.normalize import require_normalized
from repro.util.mathx import ceil_log2

if TYPE_CHECKING:
    import networkx as nx


def _as_long_array(values) -> array:
    """Copy an int sequence into an ``array('l')`` without a Python loop.

    The shared-memory worker path hands over numpy int64 arrays for graphs
    with up to millions of edges; routing the copy through ``frombytes``
    keeps it a C-level memcpy (numpy ``dtype('l')`` is the same C ``long``
    as the ``array`` typecode) instead of per-element ``int()`` calls.
    """
    if isinstance(values, array) and values.typecode == "l":
        out = array("l")
        out.frombytes(values.tobytes())
        return out
    contiguous = np.ascontiguousarray(values, dtype=np.dtype("l"))
    out = array("l")
    out.frombytes(contiguous.tobytes())
    return out


def csr_row_slots(indptr: np.ndarray, lengths: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The entries of ``rows`` of a CSR matrix, concatenated in that order.

    Row ``v`` contributes ``indptr[v] .. indptr[v] + lengths[v] - 1``, so
    the result costs O(sum of the rows' lengths); an empty row contributes
    nothing.
    """
    counts = lengths[rows]
    ends = counts.cumsum()
    shift = indptr[rows] - ends + counts
    total = int(ends[-1]) if ends.size else 0
    return np.arange(total) + shift.repeat(counts)


def congest_bit_budget(n: int, factor: int = 16, base: int = 96) -> int:
    """Default CONGEST message budget in bits for an ``n``-node network.

    ``O(log n)`` with explicit constants: ``factor * ceil(log2 n) + base``.
    The base term covers headers and framing; the factor is generous enough
    for a constant number of identifiers plus one transmittable value, which
    is exactly what the paper's algorithms send.
    """
    return factor * max(1, ceil_log2(max(2, n))) + base


class Network:
    """A static network on which node programs execute.

    Parameters
    ----------
    graph:
        Undirected simple graph with nodes labelled ``0..n-1``.
    bit_budget:
        Maximum message size in bits (``None`` = LOCAL model, unbounded).
    """

    def __init__(self, graph: nx.Graph, bit_budget: int | None = None):
        n = graph.number_of_nodes()
        if n == 0:
            raise GraphError("network requires a non-empty graph")
        if set(graph.nodes()) != set(range(n)):
            raise GraphError(
                "network nodes must be labelled 0..n-1; "
                "use repro.graphs.normalize_graph first"
            )
        self._graph: nx.Graph | None = graph
        self.n = n
        self.bit_budget = bit_budget
        # Flat CSR adjacency, compiled once: node v's sorted neighbors are
        # _indices[_indptr[v]:_indptr[v+1]].  This is the representation the
        # fast engine path consumes; neighbor tuples are derived lazily.
        indptr = array("l", [0])
        indices = array("l")
        for v in range(n):
            indices.extend(sorted(graph.neighbors(v)))
            indptr.append(len(indices))
        self._indptr = indptr
        self._indices = indices
        self._neighbors: Dict[int, Tuple[int, ...]] = {}
        self._closed: Tuple[np.ndarray, np.ndarray] | None = None

    @classmethod
    def congest(cls, graph: nx.Graph, factor: int = 16, base: int = 96) -> "Network":
        """Network with the default CONGEST bit budget for its size."""
        return cls(graph, bit_budget=congest_bit_budget(graph.number_of_nodes(), factor, base))

    @classmethod
    def local(cls, graph: nx.Graph) -> "Network":
        """LOCAL-model network (unbounded messages)."""
        return cls(graph, bit_budget=None)

    @classmethod
    def from_csr(
        cls,
        indptr,
        indices,
        bit_budget: int | None = None,
    ) -> "Network":
        """Rebuild a network directly from flat CSR adjacency arrays.

        This is the shared-memory transport path: a worker process receives
        the ``(indptr, indices)`` arrays another process compiled (e.g. via
        ``multiprocessing.shared_memory``) and reconstructs an equivalent
        network without re-generating — or even materializing — the
        ``networkx`` graph.  The G(n, p) suite families, generated as
        arrays, compile here too.  The ``graph`` property rebuilds one
        lazily (in sorted adjacency order) if an algorithm outside the
        simulator needs it.

        ``indptr``/``indices`` may be any int sequences (``array('l')``,
        numpy arrays, lists); they are copied into the canonical ``array``
        representation so the instance owns its topology.
        """
        net = cls.__new__(cls)
        n = len(indptr) - 1
        if n <= 0:
            raise GraphError("network requires a non-empty graph")
        net._graph = None
        net.n = n
        net.bit_budget = bit_budget
        net._indptr = _as_long_array(indptr)
        net._indices = _as_long_array(indices)
        net._neighbors = {}
        net._closed = None
        if net._indptr[0] != 0 or net._indptr[-1] != len(net._indices):
            raise GraphError("malformed CSR adjacency: bad indptr bounds")
        return net

    @property
    def graph(self) -> nx.Graph:
        """The ``networkx`` view of the topology (rebuilt lazily after
        :meth:`from_csr`; the constructor argument otherwise)."""
        if self._graph is None:
            import networkx as nx

            g = nx.Graph()
            g.add_nodes_from(range(self.n))
            indptr, indices = self._indptr, self._indices
            for v in range(self.n):
                for i in range(indptr[v], indptr[v + 1]):
                    u = indices[i]
                    if u > v:
                        g.add_edge(v, u)
            self._graph = g
        return self._graph

    def neighbors(self, v: int) -> Tuple[int, ...]:
        """Sorted neighbor tuple of ``v`` (the port numbering)."""
        try:
            return self._neighbors[v]
        except KeyError:
            nbrs = tuple(self._indices[self._indptr[v]:self._indptr[v + 1]])
            self._neighbors[v] = nbrs
            return nbrs

    def csr(self) -> Tuple[array, array]:
        """Flat ``(indptr, indices)`` adjacency arrays (built once).

        ``indices[indptr[v]:indptr[v+1]]`` is the sorted neighbor list of
        ``v`` — the zero-copy topology view engines and batch analyses use
        instead of per-node tuples.
        """
        return self._indptr, self._indices

    def closed_csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(indptr, indices)`` of the closed neighbourhoods ``N[v]`` as
        int64 arrays (built once): row ``v`` is ``v`` and its neighbours in
        ascending order, ``v`` once even if it has a self-loop."""
        if self._closed is None:
            indices = np.asarray(self._indices, dtype=np.int64)
            n = self.n
            rows = np.repeat(np.arange(n), np.diff(np.asarray(self._indptr)))
            keep = indices != rows
            rows, indices = rows[keep], indices[keep]
            indptr = np.searchsorted(rows, np.arange(n + 1))
            below = np.bincount(rows[indices < rows], minlength=n)
            closed = np.insert(indices, indptr[:-1] + below, np.arange(n))
            self._closed = (indptr + np.arange(n + 1), closed)
        return self._closed

    def degree(self, v: int) -> int:
        return self._indptr[v + 1] - self._indptr[v]

    @property
    def max_degree(self) -> int:
        return int(np.diff(np.asarray(self._indptr)).max())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mode = "LOCAL" if self.bit_budget is None else f"CONGEST({self.bit_budget}b)"
        return f"Network(n={self.n}, {mode})"


def as_network(graph: nx.Graph | Network) -> Network:
    """``graph`` itself if it is a :class:`Network`, else one compiled from
    it (a graph not labelled ``0..n-1`` raises :class:`GraphError`)."""
    if isinstance(graph, Network):
        return graph
    require_normalized(graph)
    return Network(graph)


def closed_neighborhoods(graph: nx.Graph | Network) -> Tuple[np.ndarray, np.ndarray]:
    """:meth:`Network.closed_csr` of ``graph``; an empty ``nx.Graph`` gives
    empty arrays.  Every covering matrix of a graph is built from this."""
    if not isinstance(graph, Network) and graph.number_of_nodes() == 0:
        return np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int64)
    return as_network(graph).closed_csr()
