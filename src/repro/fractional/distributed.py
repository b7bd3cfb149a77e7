"""Distributed threshold water-filling covering solver.

A round-by-round multiplicative scheme in the spirit of the [KMW06]
LP algorithm: a global degree threshold ``theta`` sweeps down from
``Delta~`` by ``(1+gamma)`` factors; while any node is adjacent to at least
``theta`` uncovered constraints it raises its value by ``gamma / theta``
(covering at least ``theta`` constraints per ``gamma/theta`` units of cost —
the dual-fitting argument that keeps the solution within ``O((1+gamma)
ln Delta~)`` of the LP optimum, and empirically within a few percent; E3
measures the ratio).  Every iteration costs two CONGEST rounds: one to
announce values (so constraints learn their coverage) and one to announce
coverage (so nodes learn their dynamic degree).

The sweep is deterministic, so it doubles as a Part-I provider whose round
count is *measured* rather than charged — with one caveat.  Raising is
node-local, but lowering ``theta`` is not: the threshold drops only after
an iteration in which *no node anywhere* raised.  That is a global test;
in CONGEST every node would need an ``O(D)``-round aggregation each
iteration to learn its outcome.  ``rounds`` charges two rounds per
iteration and nothing for that test, so it counts the value and coverage
exchanges only.

The sweep runs on closed-neighbourhood CSR arrays compiled once by
:class:`repro.congest.network.Network`.  The dynamic degree is kept
incrementally (rows of newly covered constraints are decremented), and each
iteration scatters the raisers' increments into the coverage vector with
one ``np.add.at`` in ascending raiser order — the order a node-by-node loop
adds them in, so every floating-point sum is bit-for-bit the loop's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import networkx as nx
import numpy as np

from repro.congest.network import Network
from repro.errors import GraphError
from repro.graphs.normalize import require_normalized


@dataclass(frozen=True)
class DistributedLPResult:
    """Feasible fractional dominating set with measured round cost."""

    values: Dict[int, float]
    size: float
    rounds: int
    iterations: int
    threshold_trace: List[float]


def _closed_csr(graph: nx.Graph) -> Tuple[np.ndarray, np.ndarray]:
    """``(indptr, indices)`` of the closed neighbourhoods ``N[v]``, row by
    row in ascending node order; each row is ``v``'s neighbours then ``v``."""
    indptr, indices = Network(graph).csr()
    indptr = np.asarray(indptr, dtype=np.int64)
    n = len(indptr) - 1
    closed = np.insert(np.asarray(indices, dtype=np.int64), indptr[1:], np.arange(n))
    return indptr + np.arange(n + 1), closed


def _rows(indptr: np.ndarray, sizes: np.ndarray, indices: np.ndarray, rows: np.ndarray):
    """The CSR entries of ``rows`` (at least one row), concatenated in
    ``rows`` order, and each row's length; ``sizes`` holds every row's."""
    lengths = sizes[rows]
    ends = lengths.cumsum()
    slots = np.arange(ends[-1]) + (indptr[rows] - ends + lengths).repeat(lengths)
    return indices[slots], lengths


def distributed_fractional_mds(
    graph: nx.Graph, gamma: float = 0.25, max_iterations: int = 100_000
) -> DistributedLPResult:
    """Run the water-filling sweep until every constraint is covered."""
    require_normalized(graph)
    if not 0.0 < gamma <= 1.0:
        raise GraphError(f"gamma must be in (0, 1], got {gamma}")
    n = graph.number_of_nodes()
    if n == 0:
        raise GraphError("empty graph")
    indptr, indices = _closed_csr(graph)

    sizes = np.diff(indptr)
    # Dynamic degree: how many uncovered constraints each node touches.
    # Every constraint starts uncovered, so it starts as |N[v]|.
    dyn = sizes.copy()
    x = np.zeros(n)
    coverage = np.zeros(n)
    uncovered = np.ones(n, dtype=bool)
    remaining = n
    theta = float(sizes.max())
    rounds = 0
    iterations = 0
    trace = [theta]

    while remaining:
        iterations += 1
        if iterations > max_iterations:
            raise GraphError(
                f"water-filling failed to converge in {max_iterations} iterations"
            )
        raisers = ((dyn >= theta) & (x < 1.0)).nonzero()[0]
        rounds += 2  # value announcement + coverage announcement
        if raisers.size:
            before = x[raisers]
            raised = np.minimum(1.0, before + gamma / theta)
            deltas = raised - before
            x[raisers] = raised
        else:
            theta = max(1.0, theta / (1.0 + gamma))
            trace.append(theta)
            if theta != 1.0:
                continue
            # At theta == 1 every node adjacent to an uncovered constraint
            # qualifies; if none does but constraints remain uncovered,
            # those constraints' own nodes must raise.
            raisers = uncovered.nonzero()[0]
            x[raisers] = 1.0
            deltas = np.ones(raisers.size)
        targets, lengths = _rows(indptr, sizes, indices, raisers)
        np.add.at(coverage, targets, deltas.repeat(lengths))
        covered = (uncovered & (coverage >= 1.0 - 1e-12)).nonzero()[0]
        if covered.size:
            uncovered[covered] = False
            remaining -= covered.size
            np.subtract.at(dyn, _rows(indptr, sizes, indices, covered)[0], 1)

    values = x.tolist()
    return DistributedLPResult(
        values=dict(enumerate(values)),
        size=sum(values),
        rounds=rounds,
        iterations=iterations,
        threshold_trace=trace,
    )
