"""Distributed threshold water-filling covering solver.

A round-by-round multiplicative scheme in the spirit of the [KMW06]
LP algorithm: a global degree threshold ``theta`` sweeps down from
``Delta~`` by ``(1+gamma)`` factors; while any node is adjacent to at least
``theta`` uncovered constraints it raises its value by ``gamma / theta``
(covering at least ``theta`` constraints per ``gamma/theta`` units of cost —
the dual-fitting argument that keeps the solution within ``O((1+gamma)
ln Delta~)`` of the LP optimum; it is no close LP proxy: on 12 of 16 suite
instances it lands at 1.12 to 1.58 times the LP optimum, and E3 measures
the ratio).  Every iteration costs two CONGEST rounds: one to announce
values (so constraints learn their coverage) and one to announce coverage
(so nodes learn their dynamic degree).

The sweep is deterministic, so it doubles as a Part-I provider whose round
count is *measured* rather than charged — with one caveat.  Raising is
node-local, but lowering ``theta`` is not: the threshold drops only after
an iteration in which *no node anywhere* raised.  That is a global test;
in CONGEST every node would need an ``O(D)``-round aggregation each
iteration to learn its outcome.  ``rounds`` charges two rounds per
iteration and nothing for that test, so it counts the value and coverage
exchanges only.

The sweep runs on the closed-neighbourhood CSR arrays of
:func:`repro.congest.network.closed_neighborhoods`.  The dynamic degree is
kept incrementally (rows of newly covered constraints are decremented), and
each iteration scatters the raisers' increments into the coverage vector
with one ``np.add.at`` in ascending raiser order — the order a node-by-node
loop adds them in, whatever the order inside a row, so every floating-point
sum is bit-for-bit the loop's.

Most iterations repeat the last one, so the sweep is event-driven.  An
*event* is an iteration that covers a constraint, caps a raiser at 1 or
finds no raiser.  Between two events the dynamic degree, ``theta`` and the
raiser set stay fixed, and the iterations in between are replayed as one
batch of the same float operations in the same order:

* the values by ``np.add.accumulate`` down a table whose first row is the
  raisers' values and whose other rows are ``gamma / theta`` — row j is the
  value after j raises, since ``min(1, .)`` is the identity until a value
  reaches 1 — and the increments as the table's row differences;
* the coverage by one ``np.add.at`` over the raisers' rows repeated once
  per iteration, iteration-major, so every constraint receives the same
  adds in the same order as from one scatter per iteration.

The batch length is estimated from the slack (coverage left below the
covering threshold, value left below 1) and checked exactly on a trial
copy: coverage and values only grow, so if the batch's end state covers no
constraint and caps no raiser, no iteration inside it did either.  If the
check fails, the sweep takes one iteration instead.  Iterations that only
lower ``theta`` are replayed on Python floats until some node below 1
qualifies again (or ``theta`` reaches 1).  Every replayed iteration counts
as one iteration of two rounds, so ``iterations``, ``rounds`` and the
``max_iterations`` limit read as if the sweep ran them singly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List

import numpy as np

from repro.congest.network import Network, closed_neighborhoods
from repro.domsets.covering import ltr_sum
from repro.errors import GraphError
from repro.graphs.normalize import require_normalized

if TYPE_CHECKING:
    import networkx as nx

#: A constraint counts as covered from this coverage on.
_COVERED = 1.0 - 1e-12

#: Most CSR entries one replayed batch scatters: k iterations of raisers
#: whose rows hold e entries need k * e <= 2**16 (~1 MB of targets and
#: increments).
_BATCH_ENTRIES = 1 << 16


@dataclass(frozen=True)
class DistributedLPResult:
    """Feasible fractional dominating set with measured round cost."""

    values: Dict[int, float]
    size: float
    rounds: int
    iterations: int
    threshold_trace: List[float]


def _rows(indptr: np.ndarray, sizes: np.ndarray, indices: np.ndarray, rows: np.ndarray):
    """The CSR entries of ``rows`` (at least one row), concatenated in
    ``rows`` order, and each row's length; ``sizes`` holds every row's."""
    lengths = sizes[rows]
    ends = lengths.cumsum()
    slots = np.arange(ends[-1]) + (indptr[rows] - ends + lengths).repeat(lengths)
    return indices[slots], lengths


def _next_iteration(iterations: int, max_iterations: int) -> int:
    """``iterations + 1``, or the convergence error past ``max_iterations``."""
    iterations += 1
    if iterations > max_iterations:
        raise GraphError(f"water-filling failed to converge in {max_iterations} iterations")
    return iterations


def _replay_raises(
    x: np.ndarray,
    coverage: np.ndarray,
    uncovered: np.ndarray,
    raisers: np.ndarray,
    targets: np.ndarray,
    lengths: np.ndarray,
    step: float,
    limit: int,
) -> int:
    """Replay in place as many raise iterations of ``raisers`` by ``step``
    as pass without an event, at most ``limit``, and return how many; 0
    leaves every array as it was.  ``targets`` and ``lengths`` are the
    raisers' :func:`_rows`."""
    k = min(limit, _BATCH_ENTRIES // targets.size)
    if k < 2:
        return 0
    # Uncovered rows a raiser belongs to; every raiser has one, since its
    # dynamic degree is at least theta >= 1.
    members = np.bincount(targets, minlength=len(coverage))
    rows = (uncovered & (members > 0)).nonzero()[0]
    start = x[raisers]
    # Raises until a row is covered or a value reaches 1, in real numbers;
    # the trial below settles the rounding.
    slack = min(
        ((_COVERED - coverage[rows]) / (members[rows] * step)).min(),
        ((1.0 - start) / step).min(),
    )
    k = min(k, math.ceil(slack) - 1)
    if k < 2:
        return 0
    table = np.empty((k + 1, raisers.size))
    table[0] = start
    table[1:] = step
    np.add.accumulate(table, axis=0, out=table)
    if table[-1].max() >= 1.0:
        return 0
    trial = coverage.copy()
    deltas = np.diff(table, axis=0).repeat(lengths, axis=1)
    np.add.at(trial, np.tile(targets, k), deltas.ravel())
    if (trial[rows] >= _COVERED).any():
        return 0
    x[raisers] = table[-1]
    coverage[:] = trial
    return k


def distributed_fractional_mds(
    graph: nx.Graph | Network, gamma: float = 0.25, max_iterations: int = 100_000
) -> DistributedLPResult:
    """Run the water-filling sweep until every constraint is covered.

    ``graph`` is an ``nx.Graph`` labelled ``0..n-1`` or its compiled
    :class:`~repro.congest.network.Network`.
    """
    if not isinstance(graph, Network):
        require_normalized(graph)
    if not 0.0 < gamma <= 1.0:
        raise GraphError(f"gamma must be in (0, 1], got {gamma}")
    indptr, indices = closed_neighborhoods(graph)
    n = len(indptr) - 1
    if n == 0:
        raise GraphError("empty graph")

    sizes = np.diff(indptr)
    # Dynamic degree: how many uncovered constraints each node touches.
    # Every constraint starts uncovered, so it starts as |N[v]|.
    dyn = sizes.copy()
    x = np.zeros(n)
    coverage = np.zeros(n)
    uncovered = np.ones(n, dtype=bool)
    remaining = n
    theta = float(sizes.max())
    iterations = 0
    trace = [theta]

    while remaining:
        raisers = ((dyn >= theta) & (x < 1.0)).nonzero()[0]
        if raisers.size:
            step = gamma / theta
            targets, lengths = _rows(indptr, sizes, indices, raisers)
            iterations += _replay_raises(
                x, coverage, uncovered, raisers, targets, lengths, step,
                max_iterations - iterations,
            )
            iterations = _next_iteration(iterations, max_iterations)
            before = x[raisers]
            raised = np.minimum(1.0, before + step)
            deltas = raised - before
            x[raisers] = raised
        else:
            # Only theta moves until it reaches the largest dynamic degree
            # of a node below 1.
            top = int(dyn[x < 1.0].max(initial=0))
            while True:
                iterations = _next_iteration(iterations, max_iterations)
                theta = max(1.0, theta / (1.0 + gamma))
                trace.append(theta)
                if theta == 1.0 or theta <= top:
                    break
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
        covered = (uncovered & (coverage >= _COVERED)).nonzero()[0]
        if covered.size:
            uncovered[covered] = False
            remaining -= covered.size
            np.subtract.at(dyn, _rows(indptr, sizes, indices, covered)[0], 1)

    values = x.tolist()
    return DistributedLPResult(
        values=dict(enumerate(values)),
        size=ltr_sum(x),
        # Two rounds per iteration: value and coverage announcements.
        rounds=2 * iterations,
        iterations=iterations,
        threshold_trace=trace,
    )
