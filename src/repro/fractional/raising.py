"""Lemma 2.1: initial fractional dominating sets with good fractionality.

The provider (LP oracle or the distributed water-filling solver) supplies a
feasible fractional dominating set; the raising step lifts every value below
``lambda = eps / (2 Delta~)`` up to ``lambda``.  Since the optimum is at
least ``n / Delta~``, the lift costs at most an additive ``eps/2 * OPT``,
and the result is ``eps/(2 Delta~)``-fractional — the Part-I contract of
Section 3.4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Mapping

import numpy as np

from repro.congest.cost import CostLedger, kmw06_lp_rounds
from repro.congest.network import Network, as_network, closed_neighborhoods
from repro.domsets.cfds import CFDS
from repro.domsets.covering import ltr_sum, row_sums
from repro.errors import GraphError, InfeasibleSolutionError
from repro.fractional.distributed import distributed_fractional_mds
from repro.fractional.lp import lp_fractional_mds

if TYPE_CHECKING:
    import networkx as nx


def repair_feasibility(
    graph: nx.Graph | Network, values: Mapping[int, float]
) -> Dict[int, float]:
    """Nudge a nearly-feasible FDS to strict feasibility.

    Node by node in ascending order, wherever the inclusive-neighborhood sum
    falls short of 1, the largest-valued neighbor (lowest id on ties) is
    raised just enough (plus a hair of margin).  Used to absorb LP-solver
    tolerance; a clean input passes through untouched.  Returns the values
    of every node, in ascending order.
    """
    indptr, members = closed_neighborhoods(graph)
    n = len(indptr) - 1
    x = np.fromiter((values.get(v, 0.0) for v in range(n)), float, n)
    # Raising a value only raises the sums of the later rows, so only rows
    # short now can be short when their turn comes.  A value above 1 is
    # lowered, though, and then the later rows are checked again.
    pending = np.flatnonzero(row_sums(indptr, x[members]) < 1.0).tolist()
    while pending:
        v = pending.pop(0)
        row = members[indptr[v]:indptr[v + 1]]
        total = ltr_sum(x[row])
        if total < 1.0:
            best = row[np.argmax(x[row])]
            before = float(x[best])
            x[best] = min(1.0, before + (1.0 - total) + 1e-12)
            if x[best] < before:
                rest = row_sums(indptr[v + 1:] - indptr[v + 1], x[members[indptr[v + 1]:]])
                pending = (v + 1 + np.flatnonzero(rest < 1.0)).tolist()
    return dict(enumerate(x.tolist()))


def raise_fractionality(
    values: Mapping[int, float], lam: float
) -> Dict[int, float]:
    """Raise every value below ``lam`` to ``lam`` (all nodes, including
    zero-valued ones, exactly as in the proof of Lemma 2.1)."""
    if not 0.0 < lam <= 1.0:
        raise InfeasibleSolutionError(f"raising level lambda={lam} outside (0, 1]")
    return {v: max(float(x), lam) for v, x in values.items()}


@dataclass
class InitialFDS:
    """Part-I output: the raised FDS plus provenance and cost."""

    fds: CFDS
    provider: str
    provider_size: float
    raised_size: float
    lam: float
    ledger: CostLedger

    @property
    def inverse_fractionality(self) -> float:
        """``r`` such that the solution is ``1/r``-fractional."""
        return 1.0 / self.fds.fractionality


def kmw06_initial_fds(
    graph: nx.Graph | Network,
    eps: float,
    provider: str = "lp",
    gamma: float | None = None,
) -> InitialFDS:
    """Lemma 2.1: an ``eps/(2 Delta~)``-fractional FDS.

    ``provider`` selects the underlying solver: ``"lp"`` (exact oracle,
    rounds charged per [KMW06]) gives the lemma's ``(1+eps)``-approximate
    FDS; ``"distributed"`` (water-filling, rounds measured) only an
    ``O((1+gamma) ln Delta~)``-approximate one.  ``graph`` is an
    ``nx.Graph`` labelled ``0..n-1`` or its compiled
    :class:`~repro.congest.network.Network`.
    """
    if eps <= 0 or eps > 1:
        raise GraphError(f"eps must be in (0, 1], got {eps}")
    if not isinstance(graph, Network) and graph.number_of_nodes() == 0:
        raise GraphError("empty graph")
    network = as_network(graph)
    delta_tilde = int(np.diff(network.closed_csr()[0]).max())
    ledger = CostLedger()

    if provider == "lp":
        solution = lp_fractional_mds(network)
        values = solution.values
        provider_size = ltr_sum(np.fromiter(values.values(), float, len(values)))
        ledger.charge("kmw06-lp", kmw06_lp_rounds(delta_tilde - 1, eps))
    elif provider == "distributed":
        result = distributed_fractional_mds(
            network, gamma=min(0.5, eps) if gamma is None else gamma
        )
        values = result.values
        provider_size = result.size
        ledger.simulate("water-filling-lp", result.rounds)
    else:
        raise GraphError(f"unknown Part-I provider {provider!r}")

    values = repair_feasibility(network, values)
    lam = eps / (2.0 * delta_tilde)
    raised = raise_fractionality(values, lam)
    fds = CFDS.fds(network.graph, raised)
    fds.require_feasible("Part-I fractional dominating set")
    return InitialFDS(
        fds=fds,
        provider=provider,
        provider_size=provider_size,
        raised_size=fds.size,
        lam=lam,
        ledger=ledger,
    )
