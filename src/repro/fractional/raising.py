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
from typing import Dict, Mapping

import networkx as nx

from repro.congest.cost import CostLedger, kmw06_lp_rounds
from repro.domsets.cfds import CFDS
from repro.errors import GraphError, InfeasibleSolutionError
from repro.fractional.distributed import distributed_fractional_mds
from repro.fractional.lp import lp_fractional_mds


def repair_feasibility(graph: nx.Graph, values: Mapping[int, float]) -> Dict[int, float]:
    """Nudge a nearly-feasible FDS to strict feasibility.

    For every node whose inclusive-neighborhood sum falls short of 1, the
    largest-valued neighbor is raised just enough (plus a hair of margin).
    Used to absorb LP-solver tolerance; a clean input passes through
    untouched.
    """
    x = {v: float(values.get(v, 0.0)) for v in graph.nodes()}
    for v in sorted(graph.nodes()):
        members = sorted(set(graph.neighbors(v)) | {v})
        total = sum(x[u] for u in members)
        if total < 1.0:
            best = max(members, key=lambda u: (x[u], -u))
            x[best] = min(1.0, x[best] + (1.0 - total) + 1e-12)
    return x


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
    graph: nx.Graph,
    eps: float,
    provider: str = "lp",
    gamma: float | None = None,
) -> InitialFDS:
    """Lemma 2.1: a ``(1+eps)``-approximate, ``eps/(2 Delta~)``-fractional FDS.

    ``provider`` selects the underlying solver: ``"lp"`` (exact oracle,
    rounds charged per [KMW06]) or ``"distributed"`` (water-filling, rounds
    measured).
    """
    if eps <= 0 or eps > 1:
        raise GraphError(f"eps must be in (0, 1], got {eps}")
    n = graph.number_of_nodes()
    if n == 0:
        raise GraphError("empty graph")
    delta_tilde = max((d for _, d in graph.degree()), default=0) + 1
    ledger = CostLedger()

    if provider == "lp":
        solution = lp_fractional_mds(graph)
        values = solution.values
        provider_size = sum(values.values())
        ledger.charge("kmw06-lp", kmw06_lp_rounds(delta_tilde - 1, eps))
    elif provider == "distributed":
        result = distributed_fractional_mds(graph, gamma=min(0.5, eps) if gamma is None else gamma)
        values = result.values
        provider_size = result.size
        ledger.simulate("water-filling-lp", result.rounds)
    else:
        raise GraphError(f"unknown Part-I provider {provider!r}")

    values = repair_feasibility(graph, values)
    lam = eps / (2.0 * delta_tilde)
    raised = raise_fractionality(values, lam)
    fds = CFDS.fds(graph, raised)
    fds.require_feasible("Part-I fractional dominating set")
    return InitialFDS(
        fds=fds,
        provider=provider,
        provider_size=provider_size,
        raised_size=fds.size,
        lam=lam,
        ledger=ledger,
    )
