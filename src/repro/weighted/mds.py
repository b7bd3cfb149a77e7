"""Weighted MDS via weighted LP + derandomized one-shot rounding."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Set

import numpy as np

from repro.analysis.verify import require_dominating_set
from repro.congest.cost import CostLedger
from repro.derand.coloring_based import one_shot_via_coloring
from repro.derand.estimators import EstimatorConfig
from repro.domsets.covering import CoveringInstance, ltr_sum
from repro.errors import GraphError
from repro.fractional.lp import solve_covering_lp
from repro.fractional.raising import repair_feasibility
from repro.setcover.instance import SetCoverInstance
from repro.setcover.solve import greedy_set_cover

if TYPE_CHECKING:
    import networkx as nx


@dataclass
class WeightedMDSResult:
    """Weighted dominating set plus provenance."""

    dominating_set: Set[int]
    weight: float
    lp_optimum: float
    num_colors: int
    ledger: CostLedger


def greedy_weighted_mds(graph: nx.Graph, weights: Mapping[int, float]) -> Set[int]:
    """Weighted greedy: :func:`~repro.setcover.solve.greedy_set_cover` on
    the closed neighbourhoods, so each pick minimizes weight per newly
    dominated node (lowest id on ties)."""
    instance = SetCoverInstance.from_iterables(
        {v: set(graph.neighbors(v)) | {v} for v in graph.nodes()},
        graph.nodes(),
        {v: float(weights.get(v, 1.0)) for v in graph.nodes()},
    )
    return require_dominating_set(graph, greedy_set_cover(instance), "weighted greedy")


def approx_weighted_mds(
    graph: nx.Graph,
    weights: Mapping[int, float],
    raise_fraction: float = 0.25,
    config: EstimatorConfig | None = None,
) -> WeightedMDSResult:
    """Weighted LP + derandomized one-shot rounding.

    Output weight is at most ``ln(Delta~) * LP_w + sum of uncovered
    penalties`` — the weighted analogue of Lemma 3.13, realized through the
    same estimator with per-variable weights.
    """
    n = graph.number_of_nodes()
    if n == 0:
        raise GraphError("empty graph")
    bad = [v for v in graph.nodes() if float(weights.get(v, 1.0)) <= 0]
    if bad:
        raise GraphError(f"weights must be positive; offending nodes {bad[:5]}")
    w = {v: float(weights.get(v, 1.0)) for v in graph.nodes()}
    lp_instance = CoveringInstance.from_graph(
        graph, {v: 0.0 for v in graph.nodes()}, weights=w
    )
    # Delta~ = max |N[v]| over the closed CSR, so a self-loop counts once.
    delta_tilde = lp_instance.max_constraint_degree
    lp = solve_covering_lp(lp_instance)
    values = repair_feasibility(graph, lp.values)
    # Weighted raising: lifting by lambda costs sum_v w_v * lambda; keep the
    # lift proportional to the LP weight so the factor stays (1 + raise).
    total_weight = ltr_sum(np.fromiter(w.values(), float, len(w)))
    lam = raise_fraction * max(lp.optimum, 1e-9) / max(total_weight, 1e-9)
    lam = min(lam, 1.0 / (2.0 * delta_tilde))
    values = {v: max(x, lam) for v, x in values.items()}

    out = one_shot_via_coloring(
        CoveringInstance.from_graph(graph, values, weights=w), config=config
    )
    ledger = CostLedger()
    ledger.merge(out.ledger, prefix="part3/")
    ds = {v for v, x in out.values.items() if x >= 1.0 - 1e-9}
    require_dominating_set(graph, ds, "weighted one-shot output")
    return WeightedMDSResult(
        dominating_set=ds,
        weight=ltr_sum(np.fromiter((w[v] for v in ds), float, len(ds))),
        lp_optimum=lp.optimum,
        num_colors=out.num_colors,
        ledger=ledger,
    )
