"""Weighted MDS via weighted LP + derandomized one-shot rounding."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Set

import numpy as np

from repro.analysis.verify import require_dominating_set
from repro.coloring.distance2 import bipartite_distance2_coloring
from repro.congest.cost import CostLedger
from repro.derand.coloring_based import (
    ROUNDS_PER_COLOR,
    derandomized_rounding_with_coloring,
)
from repro.derand.estimators import EstimatorConfig
from repro.domsets.covering import CoveringInstance, ltr_sum
from repro.errors import GraphError
from repro.fractional.lp import solve_covering_lp
from repro.fractional.raising import repair_feasibility
from repro.rounding.schemes import one_shot_scheme
from repro.util.transmittable import TransmittableGrid

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
    """Weighted greedy: minimize weight per newly dominated node."""
    uncovered = set(graph.nodes())
    chosen: Set[int] = set()
    while uncovered:
        best, best_ratio = None, math.inf
        for v in sorted(graph.nodes()):
            if v in chosen:
                continue
            gain = len((set(graph.neighbors(v)) | {v}) & uncovered)
            if gain == 0:
                continue
            ratio = float(weights.get(v, 1.0)) / gain
            if ratio < best_ratio:
                best, best_ratio = v, ratio
        assert best is not None
        chosen.add(best)
        uncovered -= set(graph.neighbors(best)) | {best}
    return require_dominating_set(graph, chosen, "weighted greedy")


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
    delta_tilde = max((d for _, d in graph.degree()), default=0) + 1
    ledger = CostLedger()
    grid = TransmittableGrid.for_n(n)

    w = {v: float(weights.get(v, 1.0)) for v in graph.nodes()}
    lp_instance = CoveringInstance.from_graph(
        graph, {v: 0.0 for v in graph.nodes()}, weights=w
    )
    lp = solve_covering_lp(lp_instance)
    values = repair_feasibility(graph, lp.values)
    # Weighted raising: lifting by lambda costs sum_v w_v * lambda; keep the
    # lift proportional to the LP weight so the factor stays (1 + raise).
    total_weight = ltr_sum(np.fromiter(w.values(), float, len(w)))
    lam = raise_fraction * max(lp.optimum, 1e-9) / max(total_weight, 1e-9)
    lam = min(lam, 1.0 / (2.0 * delta_tilde))
    values = {v: max(x, lam) for v, x in values.items()}

    base = CoveringInstance.from_graph(graph, values, weights=w)
    pruned = base.prune_to_cover(max_members=None)
    scheme = one_shot_scheme(pruned, delta_tilde, quantize=grid.up)

    participating = set(scheme.participating())
    coloring = bipartite_distance2_coloring(
        scheme.instance, restrict=participating, n_network=n
    )
    ledger.charge("lemma3.12-coloring", coloring.charged_rounds)

    cfg = config or EstimatorConfig(mode="exact-product")
    result = derandomized_rounding_with_coloring(scheme, coloring.colors, cfg)
    ledger.charge("lemma3.10-color-loop", ROUNDS_PER_COLOR * max(1, coloring.num_colors))

    ds = {
        v for v, x in result.outcome.projected.items() if x >= 1.0 - 1e-9
    }
    require_dominating_set(graph, ds, "weighted one-shot output")
    return WeightedMDSResult(
        dominating_set=ds,
        weight=ltr_sum(np.fromiter((w[v] for v in ds), float, len(ds))),
        lp_optimum=lp.optimum,
        num_colors=coloring.num_colors,
        ledger=ledger,
    )
