"""Derandomization via network decompositions (Section 3.2, Lemma 3.4).

The engine's schedule is derived from a 2-hop network decomposition of the
graph: colors are processed in order; within one color class, the j-th
member of every cluster forms one simultaneous batch (clusters of the same
color are 2-separated, so their inclusive neighborhoods — hence the
constraints their members touch — are disjoint, exactly the paper's "bits of
distinct clusters with the same color can be fixed at the same time").
Within a cluster, members are fixed sequentially in ID order, mirroring the
per-cluster seed-bit fixing.  One coin per member substitutes the seed: it
is a seed of one symbol per member, whose coins are fully independent, so
the expectation Lemma 3.4 bounds is the same and fixing each coin by
conditional expectation never raises it.
:class:`~repro.derand.seed_level.SeedLevelDerandomizer` fixes the k-wise
seeds themselves.

Round accounting per the paper: fixing one coin costs one aggregation over
the cluster tree (O(depth) rounds), clusters of one color run in parallel,
and constructing the decomposition is charged at the [GK18] rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping

import networkx as nx

from repro.congest.cost import CostLedger, gk18_decomposition_rounds
from repro.congest.network import Network
from repro.decomposition.ball_carving import carve_decomposition
from repro.decomposition.cluster_graph import NetworkDecomposition
from repro.derand.conditional import ConditionalExpectationEngine, DerandResult
from repro.derand.estimators import EstimatorConfig
from repro.domsets.covering import CoveringInstance
from repro.errors import DerandomizationError
from repro.rounding.abstract import RoundingScheme
from repro.rounding.schemes import factor_two_scheme, one_shot_scheme
from repro.util.transmittable import TransmittableGrid


@dataclass
class DecompositionDerandOutput:
    """Result of one decomposition-route rounding step."""

    values: Dict[int, float]
    result: DerandResult
    decomposition: NetworkDecomposition
    ledger: CostLedger
    scheme_name: str


def schedule_from_decomposition(
    scheme: RoundingScheme, decomposition: NetworkDecomposition
) -> List[List[int]]:
    """Batches: per color, the j-th participating member of every cluster.

    Participating variables must be graph nodes (the scheme's instance must
    come from :meth:`CoveringInstance.from_graph`, where variable ids are
    node ids), since cluster membership is by node.
    """
    participants = set(scheme.participating())
    placed = set()
    schedule: List[List[int]] = []
    for color_class in decomposition.color_classes():
        member_lists = []
        for cluster in color_class:
            inside = sorted(u for u in cluster.members if u in participants)
            if inside:
                member_lists.append(inside)
            placed.update(inside)
        longest = max((len(lst) for lst in member_lists), default=0)
        for j in range(longest):
            batch = [lst[j] for lst in member_lists if j < len(lst)]
            if batch:
                schedule.append(sorted(batch))
    missing = participants - placed
    if missing:
        raise DerandomizationError(
            f"{len(missing)} participating variables not covered by the "
            f"decomposition (e.g. {sorted(missing)[:5]}); variable ids must "
            "be graph node ids"
        )
    return schedule


def charge_cluster_loop(
    ledger: CostLedger,
    scheme: RoundingScheme,
    decomposition: NetworkDecomposition,
) -> None:
    """Charge the Lemma 3.4 seed-fixing cost: per color, the largest
    per-cluster coin count times one tree aggregation (2*depth + 2)."""
    participants = set(scheme.participating())
    total = 0
    for color_class in decomposition.color_classes():
        worst = 0
        for cluster in color_class:
            coins = sum(1 for u in cluster.members if u in participants)
            cost = coins * (2 * cluster.depth + 2)
            worst = max(worst, cost)
        total += worst
    ledger.charge("lemma3.4-seed-fixing", total)


def derandomized_rounding_with_decomposition(
    scheme: RoundingScheme,
    decomposition: NetworkDecomposition,
    config: EstimatorConfig | None = None,
) -> DerandResult:
    """Lemma 3.4: run the engine over the decomposition-derived schedule."""
    engine = ConditionalExpectationEngine(scheme, config)
    return engine.run(schedule_from_decomposition(scheme, decomposition))


def _prepare(graph: nx.Graph | Network, decomposition: NetworkDecomposition | None,
             ledger: CostLedger) -> NetworkDecomposition:
    if isinstance(graph, Network):
        graph = graph.graph
    if decomposition is None:
        decomposition = carve_decomposition(graph, separation_k=2)
    ledger.charge(
        "gk18-decomposition",
        gk18_decomposition_rounds(graph.number_of_nodes(), k=2),
    )
    return decomposition


def one_shot_via_decomposition(
    graph: nx.Graph | Network,
    values: Mapping[int, float],
    decomposition: NetworkDecomposition | None = None,
    config: EstimatorConfig | None = None,
    grid: TransmittableGrid | None = None,
) -> DecompositionDerandOutput:
    """Lemma 3.8: deterministic one-shot rounding, decomposition route.

    Output: an integral dominating set of size at most
    ``ln(Delta~) A + n/Delta~`` plus quantization slack.  ``graph`` is an
    ``nx.Graph`` labelled ``0..n-1`` or its compiled
    :class:`~repro.congest.network.Network`.
    """
    base = CoveringInstance.from_graph(graph, values)
    n = base.num_vars
    grid = grid or TransmittableGrid.for_n(n)
    delta_tilde = max(1, base.max_constraint_degree)
    ledger = CostLedger()
    decomposition = _prepare(graph, decomposition, ledger)

    scheme = one_shot_scheme(base, delta_tilde, quantize=grid.up)

    cfg = config or EstimatorConfig(mode="exact-product")
    result = derandomized_rounding_with_decomposition(scheme, decomposition, cfg)
    charge_cluster_loop(ledger, scheme, decomposition)
    ledger.charge("rounding-execution", 2)

    return DecompositionDerandOutput(
        values=result.outcome.projected,
        result=result,
        decomposition=decomposition,
        ledger=ledger,
        scheme_name="one-shot/decomposition",
    )


def factor_two_via_decomposition(
    graph: nx.Graph | Network,
    values: Mapping[int, float],
    eps: float,
    r: float,
    decomposition: NetworkDecomposition | None = None,
    config: EstimatorConfig | None = None,
    grid: TransmittableGrid | None = None,
) -> DecompositionDerandOutput:
    """Lemma 3.9: deterministic factor-two rounding, decomposition route.

    Doubles the fractionality ``1/r -> 2/r`` at a ``(1+eps)`` size factor
    plus the uncovered-probability penalty (``n/Delta~^4`` when ``r >= 256
    eps^-3 ln Delta~``; the Chernoff estimator realizes whatever the actual
    instance admits).  ``graph`` is an ``nx.Graph`` labelled ``0..n-1`` or
    its compiled :class:`~repro.congest.network.Network`.
    """
    base = CoveringInstance.from_graph(graph, values)
    grid = grid or TransmittableGrid.for_n(base.num_vars)
    ledger = CostLedger()
    decomposition = _prepare(graph, decomposition, ledger)

    scheme = factor_two_scheme(base, eps, r, quantize=grid.up)

    cfg = config or EstimatorConfig(mode="chernoff")
    result = derandomized_rounding_with_decomposition(scheme, decomposition, cfg)
    charge_cluster_loop(ledger, scheme, decomposition)
    ledger.charge("rounding-execution", 2)

    return DecompositionDerandOutput(
        values=result.outcome.projected,
        result=result,
        decomposition=decomposition,
        ledger=ledger,
        scheme_name="factor-two/decomposition",
    )


def charged_rounds_formula_theorem11(n: int, delta: int, eps: float) -> int:
    """The Theorem 1.1 round bound ``O(eps^-4 log^2 Delta) +
    2^O(sqrt(log n log log n))`` with unit constants."""
    log_delta = max(1.0, math.log2(max(2, delta)))
    return int(
        math.ceil(log_delta ** 2 / eps ** 4)
    ) + gk18_decomposition_rounds(n, k=2)
