"""The two deterministic CONGEST MDS algorithms.

:func:`approx_mds_decomposition` is Theorem 1.1 (runtime a function of
``n``): Part II/III rounding is derandomized inside the clusters of a 2-hop
network decomposition (Lemmas 3.4, 3.8, 3.9).

:func:`approx_mds_coloring` is Theorem 1.2 / Corollary 1.3 (runtime a
function of ``Delta``): rounding is derandomized through distance-2
colorings of the (pruned / split) bipartite representation (Lemmas 3.10,
3.12, 3.13, 3.14).

Both guarantee an ``(1+eps)(1 + ln(Delta+1))``-approximation; every call
verifies domination and the per-step estimator budgets.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from repro.congest.network import Network
from repro.decomposition.ball_carving import carve_decomposition
from repro.decomposition.cluster_graph import NetworkDecomposition
from repro.derand.coloring_based import (
    factor_two_via_coloring,
    one_shot_via_coloring,
)
from repro.derand.decomposition_based import (
    factor_two_via_decomposition,
    one_shot_via_decomposition,
)
from repro.derand.estimators import EstimatorConfig
from repro.mds.pipeline import MDSResult, PipelineParams, run_pipeline

if TYPE_CHECKING:
    import networkx as nx


def approx_mds_coloring(
    graph: nx.Graph,
    eps: float = 0.5,
    params: PipelineParams | None = None,
    estimator: EstimatorConfig | None = None,
) -> MDSResult:
    """Theorem 1.2: deterministic ``(1+eps)(1+ln(Delta+1))``-approximate MDS
    in ``O(Delta polylog Delta + polylog Delta log* n)`` CONGEST rounds."""
    params = params or PipelineParams(eps=eps)

    def factor_two_step(network: Network, values: Dict[int, float], eps2: float, r: float):
        out = factor_two_via_coloring(
            network,
            values,
            eps=eps2,
            r=r,
            constants_scale=params.constants_scale,
            config=estimator,
        )
        return out.values, out.ledger

    def one_shot_step(network: Network, values: Dict[int, float]):
        out = one_shot_via_coloring(network, values, config=estimator)
        return out.values, out.ledger

    return run_pipeline(
        graph, params, factor_two_step, one_shot_step, route="coloring"
    )


def approx_mds_decomposition(
    graph: nx.Graph,
    eps: float = 0.5,
    params: PipelineParams | None = None,
    decomposition: NetworkDecomposition | None = None,
    estimator: EstimatorConfig | None = None,
) -> MDSResult:
    """Theorem 1.1: deterministic ``(1+eps)(1+ln(Delta+1))``-approximate MDS
    in ``2^O(sqrt(log n log log n))`` CONGEST rounds.

    The same decomposition is reused across all rounding steps, as in the
    paper ("using the same network decomposition").
    """
    params = params or PipelineParams(eps=eps)
    shared = decomposition or carve_decomposition(graph, separation_k=2)

    def factor_two_step(network: Network, values: Dict[int, float], eps2: float, r: float):
        out = factor_two_via_decomposition(
            network, values, eps=eps2, r=r, decomposition=shared, config=estimator
        )
        return out.values, out.ledger

    def one_shot_step(network: Network, values: Dict[int, float]):
        out = one_shot_via_decomposition(
            network, values, decomposition=shared, config=estimator
        )
        return out.values, out.ledger

    return run_pipeline(
        graph, params, factor_two_step, one_shot_step, route="decomposition"
    )
