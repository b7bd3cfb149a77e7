"""Corollary 1.3: the LOCAL-model variant of the coloring route.

"By substituting a vertex coloring subroutine in the algorithm of
Theorem 1.2 by its LOCAL model counterpart this directly also leads to an
improved and slightly more efficient deterministic distributed MDS
algorithm in the LOCAL model": the pipeline is identical — only the
distance-2 coloring subroutine is charged at the LOCAL rate
``O(Delta_L Delta_R + log* n)`` (the ``log* n`` term is paid once instead
of ``Delta_L`` times), giving ``O(Delta polylog Delta + log* n)`` rounds.

The computed dominating set is *identical* to the CONGEST route's — the
derandomization itself never exploited the bandwidth bound — so the LOCAL
route is realized by threading ``model="local"`` through the rounding
steps; only the ledger differs, exactly how the paper states the corollary.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from repro.derand.estimators import EstimatorConfig
from repro.mds.deterministic import run_coloring_route
from repro.mds.pipeline import MDSResult, PipelineParams
from repro.util.mathx import log_star

if TYPE_CHECKING:
    import networkx as nx


def approx_mds_local(
    graph: nx.Graph,
    eps: float = 0.5,
    params: PipelineParams | None = None,
    estimator: EstimatorConfig | None = None,
) -> MDSResult:
    """Corollary 1.3: ``(1+eps) ln(Delta+1)``-approximate MDS in the LOCAL
    model in ``O(Delta polylog Delta + log* n)`` rounds."""
    return run_coloring_route(
        graph, params or PipelineParams(eps=eps), estimator, "local", "local"
    )


def corollary13_round_formula(n: int, delta: int, eps: float) -> int:
    """``O(Delta polylog Delta + log* n)`` with unit constants."""
    log_delta = max(1.0, math.log2(max(2, delta)))
    return int(math.ceil(delta * log_delta ** 2 / (eps * eps))) + log_star(max(2, n))
