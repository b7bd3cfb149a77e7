"""repro — deterministic distributed dominating set approximation in the
CONGEST model.

A from-scratch reproduction of Deurer, Kuhn & Maus (PODC 2019,
arXiv:1905.10775): deterministic ``(1+eps)(1+ln(Delta+1))``-approximate
minimum dominating sets and ``O(log Delta)``-approximate connected
dominating sets via derandomized rounding, together with every substrate the
paper relies on (CONGEST simulator, fractional LP solvers, k-wise
independent randomness, network decompositions, distance-2 colorings,
spanners) and the baselines it is measured against.

Quickstart
----------
>>> from repro import approx_mds_coloring, greedy_mds
>>> from repro.graphs import gnp_graph
>>> g = gnp_graph(80, 0.08, seed=1)
>>> result = approx_mds_coloring(g, eps=0.5)
>>> len(result.dominating_set) <= len(greedy_mds(g)) * 3
True
"""

from repro.mds import (
    MDSResult,
    PipelineParams,
    approx_mds_coloring,
    approx_mds_decomposition,
    approx_mds_local,
    approx_mds_randomized,
)
from repro.cds import CDSResult, approx_cds
from repro.baselines import (
    exact_cds,
    exact_mds,
    greedy_mds,
    randomized_lp_rounding_mds,
)
from repro.fractional import kmw06_initial_fds, lp_fractional_mds
from repro.setcover import SetCoverInstance, approx_min_set_cover, greedy_set_cover
from repro.weighted import approx_weighted_mds
from repro.analysis import (
    is_connected_dominating_set,
    is_dominating_set,
)
from repro.domsets import CoveringInstance

#: 2.0.0: one batch planner (fixed ``batch_size`` chunking) and no
#: deprecation shims; grids are built with ``repro.api`` (see the
#: deprecation policy in docs/api.md).
__version__ = "2.0.0"

__all__ = [
    "MDSResult",
    "PipelineParams",
    "approx_mds_coloring",
    "approx_mds_decomposition",
    "approx_mds_local",
    "approx_mds_randomized",
    "CDSResult",
    "approx_cds",
    "greedy_mds",
    "exact_mds",
    "exact_cds",
    "randomized_lp_rounding_mds",
    "kmw06_initial_fds",
    "lp_fractional_mds",
    "SetCoverInstance",
    "approx_min_set_cover",
    "greedy_set_cover",
    "approx_weighted_mds",
    "is_dominating_set",
    "is_connected_dominating_set",
    "CoveringInstance",
    "__version__",
]
