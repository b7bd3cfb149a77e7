"""Network decompositions (Definitions 3.1 and 3.2).

The [GK18] CONGEST construction is substituted by deterministic sequential
ball carving with a doubling radius rule plus greedy conflict coloring; the
output satisfies the same interface and invariants Lemma 3.4 consumes
(partition into connected clusters with rooted low-diameter spanning trees,
same-color clusters pairwise ``k``-separated), and the CONGEST round cost of
the original construction is charged via
:func:`repro.congest.cost.gk18_decomposition_rounds` ("Charged stages" in
docs/architecture.md).
"""

from repro.decomposition.cluster_graph import (
    Cluster,
    NetworkDecomposition,
    validate_decomposition,
)
from repro.decomposition.ball_carving import carve_decomposition

__all__ = [
    "Cluster",
    "NetworkDecomposition",
    "validate_decomposition",
    "carve_decomposition",
]
