"""LP + independent randomized rounding baseline ([JRS02]/[KMW06] style).

Solve the dominating set LP, scale every value by ``ln(Delta~)``, round each
node into the set independently with that probability, then add every node
whose inclusive neighborhood stayed empty (the standard alteration step).
Expected size ``ln(Delta~) OPT_LP + n/Delta~`` — the randomized yardstick
whose *derandomization* is the paper's contribution.
"""

from __future__ import annotations

import math
import random
from typing import TYPE_CHECKING, Set

from repro.analysis.verify import require_dominating_set
from repro.fractional.lp import lp_fractional_mds
from repro.graphs.normalize import require_normalized

if TYPE_CHECKING:
    import networkx as nx


def randomized_lp_rounding_mds(
    graph: nx.Graph, seed: int = 0, boost: float | None = None
) -> Set[int]:
    """One run of the classic randomized rounding algorithm."""
    require_normalized(graph)
    if graph.number_of_nodes() == 0:
        return set()
    rng = random.Random(seed)
    delta_tilde = max((d for _, d in graph.degree()), default=0) + 1
    factor = boost if boost is not None else max(1.0, math.log(delta_tilde))
    lp = lp_fractional_mds(graph)

    chosen: Set[int] = set()
    for v in sorted(graph.nodes()):
        if rng.random() < min(1.0, factor * lp.values[v]):
            chosen.add(v)
    for v in sorted(graph.nodes()):
        if v in chosen:
            continue
        if not any(u in chosen for u in graph.neighbors(v)):
            chosen.add(v)  # alteration: self-cover leftover nodes
    return require_dominating_set(graph, chosen, "randomized LP rounding")
