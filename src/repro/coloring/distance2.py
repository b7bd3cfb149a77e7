"""Distance-2 colorings.

A coloring of a node subset ``S`` is *distance-2* if any two same-colored
nodes of ``S`` are at graph distance greater than 2.  Lemma 3.10 consumes a
distance-2 coloring of the participating variables; Lemma 3.12 provides one
for the right-hand side of a bipartite graph with ``Delta_L * Delta_R``
colors in ``O(Delta_L Delta_R + Delta_L log* n)`` rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Set, Tuple

import numpy as np

from repro.congest.cost import bek15_coloring_rounds
from repro.congest.network import Network
from repro.domsets.covering import CoveringInstance
from repro.errors import ColoringError
from repro.graphs.powers import square_graph
from repro.util.mathx import log_star

if TYPE_CHECKING:
    import networkx as nx
    from scipy import sparse


@dataclass(frozen=True)
class Distance2Coloring:
    """A distance-2 coloring plus its charged round cost.

    ``delta_l`` / ``delta_r`` record the bipartite degree parameters the
    Lemma 3.12 charge was computed from (0 when not applicable), so callers
    can re-derive the LOCAL-model cost (Corollary 1.3 pays ``log* n`` once
    instead of ``Delta_L`` times).
    """

    colors: Dict[int, int]
    num_colors: int
    charged_rounds: int
    conflict_edges: int
    delta_l: int = 0
    delta_r: int = 0

    def charged_rounds_for(self, model: str, n: int) -> int:
        """Charge under ``"congest"`` (default) or ``"local"``."""
        if model == "congest" or self.delta_l == 0:
            return self.charged_rounds
        if model != "local":
            raise ColoringError(f"unknown model {model!r}")
        return max(1, self.delta_l * self.delta_r + log_star(max(2, n)))


def distance2_coloring(
    graph: nx.Graph | Network, subset: Set[int] | None = None
) -> Distance2Coloring:
    """Distance-2 coloring of ``subset`` (default: all nodes) of ``graph``.

    ``graph`` is an ``nx.Graph`` labelled ``0..n-1`` or a
    :class:`~repro.congest.network.Network`, whose CSR arrays are used as
    they are (a :meth:`~repro.congest.network.Network.from_csr` network
    never builds its ``networkx`` view here).  The closed-neighbourhood
    matrix ``A + I`` is squared with one sparse product: entry ``(u, v)``
    counts the common closed neighbours, so it is nonzero iff
    ``d(u, v) <= 2``.  Restricted to ``subset``, its off-diagonal entries
    are the conflict graph, which is colored first-fit in ascending id
    (the :func:`~repro.coloring.greedy.greedy_coloring` order) and checked
    for properness.
    """
    from scipy import sparse

    network = graph if isinstance(graph, Network) else Network(graph)
    n = network.n
    nodes = np.arange(n)
    if subset is not None:
        missing = set(subset).difference(range(n))
        if missing:
            raise ColoringError(f"subset nodes {sorted(missing)[:5]} not in graph")
        nodes = np.array(sorted(subset), dtype=np.int64)
    indptr, indices = network.closed_csr()
    closed = sparse.csr_matrix(
        (np.ones(len(indices), dtype=np.int64), indices, indptr), shape=(n, n)
    )
    # A count is at most n, so int64 cannot wrap.  A narrow dtype can wrap
    # to 0, and the product drops zero entries: a conflict would vanish.
    square = closed @ closed
    if subset is not None:
        square = square[nodes][:, nodes]
    first_fit, conflict_edges = _first_fit(square, nodes)
    # Every row of the square holds its diagonal entry.
    max_deg = int(np.diff(square.indptr).max()) - 1 if len(nodes) else 0
    return Distance2Coloring(
        colors=dict(zip(nodes.tolist(), first_fit)),
        num_colors=len(set(first_fit)),
        charged_rounds=bek15_coloring_rounds(max_deg + 1, n, n),
        conflict_edges=conflict_edges,
    )


def _first_fit(conflicts: sparse.csr_matrix, nodes: np.ndarray) -> Tuple[List[int], int]:
    """First-fit coloring in row order of the symmetric matrix whose
    off-diagonal nonzeros are the conflicts (the
    :func:`~repro.coloring.greedy.greedy_coloring` order when rows ascend by
    id), checked for properness; returns the colors and the conflict count.
    Each row is read as a set, so its column order does not matter.
    ``nodes`` names the rows in the error message."""
    indptr, indices = conflicts.indptr, conflicts.indices
    rows = np.repeat(np.arange(conflicts.shape[0]), np.diff(indptr))
    # Row v's entries below the diagonal: v's conflicts among the earlier
    # rows, which first-fit has colored before v.
    lower = indices < rows
    later, earlier = rows[lower], indices[lower]
    ptr = np.concatenate(([0], np.cumsum(lower)))[indptr].tolist()
    idx = earlier.tolist()
    first_fit: List[int] = []
    for v in range(conflicts.shape[0]):
        taken = {first_fit[u] for u in idx[ptr[v]:ptr[v + 1]]}
        color = 0
        while color in taken:
            color += 1
        first_fit.append(color)
    colors = np.array(first_fit, dtype=np.int64)
    clash = np.flatnonzero(colors[later] == colors[earlier])
    if clash.size:
        u, v = earlier[clash[0]], later[clash[0]]
        raise ColoringError(
            f"edge ({nodes[u]}, {nodes[v]}) is monochromatic with color {colors[v]}"
        )
    return first_fit, int(earlier.size)


def bipartite_distance2_coloring(
    instance: CoveringInstance,
    restrict: Set[int] | None = None,
    n_network: int | None = None,
) -> Distance2Coloring:
    """Lemma 3.12: distance-2 coloring of the value side of ``B``.

    Two value variables conflict iff they share a constraint (equivalently,
    they are at distance 2 in the bipartite graph): the off-diagonal
    nonzeros of ``M^T M`` for the incidence columns ``M`` of the ``restrict``
    ids (default: every variable).  First-fit in ascending id, as
    :func:`distance2_coloring` colors, uses at most ``Delta_L * Delta_R``
    colors, matching the lemma; rounds are charged as
    ``O(Delta_L Delta_R + Delta_L log* n)`` per the lemma statement.
    """
    if restrict is None:
        ids = np.sort(instance.ids)
    else:
        ids = np.array(sorted(restrict), dtype=np.int64)
        unknown = ids[instance.rows_of(ids.tolist()) < 0]
        if unknown.size:
            raise ColoringError(
                f"restrict ids {unknown[:5].tolist()} are not value variables"
            )
    # Columns of the participating variables in ascending id; M^T M counts
    # the constraints two of them share.
    incidence = instance.incidence().tocsc()[:, instance.rows_of(ids.tolist())]
    first_fit, conflict_edges = _first_fit((incidence.T @ incidence).tocsr(), ids)
    num = len(set(first_fit))
    delta_l = instance.max_constraint_degree
    delta_r = instance.max_var_degree
    bound = delta_l * delta_r
    if num > max(1, bound):
        raise ColoringError(
            f"bipartite distance-2 coloring used {num} colors, exceeding the "
            f"Lemma 3.12 bound Delta_L*Delta_R = {bound}"
        )
    n = n_network if n_network is not None else max(instance.num_vars, 2)
    # Lemma 3.12 (CONGEST): O(Delta_L Delta_R + Delta_L log* n) — simulating
    # one round of the conflict-graph coloring costs O(Delta_L) rounds in B.
    charged = max(1, bound + max(1, delta_l) * log_star(max(2, n)))
    return Distance2Coloring(
        colors=dict(zip(ids.tolist(), first_fit)),
        num_colors=num,
        charged_rounds=charged,
        conflict_edges=conflict_edges,
        delta_l=delta_l,
        delta_r=delta_r,
    )


def validate_distance2(graph: nx.Graph, colors: Dict[int, int]) -> None:
    """Assert that same-colored nodes are at distance > 2 in ``graph``."""
    sq = square_graph(graph)
    for u, v in sq.edges():
        if u in colors and v in colors and colors[u] == colors[v]:
            raise ColoringError(
                f"nodes {u} and {v} share color {colors[u]} at distance <= 2"
            )
