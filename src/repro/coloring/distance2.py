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
from repro.congest.network import Network, csr_row_slots
from repro.domsets.covering import CoveringInstance
from repro.errors import ColoringError
from repro.graphs.powers import square_graph
from repro.util.mathx import log_star

if TYPE_CHECKING:
    import networkx as nx
    from scipy import sparse


#: Most flags one round's :func:`_smallest_missing` table holds (4 MB).
_TABLE_CELLS = 1 << 22

#: The color of a row first-fit has not colored yet, above every color.
_UNCOLORED = np.iinfo(np.int64).max


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
    ``nodes`` names the rows in the error message.

    The colors are computed in priority rounds (Jones and Plassmann,
    SIAM J. Sci. Comput. 14(3), 1993, with the row index as the
    priority): once every earlier conflict of a row has a color, the row
    takes the smallest color they left.  Sequential first-fit gives row
    ``v`` exactly that color, the smallest one missing among its earlier
    conflicts, so by induction on ``v`` the rounds reproduce it; the rows
    of one round share no conflict.  A round costs the entries of its
    rows.  There are as many rounds as the longest chain of conflicts
    with ascending rows has rows, so a matrix of independent blocks takes
    the rounds of its longest block.

    The check covers every listed conflict, in either row, and every row:
    a conflict one row lists and the other does not breaks the symmetry
    the rounds rely on, and raises instead of returning a coloring."""
    indptr, indices = conflicts.indptr, conflicts.indices
    m = conflicts.shape[0]
    lengths = np.diff(indptr)
    rows = np.repeat(np.arange(m), lengths)
    earlier = indices < rows
    # Per row, the earlier conflicts without a color yet (a colored row's
    # count no longer matters).
    pending = np.bincount(rows[earlier], minlength=m)
    colors = np.full(m, _UNCOLORED, dtype=np.int64)
    used = 0
    ready = np.flatnonzero(pending == 0)
    while ready.size:
        counts = lengths[ready]
        # A row's color is at most its count of colored peers, so at most
        # its count and at most ``used``: every color lies below ``width``.
        width = min(used, int(counts.max())) + 1
        # Rows past the table's bound wait for the next round, still ready.
        block = max(1, _TABLE_CELLS // (width + 1))
        ready, deferred, counts = ready[:block], ready[block:], counts[:block]
        owner = np.repeat(np.arange(ready.size), counts)
        peers = indices[csr_row_slots(indptr, lengths, ready)]
        seen = colors[peers]
        new = _smallest_missing(seen, owner, ready.size, width)
        colors[ready] = new
        used = max(used, int(new.max()) + 1)
        # The uncolored peers of the rows colored now, their later
        # conflicts and themselves, each wait on one fewer.
        waiting = peers[seen == _UNCOLORED]
        np.subtract.at(pending, waiting, 1)
        freed = np.unique(waiting[pending[waiting] == 0])
        ready = np.concatenate((deferred, freed)) if deferred.size else freed
    uncolored = np.flatnonzero(colors == _UNCOLORED)
    if uncolored.size:
        raise ColoringError(
            f"node {nodes[uncolored[0]]} waits on a conflict that does not "
            "list it: the conflicts are not symmetric"
        )
    clash = np.flatnonzero((colors[rows] == colors[indices]) & (rows != indices))
    if clash.size:
        u, v = sorted((rows[clash[0]], indices[clash[0]]))
        raise ColoringError(
            f"edge ({nodes[u]}, {nodes[v]}) is monochromatic with color {colors[v]}"
        )
    return colors.tolist(), int(np.count_nonzero(earlier))


def _smallest_missing(
    seen: np.ndarray, owner: np.ndarray, n_rows: int, width: int
) -> np.ndarray:
    """Per row, the smallest color its ``seen`` entries miss, known to lie
    below ``width``.

    ``owner`` names the row of each entry.  Row ``i`` marks its colors in
    row ``i`` of a boolean table of ``width + 1`` columns, uncolored
    entries (:data:`_UNCOLORED`) and colors of ``width`` or more in the
    last one, and its answer is its first clear column.
    """
    stride = width + 1
    taken = np.zeros(n_rows * stride, dtype=bool)
    taken[owner * stride + np.minimum(seen, width)] = True
    return taken.reshape(n_rows, stride).argmin(axis=1)


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
