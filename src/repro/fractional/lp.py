"""LP relaxation of minimum dominating set / generic covering instances.

``min sum w(u) x(u)`` subject to ``sum_{u in members(v)} x(u) >= c(v)`` and
``0 <= x <= 1``, solved through ``scipy.optimize.linprog`` on a sparse
matrix of the constraints no other constraint implies (see below), with
HiGHS's interior-point method followed by crossover (``method="highs-ipm"``;
crossover is its default).  Crossover ends at a
basic optimal solution, so the optimum is the one simplex reaches and the
solution is a vertex, though not always the vertex dual simplex picks.
The LP optimum lower-bounds the integral optimum, so every experiment
reports approximation ratios against it (exact OPT is also available for
small instances via :mod:`repro.baselines.exact`).

Interior point, because dual simplex degenerates on the covering LPs of
symmetric graphs.  n = 1000, dual simplex -> interior point, best of 3,
mean over 3 seeds, one CPU: grid 1277 -> 41 ms, regular 2543 -> 170 ms,
gnp-dense 866 -> 213 ms, gnp 122 -> 65 ms, geometric 133 -> 95 ms, ba
99 -> 69 ms, caterpillar 10.9 -> 12.9 ms, tree 10.2 -> 20.9 ms.  On
regular-3000 dual simplex takes 208 s (21,608 iterations), this 3.5 s.
Either method takes a reduced cost within HiGHS's 1e-7 dual feasibility
tolerance as optimal, so weights that close to each other can cost that
much objective.
``scipy.optimize`` is imported on the first solve, not with this module.

Implied rows never reach HiGHS.  Row ``r`` goes when another row ``s`` has
``members(s) ⊆ members(r)`` and ``c(s) >= c(r)`` (with ``x >= 0``, the sum
over ``members(r)`` >= the sum over ``members(s)`` >= ``c(s)`` >= ``c(r)``);
of rows with equal members the one of highest demand, then lowest cid,
stays, and rows with ``c <= 0`` go, as ``x >= 0`` implies them.  One pass is
the fixed point: dropping a row changes no member set, and implication is
transitive and, with the tie-break, acyclic, so a kept row implies every
dropped one.  The polytope and optimum are unchanged; HiGHS may end on
another optimal vertex.  A member listed twice is a coefficient of 2, which
a test on member sets misses (rows (0, 0) and (0,) of demand 1 look equal,
and keeping (0, 0) alone gives 0.5, not 1), so a row with a repeated member
neither drops a row nor is dropped.  A row without members drops none: an
empty row of positive demand is kept, and HiGHS reports the LP infeasible.

Why it pays: every variable of a graph's covering LP sits in two or more
rows, and HiGHS's presolve removes nothing (suite gnp-1000, seed 1: "rows
1000(-0); columns 1000(-0); nonzeros 5028(-0) - Not reduced").  With the
implied rows gone, a leaf's variable sits in its own row only (its
support's row went), and the presolve removes such singleton columns and
what they settle: 908 kept rows become 512 rows x 768 columns there (98
singleton columns), and tree-1000's 686 become 60 x 91 (467).  The covering
LP at n = 1000, mean of seeds 1-4, best of 3, one pinned CPU, plain
``linprog(method="highs-ipm")`` on every row against this function::

    family       plain     this      change  rows implied (of 1000)
    gnp           32.6 ms   24.1 ms  -26%     87
    tree          12.3 ms    5.4 ms  -56%    313
    caterpillar    5.8 ms    3.9 ms  -32%    250
    geometric     56.5 ms   41.7 ms  -26%    300
    grid          23.6 ms   24.0 ms   +2%      0
    regular       85.4 ms   84.9 ms   -1%      0
    ba            33.2 ms   32.7 ms   -1%      4
    gnp-dense    139.9 ms  141.0 ms   +1%      0

The pass alone takes 0.1-1.1 ms on the suite at n = 300 and 1000 (seed 1),
at most 2.2% of a plain solve on grid, regular, ba and gnp-dense, and
memory in O(nnz) on any rows.  Dense rows, same measure (plain -> this,
the pass alone in brackets): clique-300 32.6 -> 5.7 ms (3.7 ms), a dumbbell
of two 150-cliques 16.8 -> 4.2 ms (1.9 ms), K_{150,150} 30.8 -> 32.6 ms
(1.2 ms), G(300, 0.3) 54.9 -> 55.7 ms (0.7 ms), star-10000 49.0 -> 24.1 ms
(2.0 ms).  Why twins first and chunks: testing every candidate pair at once
needs about n^3 entries on a clique (8 GB per array at n = 1000), and a
sparse overlap product ``M @ M.T`` costs the sum of squared member counts
(5.8 s on star-10000).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict

import numpy as np

from repro.congest.network import Network
from repro.domsets.covering import CoveringInstance
from repro.errors import LPError, LPInfeasibleError

if TYPE_CHECKING:
    import networkx as nx

#: HiGHS status codes as ``linprog`` and ``milp`` report them.  Infeasibility
#: is a fact about the instance and gets its own error type; everything else
#: is a solver failure the certification oracle may fall back from.
HIGHS_STATUS = {
    0: "optimal",
    1: "iteration_limit",
    2: "infeasible",
    3: "unbounded",
    4: "numerical",
}


@dataclass(frozen=True)
class LPSolution:
    """A feasible fractional covering solution and its objective value."""

    values: Dict[int, float]
    optimum: float


def _kept_rows(instance: CoveringInstance) -> np.ndarray:
    """Boolean mask of the constraint rows that no other row implies (the
    rule is in the module docstring).

    A containment test looks members up in the sorted ``(member, row)`` keys
    of all entries.  Twins, rows with the same members, go first: ordered by
    length, a 64-bit sum of hashed members, demand down and cid up, a row
    equal to the row before it goes.  Only a collision of those sums between
    rows of one length can keep a twin, which leaves the polytope as it is.
    A longer row that holds a row left holds its rarest member, so the rows
    holding that member are its candidates, screened by length, demand and a
    64-bit member signature.  Candidates come in chunks, and lookups in
    sweeps, of about nnz (the entries of the matrix) each, so memory stays
    O(nnz) whatever the rows are.
    """
    indptr, members, c, cids = instance.indptr, instance.members, instance.c, instance.cids
    height, width, nnz = len(c), len(instance.ids), len(members)
    lengths = np.diff(indptr)
    keys = np.sort(members * height + instance.entry_rows)
    holder = keys % height
    repeated = np.zeros(height, dtype=bool)
    repeated[holder[1:][keys[1:] == keys[:-1]]] = True
    kept = c > 0.0
    filled = lengths > 0
    open_rows = kept & ~repeated & filled  # the rows that may drop or be dropped

    def contained(s: np.ndarray, r: np.ndarray) -> np.ndarray:
        """Whether row ``r[i]`` holds every member of row ``s[i]``.  Each sweep
        looks up the next members of the pairs still undecided, as many as
        all sweeps before (at most about nnz lookups), so a pair costs at
        most about twice the members it takes to decide it."""
        held = np.ones(len(s), dtype=bool)
        todo, k = np.arange(len(s)), 0
        while len(todo := todo[lengths[s[todo]] > k]):
            step = max(1, min(k + 1, nnz // len(todo)))
            subset = s[todo]
            size = np.minimum(lengths[subset] - k, step)
            pair = np.repeat(todo, size)
            base = indptr[subset] + k - np.cumsum(size) + size
            query = members[np.arange(len(pair)) + np.repeat(base, size)] * height + r[pair]
            # Searching keys[:-1] keeps the index in range; the last key still compares.
            held[pair[keys[np.searchsorted(keys[:-1], query)] != query]] = False
            todo, k = todo[held[todo]], k + step
        return held

    mixed = (members.astype(np.uint64) + np.uint64(1)) * np.uint64(0x9E3779B97F4A7C15)
    mixed ^= mixed >> np.uint64(29)
    running = np.concatenate((np.zeros(1, np.uint64), np.cumsum(mixed, dtype=np.uint64)))
    digest = running[indptr[1:]] - running[indptr[:-1]]
    rows = np.flatnonzero(open_rows)
    rows = rows[np.lexsort((cids[rows], -c[rows], digest[rows], lengths[rows]))]
    s, r = rows[:-1], rows[1:]
    same = (lengths[s] == lengths[r]) & (digest[s] == digest[r])
    twins = r[same][contained(s[same], r[same])]
    kept[twins] = open_rows[twins] = False

    counts = np.bincount(members, minlength=width)
    starts = indptr[:-1][filled]
    rarest = np.zeros(height, dtype=np.int64)
    rarest[filled] = np.minimum.reduceat(counts[members] * width + members, starts) % width
    signature = np.zeros(height, dtype=np.uint64)
    signature[filled] = np.bitwise_or.reduceat(
        np.left_shift(np.uint64(1), (members & 63).astype(np.uint64)), starts)
    source = np.flatnonzero(open_rows)
    size = counts[rarest[source]]
    first = (np.cumsum(counts) - counts)[rarest[source]]
    chunk = (np.cumsum(size) - size) // max(nnz, 1)
    cuts = [0, *(np.flatnonzero(np.diff(chunk)) + 1).tolist(), len(source)]
    for part in map(slice, cuts[:-1], cuts[1:]):
        s = np.repeat(source[part], size[part])
        base = first[part] - np.cumsum(size[part]) + size[part]
        r = holder[np.arange(len(s)) + np.repeat(base, size[part])]
        screen = (open_rows[r] & (lengths[r] > lengths[s]) & (c[r] <= c[s])
                  & ((signature[s] & ~signature[r]) == 0))
        kept[r[screen][contained(s[screen], r[screen])]] = False
    return kept


def solve_covering_lp(instance: CoveringInstance) -> LPSolution:
    """Solve the covering LP of a :class:`CoveringInstance` exactly.

    Rows are the constraints that no other row implies and columns the
    variables, each in ascending id.  An instance without variables is
    solved here: optimum 0 unless a demand is positive, which makes it
    infeasible.
    """
    from scipy import sparse
    from scipy.optimize import linprog

    if instance.num_vars == 0:
        if (instance.c > 0.0).any():
            raise LPInfeasibleError(
                "covering LP is infeasible: a positive demand has no variables",
                status=2,
            )
        return LPSolution(values={}, optimum=0.0)
    kept = _kept_rows(instance)
    columns = np.argsort(instance.ids, kind="stable")
    rows = np.argsort(instance.cids, kind="stable")
    rows = rows[kept[rows]]
    column_of = np.empty_like(columns)
    column_of[columns] = np.arange(len(columns))
    row_of = np.empty(len(kept), dtype=np.int64)
    row_of[rows] = np.arange(len(rows))
    entries = kept[instance.entry_rows]
    a_ub = sparse.csr_matrix(
        (np.full(int(entries.sum()), -1.0),
         (row_of[instance.entry_rows[entries]], column_of[instance.members[entries]])),
        shape=(len(rows), len(columns)),
    )
    result = linprog(
        c=instance.weight[columns],
        A_ub=a_ub,
        b_ub=-instance.c[rows],
        bounds=(0.0, 1.0),
        method="highs-ipm",
    )
    if not result.success:
        status = HIGHS_STATUS.get(result.status, f"status_{result.status}")
        error = LPInfeasibleError if result.status == 2 else LPError
        raise error(
            f"covering LP {status} (HiGHS status {result.status}): {result.message}",
            status=result.status,
        )
    x = result.x
    values = np.where(x > 0.0, x, 0.0)
    return LPSolution(
        values=dict(zip(instance.ids[columns].tolist(), values.tolist())),
        optimum=float(result.fun),
    )


def lp_fractional_mds(graph: nx.Graph | Network) -> LPSolution:
    """LP-optimal fractional dominating set of a graph (or its compiled
    :class:`~repro.congest.network.Network`).

    The returned values are nudged up slightly and clipped so the covering
    constraints hold with a strict margin despite solver tolerance (the
    downstream pruning step of Lemma 3.13 requires honest feasibility).
    """
    solution = solve_covering_lp(CoveringInstance.from_graph(graph, {}))
    ids = list(solution.values)
    x = np.array(list(solution.values.values()))
    safe = x * (1.0 + 1e-7) + np.where(x > 0, 1e-12, 0.0)
    safe = np.where(safe < 1.0, safe, 1.0)
    return LPSolution(values=dict(zip(ids, safe.tolist())), optimum=solution.optimum)
