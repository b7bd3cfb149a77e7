"""LP relaxation of minimum dominating set / generic covering instances.

``min sum w(u) x(u)`` subject to ``sum_{u in members(v)} x(u) >= c(v)`` and
``0 <= x <= 1``, solved through ``scipy.optimize.linprog`` on a sparse
constraint matrix with HiGHS's interior-point method followed by crossover
(``method="highs-ipm"``; crossover is its default).  Crossover ends at a
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

    def fractionality(self, tol: float = 1e-9) -> float:
        nonzero = [x for x in self.values.values() if x > tol]
        return min(nonzero) if nonzero else float("inf")


def solve_covering_lp(instance: CoveringInstance) -> LPSolution:
    """Solve the covering LP of a :class:`CoveringInstance` exactly.

    Rows are the constraints and columns the variables, each in ascending
    id.  An instance without variables is solved here: optimum 0 unless a
    demand is positive, which makes it infeasible.
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
    columns = np.argsort(instance.ids, kind="stable")
    rows = np.argsort(instance.cids, kind="stable")
    column_of = np.empty_like(columns)
    column_of[columns] = np.arange(len(columns))
    row_of = np.empty_like(rows)
    row_of[rows] = np.arange(len(rows))
    a_ub = sparse.csr_matrix(
        (np.full(len(instance.members), -1.0),
         (row_of[instance.entry_rows], column_of[instance.members])),
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
