"""Exact MDS as an integer linear program (HiGHS via ``scipy.optimize.milp``).

``min sum_v x_v`` subject to ``sum_{u in N[v]} x_u >= 1`` for every node
``v`` and ``x`` binary — the integral covering program whose relaxation
:mod:`repro.fractional.lp` already solves.  HiGHS branch-and-cut handles
the graph-zoo scale (n in the hundreds) in well under a second for most
families; a wall-clock ``time_limit_s`` bounds the hard instances, in
which case the incumbent (a feasible dominating set, hence an *upper*
bound on OPT) and the solver's remaining MIP gap are reported instead of
a proven optimum.

This is the middle rung of the certification ladder
(:func:`repro.oracle.certificate.certify`): above the budgeted
branch-and-bound of :mod:`repro.baselines.exact`, below the pure LP
lower bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import TYPE_CHECKING, FrozenSet, Optional

import numpy as np

from repro.analysis.verify import require_dominating_set
from repro.congest.network import closed_neighborhoods
from repro.errors import LPError
from repro.fractional.lp import HIGHS_STATUS
from repro.graphs.normalize import require_normalized

if TYPE_CHECKING:
    import networkx as nx


@dataclass(frozen=True)
class ILPSolution:
    """Outcome of one MDS ILP solve.

    ``nodes`` is the best dominating set found (``None`` when the solver
    produced no incumbent at all); ``optimum`` is its size.  ``proven``
    is ``True`` exactly when HiGHS closed the gap — otherwise ``optimum``
    is only an upper bound on OPT and ``mip_gap`` reports the remaining
    relative gap at the limit.
    """

    nodes: Optional[FrozenSet[int]]
    optimum: Optional[int]
    proven: bool
    status: str
    mip_gap: Optional[float]
    solve_wall_s: float


def solve_mds_ilp(graph: nx.Graph, time_limit_s: float = 10.0) -> ILPSolution:
    """Solve minimum dominating set exactly via HiGHS branch-and-cut.

    Raises :class:`~repro.errors.LPError` (with the HiGHS status code)
    when the solver reports infeasibility or a numerical failure — the
    domination ILP of a non-empty graph is always feasible (``x = 1``),
    so either outcome means the solve, not the instance, went wrong.
    """
    require_normalized(graph)
    n = graph.number_of_nodes()
    if n == 0:
        return ILPSolution(
            nodes=frozenset(),
            optimum=0,
            proven=True,
            status="optimal",
            mip_gap=0.0,
            solve_wall_s=0.0,
        )
    from scipy import sparse
    from scipy.optimize import Bounds, LinearConstraint, milp

    # Closed neighbourhoods are symmetric, so their CSR rows are the CSC
    # columns of the coverage matrix.
    indptr, indices = closed_neighborhoods(graph)
    coverage = sparse.csc_matrix(
        (np.ones(len(indices)), indices, indptr), shape=(n, n)
    )
    start = perf_counter()
    result = milp(
        c=np.ones(n),
        constraints=LinearConstraint(coverage, lb=1.0),
        integrality=np.ones(n),
        bounds=Bounds(0.0, 1.0),
        options={"time_limit": float(time_limit_s)},
    )
    wall = perf_counter() - start
    status = HIGHS_STATUS.get(result.status, f"status_{result.status}")
    if result.status in (2, 3, 4):
        raise LPError(
            f"MDS ILP solve failed ({status}, HiGHS status {result.status}): "
            f"{result.message}",
            status=result.status,
        )
    if result.x is None:
        # Time limit hit before any incumbent was found.
        return ILPSolution(
            nodes=None,
            optimum=None,
            proven=False,
            status="time_limit",
            mip_gap=None,
            solve_wall_s=wall,
        )
    chosen = frozenset(int(v) for v in np.flatnonzero(result.x > 0.5))
    require_dominating_set(graph, chosen, "ILP MDS incumbent")
    proven = result.status == 0
    gap = getattr(result, "mip_gap", None)
    return ILPSolution(
        nodes=chosen,
        optimum=len(chosen),
        proven=proven,
        status="optimal" if proven else "time_limit",
        mip_gap=float(gap) if gap is not None else None,
        solve_wall_s=wall,
    )
