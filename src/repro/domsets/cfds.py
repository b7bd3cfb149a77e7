"""Constrained fractional dominating sets (Definition 2.1).

A CFDS assigns each node ``v`` a fractional value ``x(v) in [0, 1]`` and a
constraint ``c(v) in [0, 1]``; feasibility demands
``sum_{u in N(v)} x(u) >= c(v)`` for every node, with ``N(v)`` the
*inclusive* neighborhood.  A fractional dominating set (FDS) is the special
case ``c == 1``; an integral FDS is a dominating set in the classical sense.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Mapping, Set, Tuple

import numpy as np

from repro.domsets.covering import FEASIBILITY_TOL, ltr_sum
from repro.errors import InfeasibleSolutionError
from repro.graphs.normalize import require_normalized

if TYPE_CHECKING:
    import networkx as nx


def fractionality_of(values: Mapping[int, float], tol: float = 1e-15) -> float:
    """Smallest non-zero value (``inf`` if all values are zero).

    The paper calls a solution ``lambda``-fractional when every non-zero
    value is at least ``lambda``.
    """
    nonzero = [x for x in values.values() if x > tol]
    return min(nonzero) if nonzero else float("inf")


@dataclass
class CFDS:
    """A constrained fractional dominating set on a normalized graph.

    Values and constraints default to 0 / 1 respectively for missing nodes.
    """

    graph: nx.Graph
    values: Dict[int, float] = field(default_factory=dict)
    constraints: Dict[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        require_normalized(self.graph)
        self.values = {
            v: float(self.values.get(v, 0.0)) for v in self.graph.nodes()
        }
        self.constraints = {
            v: float(self.constraints.get(v, 1.0)) for v in self.graph.nodes()
        }
        for v, x in self.values.items():
            if not -FEASIBILITY_TOL <= x <= 1.0 + FEASIBILITY_TOL:
                raise InfeasibleSolutionError(f"value x({v}) = {x} outside [0, 1]")
        for v, c in self.constraints.items():
            if not -FEASIBILITY_TOL <= c <= 1.0 + FEASIBILITY_TOL:
                raise InfeasibleSolutionError(f"constraint c({v}) = {c} outside [0, 1]")

    # -- constructors -------------------------------------------------------

    @classmethod
    def fds(cls, graph: nx.Graph, values: Mapping[int, float]) -> "CFDS":
        """Fractional dominating set: all constraints are 1."""
        return cls(graph, dict(values), {v: 1.0 for v in graph.nodes()})

    @classmethod
    def from_set(cls, graph: nx.Graph, nodes: Iterable[int]) -> "CFDS":
        """Integral FDS from a vertex set."""
        chosen = set(nodes)
        return cls.fds(graph, {v: (1.0 if v in chosen else 0.0) for v in graph.nodes()})

    # -- accessors ----------------------------------------------------------

    @property
    def size(self) -> float:
        """Total value ``sum_v x(v)`` (the paper's CFDS size)."""
        return ltr_sum(np.fromiter(self.values.values(), float, len(self.values)))

    @property
    def fractionality(self) -> float:
        """Smallest non-zero value."""
        return fractionality_of(self.values)

    def coverage(self, v: int) -> float:
        """``sum_{u in N(v)} x(u)`` over the inclusive neighborhood."""
        total = self.values[v]
        for u in self.graph.neighbors(v):
            total += self.values[u]
        return total

    def slack(self, v: int) -> float:
        """``coverage(v) - c(v)`` (negative = violated)."""
        return self.coverage(v) - self.constraints[v]

    def violations(self, tol: float = FEASIBILITY_TOL) -> List[Tuple[int, float]]:
        """All ``(node, slack)`` pairs with negative slack."""
        out = []
        for v in self.graph.nodes():
            s = self.slack(v)
            if s < -tol:
                out.append((v, s))
        return out

    def is_feasible(self, tol: float = FEASIBILITY_TOL) -> bool:
        return not self.violations(tol)

    def require_feasible(self, what: str = "CFDS", tol: float = FEASIBILITY_TOL) -> None:
        bad = self.violations(tol)
        if bad:
            worst = min(bad, key=lambda t: t[1])
            raise InfeasibleSolutionError(
                f"{what} infeasible at {len(bad)} nodes; worst: node "
                f"{worst[0]} slack {worst[1]:.3g}"
            )

    # -- integrality --------------------------------------------------------

    def is_integral(self, tol: float = 1e-9) -> bool:
        return all(x <= tol or x >= 1.0 - tol for x in self.values.values())

    def support(self, tol: float = 1e-15) -> Set[int]:
        """Nodes with non-zero value."""
        return {v for v, x in self.values.items() if x > tol}

    def integral_set(self, tol: float = 1e-9) -> Set[int]:
        """The vertex set of an integral solution.

        Raises :class:`InfeasibleSolutionError` if any value is fractional.
        """
        if not self.is_integral(tol):
            raise InfeasibleSolutionError("solution is not integral")
        return {v for v, x in self.values.items() if x >= 1.0 - tol}

    # -- transforms ---------------------------------------------------------

    def scaled(self, factor: float, cap: float = 1.0) -> "CFDS":
        """New CFDS with values ``min(cap, factor * x(v))``."""
        return CFDS(
            self.graph,
            {v: min(cap, factor * x) for v, x in self.values.items()},
            dict(self.constraints),
        )

    def with_values(self, values: Mapping[int, float]) -> "CFDS":
        """New CFDS with the same graph/constraints and different values."""
        return CFDS(self.graph, dict(values), dict(self.constraints))

    def copy(self) -> "CFDS":
        return CFDS(self.graph, dict(self.values), dict(self.constraints))
