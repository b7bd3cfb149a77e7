"""Generic covering instances: the value-node / constraint-node view.

Section 3.3 of the paper replaces the graph ``G`` by its *bipartite
representation* ``B_G``: each node splits into a constraint node (left) and
a value node (right).  The derandomization lemmas then operate on modified
bipartite graphs ``B`` obtained by removing edges (Lemma 3.13) or splitting
constraint nodes (Lemma 3.14).  :class:`CoveringInstance` is exactly that
object: value variables carry fractional values (and objective weights, for
the Section 5 weighted generalization); constraints carry a demand ``c`` and
a member list of value variables.  Minimum set cover (Section 5) is the same
structure with sets as value variables and elements as constraints, so all
rounding machinery downstream of this module is problem-agnostic.

The instance is stored as arrays.  Value variables, in instance order, have
``ids``, ``x``, ``weight`` and ``origin``; constraints have ``cids``, ``c``,
``join_weight`` and ``corigin``.  Constraint row ``i`` has the members
``members[indptr[i]:indptr[i + 1]]`` (variable rows, in ascending id order
for every instance this module builds).  Transforms that only change values
share the structure arrays, which are read-only.  ``value_vars``,
``constraints`` and ``var_constraints`` are object views built on first
access.

Every sum that feeds a decision or an output adds left to right in member
order, as a loop of ``+=`` would: :func:`row_sums` (``np.bincount`` adds
each weight in stored order) or :func:`ltr_sum` (``np.cumsum``), never
``.sum()``, which numpy computes pairwise.

:meth:`CoveringInstance.from_graph` is the one model of Definition 2.1, the
constrained fractional dominating set: values and demands in ``[0, 1]``, and
every inclusive neighbourhood ``N(v)`` summing to at least its demand, which
:meth:`CoveringInstance.require_feasible` checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Mapping, Sequence, Tuple

import numpy as np

from repro.congest.network import Network, closed_neighborhoods
from repro.errors import InfeasibleSolutionError

if TYPE_CHECKING:
    import networkx as nx
    from scipy import sparse

#: Numerical slack for feasibility checks on float values.
FEASIBILITY_TOL = 1e-9


@dataclass(frozen=True)
class ValueVar:
    """A fractional variable (right-hand / ``U_R`` node of ``B``)."""

    id: int
    x: float
    origin: int
    weight: float = 1.0


@dataclass(frozen=True)
class Constraint:
    """A covering constraint (left-hand / ``U_L`` node of ``B``).

    ``members`` lists the value variables whose sum must reach ``c``.
    ``origin`` is the graph node (or set-cover element) whose coverage this
    constraint encodes; if the constraint ends up violated after rounding,
    *origin* joins the solution (phase two of the abstract process).
    ``join_weight`` is origin's objective cost of joining (1 if unweighted).
    """

    id: int
    c: float
    members: Tuple[int, ...]
    origin: int
    join_weight: float = 1.0


def row_sums(indptr: np.ndarray, data: np.ndarray) -> np.ndarray:
    """Each CSR row of ``data`` summed left to right from ``0.0``
    (``np.bincount`` adds every weight into its bin in stored order)."""
    rows = len(indptr) - 1
    owner = np.repeat(np.arange(rows), np.diff(indptr))
    # An empty bincount is int64.
    return np.bincount(owner, weights=data, minlength=rows).astype(np.float64, copy=False)


def ltr_sum(values: np.ndarray) -> float:
    """``values`` summed left to right from ``0.0``."""
    return float(np.cumsum(values)[-1]) if len(values) else 0.0


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def fractionality_of(values: Mapping[int, float], tol: float = 1e-15) -> float:
    """Smallest non-zero value (``inf`` if all values are zero).

    The paper calls a solution ``lambda``-fractional when every non-zero
    value is at least ``lambda``.
    """
    nonzero = [x for x in values.values() if x > tol]
    return min(nonzero) if nonzero else float("inf")


def _check_unit(values: np.ndarray, what: str) -> None:
    """Definition 2.1's range check: every entry within ``[0, 1]`` up to
    :data:`FEASIBILITY_TOL`."""
    bad = np.flatnonzero(
        ~((values >= -FEASIBILITY_TOL) & (values <= 1.0 + FEASIBILITY_TOL))
    )
    if bad.size:
        v = int(bad[0])
        raise InfeasibleSolutionError(
            f"{what}({v}) = {float(values[v])} outside [0, 1]"
        )


class CoveringInstance:
    """An immutable covering instance stored as arrays (see the module
    docstring for the layout)."""

    def __init__(
        self,
        value_vars: Sequence[ValueVar],
        constraints: Sequence[Constraint],
    ):
        ids = [v.id for v in value_vars]
        if len(set(ids)) != len(ids):
            raise InfeasibleSolutionError("duplicate value variable ids")
        if len({cn.id for cn in constraints}) != len(constraints):
            raise InfeasibleSolutionError("duplicate constraint ids")
        row = {u: i for i, u in enumerate(ids)}
        indptr, members = [0], []
        for cn in constraints:
            for u in cn.members:
                if u not in row:
                    raise InfeasibleSolutionError(
                        f"constraint {cn.id} references unknown variable {u}"
                    )
                members.append(row[u])
            indptr.append(len(members))
        self._fill(
            {},
            ids=np.array(ids, dtype=np.int64),
            x=np.array([v.x for v in value_vars], dtype=float),
            weight=np.array([v.weight for v in value_vars], dtype=float),
            origin=np.array([v.origin for v in value_vars], dtype=np.int64),
            cids=np.array([cn.id for cn in constraints], dtype=np.int64),
            c=np.array([cn.c for cn in constraints], dtype=float),
            join_weight=np.array([cn.join_weight for cn in constraints], dtype=float),
            corigin=np.array([cn.origin for cn in constraints], dtype=np.int64),
            indptr=np.array(indptr, dtype=np.int64),
            members=np.array(members, dtype=np.int64),
        )

    def _fill(self, shared: dict, **arrays: np.ndarray) -> "CoveringInstance":
        for name, array in arrays.items():
            setattr(self, name, _frozen(array))
        #: structure-only caches, shared by instances that differ in x only
        self._shared = shared
        return self

    def _derive(self, **changes: np.ndarray) -> "CoveringInstance":
        """A new instance with some arrays replaced; the structure caches
        carry over unless the member CSR changes."""
        fields = {
            name: getattr(self, name)
            for name in ("ids", "x", "weight", "origin", "cids", "c",
                         "join_weight", "corigin", "indptr", "members")
        }
        fields.update(changes)
        shared = {} if "members" in changes else self._shared
        return CoveringInstance.__new__(CoveringInstance)._fill(shared, **fields)

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_graph(
        cls,
        graph: nx.Graph | Network,
        values: Mapping[int, float],
        constraints: Mapping[int, float] | None = None,
        weights: Mapping[int, float] | None = None,
    ) -> "CoveringInstance":
        """The bipartite representation ``B_G`` of a graph CFDS
        (Definition 2.1).

        One value variable and one constraint per node; the constraint of
        ``v`` spans the inclusive neighborhood ``N(v)``, ``v`` once even if
        it has a self-loop.  ``graph`` is an ``nx.Graph`` labelled
        ``0..n-1`` or its compiled :class:`~repro.congest.network.Network`.
        A missing value is 0 and a missing demand 1; values and demands
        outside ``[0, 1]`` raise :class:`InfeasibleSolutionError`.
        """
        indptr, members = closed_neighborhoods(graph)
        n = len(indptr) - 1
        x = np.fromiter((values.get(v, 0.0) for v in range(n)), float, n)
        _check_unit(x, "value x")
        if constraints is None:
            c = np.ones(n)
        else:
            c = np.fromiter((constraints.get(v, 1.0) for v in range(n)), float, n)
            _check_unit(c, "constraint c")
        if weights:
            w = np.fromiter((weights.get(v, 1.0) for v in range(n)), float, n)
        else:
            w = np.ones(n)
        ids = np.arange(n)
        return cls.__new__(cls)._fill(
            {}, ids=ids, x=x, weight=w, origin=ids, cids=ids, c=c,
            join_weight=w, corigin=ids, indptr=indptr, members=members,
        )

    # -- structure ----------------------------------------------------------

    def _cached(self, key: str, build: Callable[[], object]):
        if key not in self._shared:
            self._shared[key] = build()
        return self._shared[key]

    @property
    def entry_rows(self) -> np.ndarray:
        """The constraint row of every member entry."""
        return self._cached(
            "entry_rows",
            lambda: _frozen(np.repeat(np.arange(len(self.cids)), np.diff(self.indptr))),
        )

    def incidence(self) -> sparse.csr_matrix:
        """Constraint-by-variable 0/1 matrix ``M`` in member order."""
        from scipy import sparse

        return self._cached(
            "incidence",
            lambda: sparse.csr_matrix(
                (np.ones(len(self.members)), self.members, self.indptr),
                shape=(len(self.cids), len(self.ids)),
            ),
        )

    def transpose(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(indptr, entries)``: the member entries of every variable row,
        in constraint order."""

        def build():
            counts = np.bincount(self.members, minlength=len(self.ids))
            indptr = np.concatenate(([0], np.cumsum(counts)))
            return _frozen(indptr), _frozen(np.argsort(self.members, kind="stable"))

        return self._cached("transpose", build)

    def rows_of(self, ids: Iterable[int]) -> np.ndarray:
        """Variable rows of ``ids``; ``-1`` for an id that is no variable."""
        query = np.array(list(ids), dtype=np.int64)
        if not len(self.ids):
            return np.full(len(query), -1)
        order = self._cached("order", lambda: np.argsort(self.ids))
        rows = order[np.searchsorted(self.ids[order], query).clip(max=len(order) - 1)]
        return np.where(self.ids[rows] == query, rows, -1)

    def gather(self, values: Mapping[int, float], default: float) -> np.ndarray:
        """``values`` as an array over the variable rows, ``default`` for a
        missing id."""
        ids = self._cached("id_list", lambda: self.ids.tolist())
        return np.fromiter((values.get(u, default) for u in ids), float, len(ids))

    def member_sums(self, values: np.ndarray | None = None) -> np.ndarray:
        """Per constraint row, the member values summed left to right."""
        values = self.x if values is None else values
        return row_sums(self.indptr, values[self.members])

    # -- object views -------------------------------------------------------

    @cached_property
    def value_vars(self) -> Mapping[int, ValueVar]:
        """Read-only ``{id: ValueVar}`` in instance order."""
        return MappingProxyType({
            u: ValueVar(id=u, x=x, origin=o, weight=w)
            for u, x, o, w in zip(self.ids.tolist(), self.x.tolist(),
                                  self.origin.tolist(), self.weight.tolist())
        })

    @cached_property
    def constraints(self) -> Mapping[int, Constraint]:
        """Read-only ``{id: Constraint}`` in instance order."""
        ptr = self.indptr.tolist()
        member_ids = self.ids[self.members].tolist()
        return MappingProxyType({
            cid: Constraint(id=cid, c=c, members=tuple(member_ids[ptr[i]:ptr[i + 1]]),
                            origin=o, join_weight=jw)
            for i, (cid, c, o, jw) in enumerate(zip(
                self.cids.tolist(), self.c.tolist(), self.corigin.tolist(),
                self.join_weight.tolist()))
        })

    @cached_property
    def var_constraints(self) -> Mapping[int, Tuple[int, ...]]:
        """Read-only ``{variable id: constraint ids}`` in constraint order."""
        ptr, entries = self.transpose()
        ptr = ptr.tolist()
        cids = self.cids[self.entry_rows[entries]].tolist()
        return MappingProxyType({
            u: tuple(cids[ptr[i]:ptr[i + 1]]) for i, u in enumerate(self.ids.tolist())
        })

    # -- bookkeeping --------------------------------------------------------

    @property
    def num_vars(self) -> int:
        return len(self.ids)

    @property
    def num_constraints(self) -> int:
        return len(self.cids)

    def values(self) -> Dict[int, float]:
        """Current fractional values by variable id."""
        return self.by_id(self.x)

    def by_id(self, values: np.ndarray) -> Dict[int, float]:
        """``{variable id: value}`` of an array over the variable rows."""
        return dict(zip(self.ids.tolist(), values.tolist()))

    def size(self) -> float:
        """Weighted size ``sum_u w(u) * x(u)``."""
        return ltr_sum(self.weight * self.x)

    def member_sum(self, cid: int, values: Mapping[int, float] | None = None) -> float:
        """Sum of member values for one constraint."""
        hits = np.flatnonzero(self.cids == cid)
        if not hits.size:
            raise KeyError(cid)
        row = int(hits[0])
        members = self.members[self.indptr[row]:self.indptr[row + 1]]
        if values is None:
            return ltr_sum(self.x[members])
        return ltr_sum(np.array([values.get(u, 0.0) for u in self.ids[members].tolist()]))

    def violations(
        self, values: Mapping[int, float] | None = None, tol: float = 1e-9
    ) -> List[int]:
        """Constraint ids with ``member_sum < c - tol``."""
        vals = None if values is None else self.gather(values, 0.0)
        return self.cids[self.member_sums(vals) < self.c - tol].tolist()

    def is_feasible(self, values: Mapping[int, float] | None = None, tol: float = 1e-9) -> bool:
        return not self.violations(values, tol)

    def require_feasible(self, what: str, tol: float = FEASIBILITY_TOL) -> None:
        """Raise :class:`InfeasibleSolutionError` unless every member sum
        reaches its demand within ``tol``, naming ``what``, the number of
        short constraints and the worst one with its slack."""
        slack = self.member_sums() - self.c
        bad = np.flatnonzero(slack < -tol)
        if bad.size:
            worst = int(bad[np.argmin(slack[bad])])
            raise InfeasibleSolutionError(
                f"{what} infeasible at {bad.size} nodes; worst: node "
                f"{int(self.cids[worst])} slack {float(slack[worst]):.3g}"
            )

    @property
    def max_constraint_degree(self) -> int:
        """``Delta_L``: most members any constraint has."""
        return int(np.diff(self.indptr).max()) if len(self.cids) else 0

    @property
    def max_var_degree(self) -> int:
        """``Delta_R``: most constraints any variable appears in."""
        return int(np.diff(self.transpose()[0]).max()) if len(self.ids) else 0

    # -- transforms (the Section 3.3 "Constructing Graph B" steps) ----------

    def with_values(self, new_values: Mapping[int, float]) -> "CoveringInstance":
        """Same structure, new fractional values."""
        pairs = zip(self.ids.tolist(), self.x.tolist())
        x = np.fromiter((new_values.get(u, x) for u, x in pairs), float, len(self.ids))
        return self._derive(x=x)

    def boost_values(
        self, factor: float, cap: float = 1.0, quantize: Callable[[float], float] | None = None
    ) -> "CoveringInstance":
        """Values become ``min(cap, factor * x)``, optionally snapped up onto
        a transmittable grid (the paper's n^-10 rounding)."""
        x = factor * self.x
        x = np.where(x < cap, x, cap)
        if quantize is not None:
            x = np.array([quantize(v) for v in x.tolist()], dtype=float)
            x = np.where(x < cap, x, cap)
        return self._derive(x=x)

    def prune_to_cover(self, max_members: int | None = None) -> "CoveringInstance":
        """Lemma 3.13 edge removal: each constraint keeps a smallest prefix
        of members (largest values first, ties by ascending id) that already
        meets its demand.

        With a ``1/F``-fractional input, at most ``F`` members survive per
        constraint, so the left degree of ``B`` drops to ``F``.
        """
        rows, members = self.entry_rows, self.members
        lengths = np.diff(self.indptr)
        member_x = self.x[members]
        order = np.lexsort((self.ids[members], -member_x, rows))
        ranked_x = member_x[order]
        # Walk the ranked rows one column at a time: every row still short of
        # its demand adds its next member, so each total is a left-to-right sum.
        need = self.c - 1e-12
        total = np.zeros(len(self.cids))
        kept = np.zeros(len(self.cids), dtype=np.int64)
        active = np.flatnonzero(lengths > 0)
        while active.size:
            active = active[(kept[active] < lengths[active]) & (total[active] < need[active])]
            total[active] += ranked_x[self.indptr[active] + kept[active]]
            kept[active] += 1
        short = total < self.c - 1e-9
        over = kept > max_members if max_members is not None else np.zeros_like(short)
        bad = np.flatnonzero(short | over)
        if bad.size:
            row = int(bad[0])
            cid = int(self.cids[row])
            if short[row]:
                raise InfeasibleSolutionError(
                    f"constraint {cid} cannot be covered by its members "
                    f"(sum {float(total[row]):.4g} < c {float(self.c[row]):.4g}); "
                    "prune requires a feasible input"
                )
            raise InfeasibleSolutionError(
                f"constraint {cid} kept {int(kept[row])} members, limit {max_members}; "
                "input fractionality too low for the requested bound"
            )
        rank = np.arange(len(members)) - self.indptr[rows]
        survivors = order[rank < kept[rows[order]]]
        survivors = survivors[np.lexsort((self.ids[members[survivors]], rows[survivors]))]
        return self._derive(
            indptr=np.concatenate(([0], np.cumsum(kept))),
            members=members[survivors],
        )

    def split_constraints(
        self,
        original_values: Mapping[int, float],
        participation_threshold: float,
        s: int,
    ) -> "CoveringInstance":
        """Lemma 3.14 constraint splitting.

        Members with current value ``x >= participation_threshold`` (the
        nodes that will not take part in the rounding) stay on the first
        copy ``v_1``.  If at most ``s`` participating members remain they
        join ``v_1`` too; otherwise they are distributed over copies
        ``v_2..v_k`` holding between ``s`` and ``2s`` members each.  Each
        copy's demand is ``min(1, sum of its members' original values)``,
        so the demands are met with the pre-boost values and sum up to at
        least the original demand (the paper states ``max``; ``min`` is the
        reading consistent with Definition 2.1's ``c in [0,1]``).  Copies
        are numbered ``0, 1, ...`` in ascending order of the split ids.
        """
        if s < 1:
            raise InfeasibleSolutionError(f"split width s must be >= 1, got {s}")
        x = self.x.tolist()
        by_id = self.ids.tolist().__getitem__
        ptr, members = self.indptr.tolist(), self.members.tolist()
        groups: List[List[int]] = []
        sources: List[int] = []
        for row in np.argsort(self.cids, kind="stable").tolist():
            row_members = members[ptr[row]:ptr[row + 1]]
            high = [k for k in row_members if x[k] >= participation_threshold]
            low = [k for k in row_members if x[k] < participation_threshold]
            if len(low) <= s:
                chunks = [sorted(high + low, key=by_id)]
            else:
                chunks = [sorted(high, key=by_id)] if high else []
                low = sorted(low, key=by_id)
                k = max(1, len(low) // s)
                base, extra = divmod(len(low), k)
                start = 0
                for j in range(k):
                    size = base + (1 if j < extra else 0)
                    chunk = low[start : start + size]
                    start += size
                    if not s <= len(chunk) <= 2 * s:
                        raise InfeasibleSolutionError(
                            f"split produced a chunk of {len(chunk)} members "
                            f"outside [{s}, {2 * s}]"
                        )
                    chunks.append(chunk)
            groups.extend(chunks)
            sources.extend([row] * len(chunks))
        indptr = np.concatenate(([0], np.cumsum([len(g) for g in groups]))).astype(np.int64)
        flat = np.array([k for g in groups for k in g], dtype=np.int64)
        share = row_sums(indptr, self.gather(original_values, 0.0)[flat])
        sources = np.array(sources, dtype=np.int64)
        return self._derive(
            cids=np.arange(len(groups), dtype=np.int64),
            c=np.where(share < 1.0, share, 1.0),
            join_weight=self.join_weight[sources],
            corigin=self.corigin[sources],
            indptr=indptr,
            members=flat,
        )

    # -- projection back to the original problem ----------------------------

    def project(
        self, final_values: Mapping[int, float] | np.ndarray, joined_origins: Iterable[int]
    ) -> Dict[int, float]:
        """Map rounded variable values back to origins.

        An origin's value is the max over its variables' values, forced to 1
        if the origin joined in phase two ("a node sets its value to the
        maximum of the values of its two copies").  ``final_values`` is a
        mapping by variable id or an array over the variable rows.  Origins
        appear in the order of their first positive variable, then the
        joined ones.
        """
        if not isinstance(final_values, np.ndarray):
            final_values = self.gather(final_values, 0.0)
        positive = np.flatnonzero(final_values > 0.0)
        origins = self.origin[positive]
        unique, first, slot = np.unique(origins, return_index=True, return_inverse=True)
        best = np.zeros(len(unique))
        np.maximum.at(best, slot, final_values[positive])
        order = np.argsort(first)
        out = dict(zip(unique[order].tolist(), best[order].tolist()))
        for origin in joined_origins:
            out[origin] = 1.0
        return out
