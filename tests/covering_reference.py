"""The object covering model, frozen as the parity reference for the arrays.

:class:`repro.domsets.covering.CoveringInstance` used to keep ``B_G`` as
dicts of ``ValueVar`` / ``Constraint`` dataclasses, rebuilt by every
transform, and the conditional-expectation engine kept one
``ConstraintEstimator`` object per constraint.  This module keeps that code
as it was, with one change: every builtin ``sum()`` is a ``+=`` loop.
Python 3.12 made ``sum()`` of floats compensated, while the array code adds
left to right on every version, as ``sum()`` did before 3.12.

Nothing here may change with the code under test; it is the yardstick.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterable, List, Mapping, Sequence, Set, Tuple

import networkx as nx

from repro.derand.estimators import T_SEARCH_HI, EstimatorConfig
from repro.domsets.covering import Constraint, ValueVar
from repro.errors import (
    ColoringError,
    DerandomizationError,
    InfeasibleSolutionError,
)
from repro.graphs.normalize import require_normalized
from repro.util.mathx import log_star


def loop_sum(values: Iterable[float]) -> float:
    total = 0
    for value in values:
        total += value
    return total


def neumaier_sum(values: Iterable[float], start=0):
    """Python 3.12's builtin ``sum()``, for binding in place of ``sum`` on
    older versions: ints add exactly, and once the total is a float, every
    term adds with Neumaier's compensation."""
    total, compensation = start, 0.0
    for value in values:
        if not isinstance(total, float):
            total = total + value
            continue
        value = float(value)
        step = total + value
        if abs(total) >= abs(value):
            compensation += (total - step) + value
        else:
            compensation += (value - step) + total
        total = step
    if compensation and math.isfinite(compensation):
        total += compensation
    return total


class RefInstance:
    """The object ``CoveringInstance``."""

    def __init__(self, value_vars: Sequence[ValueVar], constraints: Sequence[Constraint]):
        self.value_vars: Dict[int, ValueVar] = {v.id: v for v in value_vars}
        self.constraints: Dict[int, Constraint] = {c.id: c for c in constraints}
        if len(self.value_vars) != len(value_vars):
            raise InfeasibleSolutionError("duplicate value variable ids")
        if len(self.constraints) != len(constraints):
            raise InfeasibleSolutionError("duplicate constraint ids")
        index: Dict[int, List[int]] = {v: [] for v in self.value_vars}
        for cn in constraints:
            for u in cn.members:
                if u not in self.value_vars:
                    raise InfeasibleSolutionError(
                        f"constraint {cn.id} references unknown variable {u}"
                    )
                index[u].append(cn.id)
        self.var_constraints: Dict[int, Tuple[int, ...]] = {
            v: tuple(cids) for v, cids in index.items()
        }

    @classmethod
    def from_graph(cls, graph, values, constraints=None, weights=None) -> "RefInstance":
        require_normalized(graph)
        weights = weights or {}
        value_vars = [
            ValueVar(id=v, x=float(values.get(v, 0.0)), origin=v,
                     weight=float(weights.get(v, 1.0)))
            for v in sorted(graph.nodes())
        ]
        cons = []
        for v in sorted(graph.nodes()):
            demand = 1.0 if constraints is None else float(constraints.get(v, 1.0))
            members = tuple(sorted(set(graph.neighbors(v)) | {v}))
            cons.append(
                Constraint(id=v, c=demand, members=members, origin=v,
                           join_weight=float(weights.get(v, 1.0)))
            )
        return cls(value_vars, cons)

    @property
    def num_vars(self) -> int:
        return len(self.value_vars)

    def values(self) -> Dict[int, float]:
        return {v: var.x for v, var in self.value_vars.items()}

    def size(self) -> float:
        return loop_sum(var.weight * var.x for var in self.value_vars.values())

    def member_sum(self, cid: int, values: Mapping[int, float] | None = None) -> float:
        cn = self.constraints[cid]
        if values is None:
            return loop_sum(self.value_vars[u].x for u in cn.members)
        return loop_sum(values.get(u, 0.0) for u in cn.members)

    def violations(self, values=None, tol: float = 1e-9) -> List[int]:
        return [
            cid for cid, cn in self.constraints.items()
            if self.member_sum(cid, values) < cn.c - tol
        ]

    @property
    def max_constraint_degree(self) -> int:
        return max((len(cn.members) for cn in self.constraints.values()), default=0)

    @property
    def max_var_degree(self) -> int:
        return max((len(cids) for cids in self.var_constraints.values()), default=0)

    def with_values(self, new_values: Mapping[int, float]) -> "RefInstance":
        return RefInstance(
            [replace(var, x=float(new_values.get(var.id, var.x)))
             for var in self.value_vars.values()],
            list(self.constraints.values()),
        )

    def boost_values(self, factor, cap=1.0, quantize=None) -> "RefInstance":
        new_vals = {}
        for var in self.value_vars.values():
            x = min(cap, factor * var.x)
            if quantize is not None:
                x = min(cap, quantize(x))
            new_vals[var.id] = x
        return self.with_values(new_vals)

    def prune_to_cover(self, max_members: int | None = None) -> "RefInstance":
        new_cons = []
        for cn in self.constraints.values():
            ordered = sorted(cn.members, key=lambda u: (-self.value_vars[u].x, u))
            kept: List[int] = []
            total = 0.0
            for u in ordered:
                if total >= cn.c - 1e-12:
                    break
                kept.append(u)
                total += self.value_vars[u].x
            if total < cn.c - 1e-9:
                raise InfeasibleSolutionError(
                    f"constraint {cn.id} cannot be covered by its members "
                    f"(sum {total:.4g} < c {cn.c:.4g}); prune requires a feasible input"
                )
            if max_members is not None and len(kept) > max_members:
                raise InfeasibleSolutionError(
                    f"constraint {cn.id} kept {len(kept)} members, limit {max_members}; "
                    "input fractionality too low for the requested bound"
                )
            new_cons.append(replace(cn, members=tuple(sorted(kept))))
        return RefInstance(list(self.value_vars.values()), new_cons)

    def split_constraints(self, original_values, participation_threshold, s) -> "RefInstance":
        if s < 1:
            raise InfeasibleSolutionError(f"split width s must be >= 1, got {s}")
        new_cons: List[Constraint] = []
        next_id = 0

        def share(members: Iterable[int]) -> float:
            return min(1.0, loop_sum(original_values.get(u, 0.0) for u in members))

        for cid in sorted(self.constraints):
            cn = self.constraints[cid]
            high = [u for u in cn.members
                    if self.value_vars[u].x >= participation_threshold]
            low = [u for u in cn.members
                   if self.value_vars[u].x < participation_threshold]
            if len(low) <= s:
                members = tuple(sorted(high + low))
                new_cons.append(Constraint(id=next_id, c=share(members), members=members,
                                           origin=cn.origin, join_weight=cn.join_weight))
                next_id += 1
            else:
                if high:
                    members = tuple(sorted(high))
                    new_cons.append(Constraint(id=next_id, c=share(members), members=members,
                                               origin=cn.origin, join_weight=cn.join_weight))
                    next_id += 1
                low_sorted = sorted(low)
                k = max(1, len(low_sorted) // s)
                base, extra = divmod(len(low_sorted), k)
                start = 0
                for j in range(k):
                    size = base + (1 if j < extra else 0)
                    chunk = tuple(low_sorted[start : start + size])
                    start += size
                    if not s <= len(chunk) <= 2 * s:
                        raise InfeasibleSolutionError(
                            f"split produced a chunk of {len(chunk)} members "
                            f"outside [{s}, {2 * s}]"
                        )
                    new_cons.append(Constraint(id=next_id, c=share(chunk), members=chunk,
                                               origin=cn.origin, join_weight=cn.join_weight))
                    next_id += 1
        return RefInstance(list(self.value_vars.values()), new_cons)

    def value_conflict_graph(self, restrict: Set[int] | None = None) -> nx.Graph:
        """Graph on value variables; edge iff two variables share a constraint."""
        conflict = nx.Graph()
        vars_in = set(self.value_vars) if restrict is None else set(restrict)
        conflict.add_nodes_from(sorted(vars_in))
        for cn in self.constraints.values():
            members = [u for u in cn.members if u in vars_in]
            for i, u in enumerate(members):
                for w in members[i + 1 :]:
                    conflict.add_edge(u, w)
        return conflict

    def project(self, final_values, joined_origins) -> Dict[int, float]:
        out: Dict[int, float] = {}
        for var in self.value_vars.values():
            x = final_values.get(var.id, 0.0)
            if x > out.get(var.origin, 0.0):
                out[var.origin] = x
        for origin in joined_origins:
            out[origin] = 1.0
        return out


def value_conflict_graph(instance, restrict: Set[int] | None = None) -> nx.Graph:
    """The conflict graph of any instance with the object views."""
    return RefInstance(
        list(instance.value_vars.values()), list(instance.constraints.values())
    ).value_conflict_graph(restrict)


# -- rounding -------------------------------------------------------------------


@dataclass(frozen=True)
class RefScheme:
    instance: RefInstance
    p: Mapping[int, float]
    name: str
    params: Dict[str, float] = field(default_factory=dict)

    def success_value(self, u: int) -> float:
        var = self.instance.value_vars[u]
        pu = self.p.get(u, 1.0)
        return var.x / pu if pu > 0 else 0.0

    def participating(self) -> List[int]:
        return sorted(
            u for u, var in self.instance.value_vars.items()
            if 0.0 < self.p.get(u, 1.0) < 1.0 and var.x > 0.0
        )


def ref_one_shot_scheme(instance: RefInstance, delta_tilde: int, quantize=None) -> RefScheme:
    boost = max(1.0, math.log(delta_tilde))
    boosted = instance.boost_values(boost, quantize=quantize)
    p = {u: (var.x if var.x > 0.0 else 1.0) for u, var in boosted.value_vars.items()}
    return RefScheme(boosted, p, "one-shot",
                     {"delta_tilde": float(delta_tilde), "boost": boost})


def ref_factor_two_p(instance: RefInstance, threshold: float) -> Dict[int, float]:
    return {
        u: (0.5 if 0.0 < var.x < threshold else 1.0)
        for u, var in instance.value_vars.items()
    }


@dataclass
class RefOutcome:
    phase_one: Dict[int, float]
    violated_constraints: List[int]
    joined_origins: Set[int]
    projected: Dict[int, float]
    accounted_size: float


def ref_execute_rounding(scheme: RefScheme, coin: Callable[[int], bool]) -> RefOutcome:
    inst = scheme.instance
    phase_one: Dict[int, float] = {}
    for u, var in inst.value_vars.items():
        pu = scheme.p.get(u, 1.0)
        if var.x <= 0.0:
            phase_one[u] = 0.0
        elif pu >= 1.0:
            phase_one[u] = var.x
        else:
            phase_one[u] = scheme.success_value(u) if coin(u) else 0.0
    violated = inst.violations(phase_one)
    joined = {inst.constraints[cid].origin for cid in violated}
    projected = inst.project(phase_one, joined)
    accounted = loop_sum(
        inst.value_vars[u].weight * x for u, x in phase_one.items()
    ) + loop_sum(inst.constraints[cid].join_weight for cid in violated)
    return RefOutcome(phase_one, sorted(violated), joined, projected, accounted)


# -- estimators and engine -------------------------------------------------------


class RefEstimator:
    """``ConstraintEstimator`` as the object engine used it."""

    def __init__(self, cid, c, deterministic_sum, free_coins, config: EstimatorConfig):
        self.cid = cid
        self.c = c
        self.fixed_sum = deterministic_sum
        self.free: Dict[int, Tuple[float, float]] = dict(free_coins)
        mode = config.mode
        if mode == "auto":
            covers = all(w >= self.c - 1e-12 for (w, _) in self.free.values())
            mode = "exact-product" if covers else "chernoff"
        if mode == "exact-product":
            bad = [u for u, (w, _) in self.free.items() if w < self.c - 1e-12]
            if bad:
                raise DerandomizationError(
                    f"constraint {cid}: exact-product mode requires every free "
                    f"success to cover c={self.c}; offending coins {bad[:5]}"
                )
        if mode == "exact-enum" and len(self.free) > config.enum_limit:
            raise DerandomizationError(
                f"constraint {cid}: {len(self.free)} free coins exceed the "
                f"enumeration limit {config.enum_limit}"
            )
        self.mode = mode
        self.t = 0.0
        if mode == "chernoff":
            self.t = self._choose_t(T_SEARCH_HI)
        self._log_prod = self._full_log_prod()
        self._updates = 0

    def _coin_log_factor(self, w, p):
        if self.mode == "exact-product":
            return math.log1p(-p)
        return math.log(p * math.exp(-self.t * w) + (1.0 - p))

    def _full_log_prod(self):
        if self.mode == "exact-enum":
            return 0.0
        return loop_sum(self._coin_log_factor(w, p) for (w, p) in self.free.values())

    def _choose_t(self, hi):
        gap = self.c - self.fixed_sum
        if gap <= 1e-12 or not self.free:
            return 0.0

        def g(t):
            total = t * gap
            for w, p in self.free.values():
                total += math.log(p * math.exp(-t * w) + (1.0 - p))
            return total

        lo_t, hi_t = 0.0, hi
        for _ in range(80):
            m1 = lo_t + (hi_t - lo_t) / 3.0
            m2 = hi_t - (hi_t - lo_t) / 3.0
            if g(m1) <= g(m2):
                hi_t = m2
            else:
                lo_t = m1
        return 0.5 * (lo_t + hi_t)

    def phi(self):
        if self.fixed_sum >= self.c - 1e-12:
            return 0.0
        if self.mode == "exact-enum":
            return self._enumerate(self.fixed_sum, dict(self.free))
        if self.mode == "exact-product":
            return math.exp(self._log_prod)
        exponent = self.t * (self.c - self.fixed_sum) + self._log_prod
        return min(1.0, math.exp(min(exponent, 50.0)))

    def phi_if(self, u, success):
        w, p = self.free[u]
        new_fixed = self.fixed_sum + (w if success else 0.0)
        if new_fixed >= self.c - 1e-12:
            return 0.0
        if self.mode == "exact-enum":
            rest = {k: v for k, v in self.free.items() if k != u}
            return self._enumerate(new_fixed, rest)
        log_rest = self._log_prod - self._coin_log_factor(w, p)
        if self.mode == "exact-product":
            return math.exp(min(0.0, log_rest))
        exponent = self.t * (self.c - new_fixed) + log_rest
        return min(1.0, math.exp(min(exponent, 50.0)))

    def _enumerate(self, fixed, coins):
        items = list(coins.values())
        total = 0.0
        for mask in range(1 << len(items)):
            prob = 1.0
            sum_x = fixed
            for i, (w, p) in enumerate(items):
                if mask >> i & 1:
                    prob *= p
                    sum_x += w
                else:
                    prob *= 1.0 - p
            if sum_x < self.c - 1e-12:
                total += prob
        return total

    def fix(self, u, success):
        w, p = self.free.pop(u)
        if success:
            self.fixed_sum += w
        if self.mode != "exact-enum":
            self._log_prod -= self._coin_log_factor(w, p)
            self._updates += 1
            if self._updates >= 512:
                self._log_prod = self._full_log_prod()
                self._updates = 0


@dataclass
class RefDerandResult:
    outcome: RefOutcome
    decisions: Dict[int, bool]
    initial_estimate: float
    final_estimate: float
    trajectory: List[float]
    batches: int


class RefEngine:
    """The object ``ConditionalExpectationEngine``."""

    def __init__(self, scheme: RefScheme, config: EstimatorConfig | None = None):
        self.scheme = scheme
        self.config = config or EstimatorConfig()
        inst = scheme.instance
        self._coin: Dict[int, tuple] = {}
        self._ex: Dict[int, float] = {}
        self._weight: Dict[int, float] = {}
        for u, var in inst.value_vars.items():
            pu = scheme.p.get(u, 1.0)
            self._weight[u] = var.weight
            if var.x <= 0.0:
                self._ex[u] = 0.0
            elif pu >= 1.0:
                self._ex[u] = var.x
            else:
                self._coin[u] = (var.x / pu, pu)
                self._ex[u] = var.x
        self.estimators: Dict[int, RefEstimator] = {}
        for cid, cn in inst.constraints.items():
            deterministic = 0.0
            free: Dict[int, tuple] = {}
            for u in cn.members:
                var = inst.value_vars[u]
                pu = scheme.p.get(u, 1.0)
                if var.x <= 0.0:
                    continue
                if pu >= 1.0:
                    deterministic += var.x
                else:
                    free[u] = (var.x / pu, pu)
            self.estimators[cid] = RefEstimator(cid, cn.c, deterministic, free, self.config)
        self.decisions: Dict[int, bool] = {}

    def objective(self) -> float:
        inst = self.scheme.instance
        total = loop_sum(self._weight[u] * ex for u, ex in self._ex.items())
        for cid, est in self.estimators.items():
            total += inst.constraints[cid].join_weight * est.phi()
        return total

    def _decision_scores(self, u):
        inst = self.scheme.instance
        w, _p = self._coin[u]
        succ = self._weight[u] * w
        fail = 0.0
        for cid in inst.var_constraints[u]:
            jw = inst.constraints[cid].join_weight
            est = self.estimators[cid]
            succ += jw * est.phi_if(u, True)
            fail += jw * est.phi_if(u, False)
        return succ, fail

    def _validate_batch(self, batch):
        inst = self.scheme.instance
        seen: Set[int] = set()
        for u in batch:
            if u not in self._coin:
                raise DerandomizationError(
                    f"variable {u} has no free coin (already fixed, p in {{0,1}}, or x=0)"
                )
            if u in self.decisions:
                raise DerandomizationError(f"variable {u} scheduled twice")
            for cid in inst.var_constraints[u]:
                if cid in seen:
                    raise DerandomizationError(
                        f"batch members share constraint {cid}; the schedule "
                        "violates the distance-2 / separation requirement"
                    )
                seen.add(cid)

    def run(self, schedule) -> RefDerandResult:
        initial = self.objective()
        trajectory = [initial]
        prev = initial
        batches = 0
        for batch in schedule:
            batch = list(batch)
            if not batch:
                continue
            self._validate_batch(batch)
            chosen = []
            for u in batch:
                succ, fail = self._decision_scores(u)
                chosen.append((u, succ < fail))
            for u, success in chosen:
                self.decisions[u] = success
                w, _p = self._coin[u]
                self._ex[u] = w if success else 0.0
                for cid in self.scheme.instance.var_constraints[u]:
                    self.estimators[cid].fix(u, success)
            batches += 1
            now = self.objective()
            if now > prev + 1e-7 * max(1.0, abs(prev)):
                raise DerandomizationError("objective increased")
            trajectory.append(now)
            prev = now
        undecided = [u for u in self._coin if u not in self.decisions]
        if undecided:
            raise DerandomizationError(
                f"{len(undecided)} participating variables never scheduled "
                f"(e.g. {undecided[:5]})"
            )
        outcome = ref_execute_rounding(self.scheme, self.decisions.__getitem__)
        final = self.objective()
        return RefDerandResult(outcome, dict(self.decisions), initial, final,
                               trajectory, batches)


# -- Lemma 3.12 coloring --------------------------------------------------------


def ref_bipartite_coloring(instance: RefInstance, restrict=None, n_network=None) -> tuple:
    """``(colors, num_colors, charged_rounds, conflict_edges, delta_l,
    delta_r)`` of the networkx conflict-graph path."""
    if restrict is not None:
        unknown = set(restrict).difference(instance.value_vars)
        if unknown:
            raise ColoringError(f"restrict ids {sorted(unknown)[:5]} are not value variables")
    conflict = instance.value_conflict_graph(restrict)
    colors: Dict[int, int] = {}
    for v in sorted(conflict.nodes()):
        taken = {colors[u] for u in conflict.neighbors(v) if u in colors}
        color = 0
        while color in taken:
            color += 1
        colors[v] = color
    num = len(set(colors.values()))
    delta_l = instance.max_constraint_degree
    delta_r = instance.max_var_degree
    bound = delta_l * delta_r
    n = n_network if n_network is not None else max(instance.num_vars, 2)
    charged = max(1, bound + max(1, delta_l) * log_star(max(2, n)))
    return colors, num, charged, conflict.number_of_edges(), delta_l, delta_r
