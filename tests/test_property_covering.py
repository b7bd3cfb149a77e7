"""Hypothesis property tests for the Section 3.3 covering transformations."""

import math
import random

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.domsets.covering import CoveringInstance
from repro.fractional.raising import repair_feasibility
from repro.graphs.generators import gnp_graph
from tests.covering_reference import value_conflict_graph

slow = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def feasible_instance(n: int, p: float, seed: int, level: float):
    """A graph instance with random feasible fractional values >= level."""
    graph = gnp_graph(n, p, seed=seed)
    rng = random.Random(seed * 7 + 1)
    values = {v: min(1.0, level + rng.random() * 0.4) for v in graph.nodes()}
    values = repair_feasibility(graph, values)
    return graph, CoveringInstance.from_graph(graph, values), values


@slow
@given(st.integers(4, 24), st.integers(0, 30))
def test_prune_preserves_feasibility_and_shrinks_degree(n, seed):
    graph, inst, values = feasible_instance(n, 0.3, seed, level=0.2)
    pruned = inst.prune_to_cover()
    assert pruned.is_feasible()
    assert pruned.max_constraint_degree <= inst.max_constraint_degree
    # Pruning never adds members.
    for cid, cn in pruned.constraints.items():
        assert set(cn.members) <= set(inst.constraints[cid].members)


@slow
@given(st.integers(4, 24), st.integers(0, 30))
def test_prune_member_count_respects_fractionality(n, seed):
    graph, inst, values = feasible_instance(n, 0.3, seed, level=0.25)
    nonzero = [x for x in values.values() if x > 0]
    f = math.ceil(1.0 / min(nonzero))
    pruned = inst.prune_to_cover(max_members=f)
    assert pruned.max_constraint_degree <= f


@slow
@given(
    st.integers(5, 22),
    st.integers(0, 20),
    st.integers(1, 4),
    st.floats(0.1, 0.9),
)
def test_split_partition_and_feasibility(n, seed, s, threshold):
    graph, inst, values = feasible_instance(n, 0.35, seed, level=0.15)
    split = inst.split_constraints(
        values, participation_threshold=threshold, s=s
    )
    # Same variables; constraints partition each original's member set.
    assert set(split.value_vars) == set(inst.value_vars)
    regrouped = {}
    for cn in split.constraints.values():
        regrouped.setdefault(cn.origin, []).extend(cn.members)
    for origin, members in regrouped.items():
        assert sorted(members) == sorted(inst.constraints[origin].members)
    # Demands are satisfiable by the original values.
    assert split.is_feasible(values)
    # Total demand per origin covers the (capped) original demand.
    for origin in inst.constraints:
        parts = [c for c in split.constraints.values() if c.origin == origin]
        assert sum(p.c for p in parts) >= min(
            1.0, inst.constraints[origin].c
        ) - 1e-9 or any(p.c >= 1.0 - 1e-9 for p in parts)


@slow
@given(st.integers(4, 20), st.integers(0, 20), st.floats(1.01, 3.0))
def test_boost_monotone_and_capped(n, seed, factor):
    graph, inst, values = feasible_instance(n, 0.3, seed, level=0.1)
    boosted = inst.boost_values(factor)
    for u, var in boosted.value_vars.items():
        assert var.x >= inst.value_vars[u].x - 1e-12
        assert var.x <= 1.0 + 1e-12
    assert boosted.is_feasible()


@slow
@given(st.integers(4, 20), st.integers(0, 20))
def test_conflict_graph_matches_shared_constraints(n, seed):
    graph, inst, _ = feasible_instance(n, 0.3, seed, level=0.2)
    conflict = value_conflict_graph(inst)
    for u in inst.value_vars:
        for w in inst.value_vars:
            if u >= w:
                continue
            shares = bool(
                set(inst.var_constraints[u]) & set(inst.var_constraints[w])
            )
            assert conflict.has_edge(u, w) == shares
