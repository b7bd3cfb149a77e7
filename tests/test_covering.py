"""Covering instances: bipartite representation, pruning, splitting."""

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.domsets.covering import Constraint, CoveringInstance, ValueVar, fractionality_of
from repro.errors import InfeasibleSolutionError
from repro.fractional.distributed import distributed_fractional_mds
from repro.fractional.lp import solve_covering_lp
from repro.fractional.raising import repair_feasibility
from repro.graphs.generators import gnp_graph
from repro.graphs.normalize import normalize_graph
from repro.mds.deterministic import approx_mds_coloring, approx_mds_decomposition
from repro.mds.pipeline import PipelineParams
from repro.mds.randomized import approx_mds_randomized
from repro.oracle.certificate import lp_lower_bound
from repro.oracle.ilp import solve_mds_ilp
from tests.covering_reference import value_conflict_graph


@pytest.fixture
def triangle():
    return normalize_graph(nx.complete_graph(3))


@pytest.fixture
def path4_instance():
    g = normalize_graph(nx.path_graph(4))
    values = {0: 0.5, 1: 0.5, 2: 0.5, 3: 0.5}
    return CoveringInstance.from_graph(g, values)


class TestConstruction:
    def test_from_graph_structure(self, path4_instance):
        inst = path4_instance
        assert inst.num_vars == 4
        assert inst.num_constraints == 4
        assert inst.constraints[0].members == (0, 1)
        assert inst.constraints[1].members == (0, 1, 2)
        assert inst.var_constraints[0] == (0, 1)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(InfeasibleSolutionError):
            CoveringInstance(
                [ValueVar(0, 0.5, 0), ValueVar(0, 0.5, 0)],
                [],
            )

    def test_unknown_member_rejected(self):
        with pytest.raises(InfeasibleSolutionError):
            CoveringInstance(
                [ValueVar(0, 0.5, 0)],
                [Constraint(0, 1.0, (0, 7), 0)],
            )

    def test_degrees(self, path4_instance):
        assert path4_instance.max_constraint_degree == 3
        assert path4_instance.max_var_degree == 3


class TestBookkeeping:
    def test_size_weighted(self):
        inst = CoveringInstance(
            [ValueVar(0, 0.5, 0, weight=2.0), ValueVar(1, 1.0, 1, weight=3.0)],
            [],
        )
        assert inst.size() == pytest.approx(0.5 * 2 + 1.0 * 3)

    def test_member_sum_and_violations(self, path4_instance):
        assert path4_instance.member_sum(1) == pytest.approx(1.5)
        assert path4_instance.is_feasible()
        low = path4_instance.with_values({v: 0.1 for v in range(4)})
        assert set(low.violations()) == {0, 1, 2, 3}

    def test_boost_caps_and_quantizes(self, path4_instance):
        boosted = path4_instance.boost_values(3.0, quantize=lambda x: round(x, 1))
        assert all(var.x == 1.0 for var in boosted.value_vars.values())


class TestFractionalDominatingSet:
    """Definition 2.1 on ``from_graph``: values and demands in ``[0, 1]``,
    and every inclusive neighbourhood ``N[v]`` sums to at least ``c(v)``."""

    def test_rejects_out_of_range_values(self, triangle):
        with pytest.raises(InfeasibleSolutionError):
            CoveringInstance.from_graph(triangle, {0: 1.5})
        with pytest.raises(InfeasibleSolutionError):
            CoveringInstance.from_graph(triangle, {}, constraints={0: -0.5})

    def test_inclusive_neighborhood(self, triangle):
        # One node with value 1 covers the whole triangle.
        fds = CoveringInstance.from_graph(triangle, {0: 1.0, 1: 0.0, 2: 0.0})
        assert fds.is_feasible()
        assert fds.member_sum(2) == 1.0

    def test_violations_reported(self):
        g = normalize_graph(nx.path_graph(4))
        fds = CoveringInstance.from_graph(g, {0: 1.0, 1: 0.0, 2: 0.0, 3: 0.0})
        assert fds.violations() == [2, 3]
        assert not fds.is_feasible()
        with pytest.raises(InfeasibleSolutionError):
            fds.require_feasible("FDS")

    def test_fractional_coverage(self, triangle):
        fds = CoveringInstance.from_graph(triangle, {v: 1.0 / 3.0 for v in triangle.nodes()})
        assert fds.is_feasible()
        assert fds.size() == pytest.approx(1.0)

    def test_partial_constraints(self):
        g = normalize_graph(nx.path_graph(2))
        fds = CoveringInstance.from_graph(g, {0: 0.4}, constraints={0: 0.4, 1: 0.3})
        assert fds.is_feasible()
        assert fds.member_sums() - fds.c == pytest.approx([0.0, 0.1])

    def test_size_and_fractionality(self, triangle):
        values = {0: 0.5, 1: 0.25, 2: 0.5}
        assert CoveringInstance.from_graph(triangle, values).size() == pytest.approx(1.25)
        assert fractionality_of(values) == pytest.approx(0.25)

    def test_fractionality_of_all_zero(self):
        assert fractionality_of({0: 0.0}) == float("inf")

    def test_require_feasible_message(self):
        g = normalize_graph(nx.path_graph(5))
        fds = CoveringInstance.from_graph(g, {0: 1.0, 1: 0.0, 2: 0.0, 3: 0.2, 4: 0.0})
        with pytest.raises(InfeasibleSolutionError) as err:
            fds.require_feasible("Part II iteration 3")
        assert str(err.value) == "Part II iteration 3 infeasible at 3 nodes; worst: node 2 slack -0.8"
        CoveringInstance.from_graph(g, {v: 0.5 for v in g}).require_feasible("FDS")

    def test_self_loop_counts_once(self):
        """A self-loop leaves ``N[0] = {0, 1}``, which sums to 0.5 here."""
        g = normalize_graph(nx.path_graph(3))
        g.add_edge(0, 0)
        fds = CoveringInstance.from_graph(g, {0: 0.5, 1: 0.0, 2: 1.0})
        assert fds.violations() == [0]
        with pytest.raises(InfeasibleSolutionError, match="at 1 nodes; worst: node 0 slack -0.5"):
            fds.require_feasible("FDS")


@settings(max_examples=30, deadline=None)
@given(st.integers(3, 25), st.integers(0, 5))
def test_all_ones_is_feasible_with_size_n(n, seed):
    g = gnp_graph(n, 4.0 / n, seed=seed)
    ones = CoveringInstance.from_graph(g, {v: 1.0 for v in g.nodes()})
    assert ones.is_feasible()
    assert ones.size() == n


class TestPrune:
    def test_prune_keeps_cover(self):
        g = normalize_graph(nx.star_graph(5))
        center = max(g.nodes(), key=g.degree)
        values = {v: (1.0 if v == center else 0.5) for v in g.nodes()}
        inst = CoveringInstance.from_graph(g, values)
        pruned = inst.prune_to_cover(max_members=1)
        # Every constraint can be covered by the center alone.
        for cn in pruned.constraints.values():
            assert pruned.member_sum(cn.id) >= cn.c - 1e-9
            assert len(cn.members) == 1

    def test_prune_respects_limit(self, path4_instance):
        # Fractionality 1/2 -> at most 2 members needed.
        pruned = path4_instance.prune_to_cover(max_members=2)
        assert pruned.max_constraint_degree <= 2
        with pytest.raises(InfeasibleSolutionError):
            path4_instance.prune_to_cover(max_members=1)

    def test_prune_requires_feasible(self):
        g = normalize_graph(nx.path_graph(3))
        inst = CoveringInstance.from_graph(g, {v: 0.1 for v in g.nodes()})
        with pytest.raises(InfeasibleSolutionError):
            inst.prune_to_cover()


class TestSplit:
    def _uniform_instance(self, n=16, d=5, x=None):
        import networkx as nx

        from repro.graphs.generators import regular_graph

        g = regular_graph(n, d, seed=3)
        x = x if x is not None else 1.0 / (d + 1)
        values = {v: x for v in g.nodes()}
        return g, CoveringInstance.from_graph(g, values), values

    def test_split_partitions_members(self):
        g, inst, values = self._uniform_instance()
        split = inst.split_constraints(values, participation_threshold=1.0, s=2)
        # All members participate (threshold 1.0 > any value): every original
        # constraint of degree 6 splits into 3 chunks of 2.
        assert split.num_constraints == inst.num_constraints * 3
        originals = {}
        for cn in split.constraints.values():
            originals.setdefault(cn.origin, []).append(cn.members)
        for origin, groups in originals.items():
            flattened = sorted(u for grp in groups for u in grp)
            assert flattened == list(inst.constraints[origin].members)

    def test_split_demands_sum_to_coverage(self):
        g, inst, values = self._uniform_instance()
        split = inst.split_constraints(values, participation_threshold=1.0, s=2)
        for origin in inst.constraints:
            parts = [cn for cn in split.constraints.values() if cn.origin == origin]
            total = sum(cn.c for cn in parts)
            assert total >= min(1.0, inst.member_sum(origin)) - 1e-9

    def test_split_feasible_with_original_values(self):
        g, inst, values = self._uniform_instance()
        split = inst.split_constraints(values, participation_threshold=1.0, s=2)
        assert split.is_feasible(values)

    def test_high_values_stay_on_first_copy(self):
        g = normalize_graph(nx.star_graph(7))
        center = max(g.nodes(), key=g.degree)
        values = {v: (0.9 if v == center else 0.05) for v in g.nodes()}
        inst = CoveringInstance.from_graph(g, values)
        split = inst.split_constraints(values, participation_threshold=0.5, s=2)
        center_constraints = [
            cn for cn in split.constraints.values() if cn.origin == center
        ]
        # The center's high-value copy exists and contains only the center.
        assert any(cn.members == (center,) for cn in center_constraints)

    def test_chunk_sizes_in_s_2s(self):
        g, inst, values = self._uniform_instance(n=30, d=9)
        split = inst.split_constraints(values, participation_threshold=1.0, s=3)
        for cn in split.constraints.values():
            assert 1 <= len(cn.members) <= 6

    def test_invalid_s(self, path4_instance):
        with pytest.raises(InfeasibleSolutionError):
            path4_instance.split_constraints({}, 0.5, s=0)


class TestConflictAndProjection:
    def test_value_conflict_graph(self, path4_instance):
        conflict = value_conflict_graph(path4_instance)
        # Vars 0 and 2 share constraint 1 -> conflict edge.
        assert conflict.has_edge(0, 2)
        assert not conflict.has_edge(0, 3)

    def test_conflict_restriction(self, path4_instance):
        conflict = value_conflict_graph(path4_instance, restrict={0, 3})
        assert set(conflict.nodes()) == {0, 3}
        assert conflict.number_of_edges() == 0

    def test_projection_max_and_joins(self):
        vars_ = [ValueVar(0, 0.5, origin=10), ValueVar(1, 0.5, origin=10)]
        cons = [Constraint(0, 1.0, (0, 1), origin=11)]
        inst = CoveringInstance(vars_, cons)
        projected = inst.project({0: 0.2, 1: 0.7}, joined_origins=[11])
        assert projected[10] == pytest.approx(0.7)
        assert projected[11] == 1.0


def test_round_trip_on_random_graph():
    g = gnp_graph(25, 0.2, seed=11)
    values = {v: 0.3 for v in g.nodes()}
    inst = CoveringInstance.from_graph(g, values)
    assert inst.values() == values
    new = inst.with_values({v: 0.4 for v in g.nodes()})
    assert new.size() == pytest.approx(0.4 * 25)
    assert inst.size() == pytest.approx(0.3 * 25)


def test_self_loops_leave_every_route_unchanged():
    """A self-loop leaves ``N[v]`` as it is: the covering arrays, the LP,
    the ILP, the LP bound, water-filling, repair, Theorem 1.2 with either
    Part I, the decomposition route, the randomized route with either kind
    of coins and the approximation bound give what they give on the
    loop-free graph."""
    plain = gnp_graph(40, 0.15, seed=3)
    looped = plain.copy()
    looped.add_edges_from((v, v) for v in range(40))

    def outputs(graph):
        inst = CoveringInstance.from_graph(graph, {v: 0.0 for v in graph})
        lp = solve_covering_lp(inst)
        out = [
            inst.indptr.tolist(), inst.members.tolist(), lp.optimum,
            list(lp.values.items()), sorted(solve_mds_ilp(graph).nodes),
            lp_lower_bound(graph), list(distributed_fractional_mds(graph).values.items()),
            list(repair_feasibility(graph, {v: 0.1 for v in graph}).items()),
        ]
        for provider in ("lp", "distributed"):
            result = approx_mds_coloring(
                graph, params=PipelineParams(eps=0.5, part1_provider=provider)
            )
            out += [sorted(result.dominating_set), result.ledger.entries, result.params]
        result = approx_mds_decomposition(graph, eps=0.5)
        out += [sorted(result.dominating_set), result.ledger.entries, result.params,
                result.approximation_bound()]
        forced = PipelineParams(eps=0.5, eps2_override=0.3, f_target_override=8.0)
        for params in (PipelineParams(eps=0.5), forced):
            for kwise in (None, 8):
                result = approx_mds_randomized(graph, seed=1, kwise=kwise, params=params)
                out += [sorted(result.dominating_set), result.ledger.entries, result.params]
        return out

    assert outputs(looped) == outputs(plain)
