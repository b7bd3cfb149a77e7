"""Section 5 generalizations: set cover and weighted dominating set."""

import itertools
import math

import networkx as nx
import pytest

from repro.analysis.verify import is_dominating_set
from repro.errors import GraphError, InfeasibleSolutionError
from repro.graphs.generators import star_graph
from repro.graphs.suite import suite_instance
from repro.setcover.instance import SetCoverInstance, random_setcover_instance
from repro.setcover.solve import approx_min_set_cover, greedy_set_cover
from repro.weighted.mds import approx_weighted_mds, greedy_weighted_mds


def brute_force_set_cover(instance):
    ids = sorted(instance.sets)
    best = None
    for size in range(1, len(ids) + 1):
        for combo in itertools.combinations(ids, size):
            if instance.is_cover(combo):
                weight = instance.cover_weight(combo)
                if best is None or weight < best:
                    best = weight
        if best is not None and instance.weights is None:
            return best  # unweighted: first feasible size is optimal
    return best


class TestSetCoverInstance:
    def test_uncoverable_rejected(self):
        with pytest.raises(InfeasibleSolutionError):
            SetCoverInstance.from_iterables({0: [1]}, universe=[1, 2])

    def test_stats(self):
        inst = SetCoverInstance.from_iterables(
            {0: [1, 2], 1: [2, 3], 2: [3]}, universe=[1, 2, 3]
        )
        assert inst.max_element_frequency == 2
        assert inst.max_set_size == 2

    def test_to_covering_structure(self):
        inst = SetCoverInstance.from_iterables(
            {0: [1, 2], 1: [2, 3]}, universe=[1, 2, 3]
        )
        covering = inst.to_covering()
        assert covering.num_vars == 2
        assert covering.num_constraints == 3
        # Element 2 is covered by both sets.
        members = {cn.members for cn in covering.constraints.values()}
        assert (0, 1) in members

    def test_random_instance_always_coverable(self):
        for seed in range(5):
            inst = random_setcover_instance(30, 10, 5, seed=seed)
            assert inst.is_cover(inst.sets.keys())

    def test_weights(self):
        inst = random_setcover_instance(20, 8, 5, seed=1, weighted=True)
        assert all(w > 1.0 for w in inst.weights.values())
        assert inst.cover_weight([0, 0, 1]) == inst.weight_of(0) + inst.weight_of(1)


class TestGreedySetCover:
    def test_covers(self):
        inst = random_setcover_instance(40, 15, 7, seed=2)
        assert inst.is_cover(greedy_set_cover(inst))

    def test_harmonic_bound_vs_optimum(self):
        inst = random_setcover_instance(16, 8, 5, seed=3)
        greedy_w = inst.cover_weight(greedy_set_cover(inst))
        opt = brute_force_set_cover(inst)
        h = sum(1.0 / i for i in range(1, inst.max_set_size + 1))
        assert greedy_w <= h * opt + 1e-9

    def test_weighted_prefers_cheap(self):
        inst = SetCoverInstance.from_iterables(
            {0: [1, 2, 3], 1: [1, 2], 2: [3]},
            universe=[1, 2, 3],
            weights={0: 100.0, 1: 1.0, 2: 1.0},
        )
        chosen = greedy_set_cover(inst)
        assert chosen == {1, 2}


class TestDerandomizedSetCover:
    @pytest.mark.parametrize("weighted", [False, True])
    def test_valid_and_bounded(self, weighted):
        inst = random_setcover_instance(50, 20, 8, seed=4, weighted=weighted)
        result = approx_min_set_cover(inst)
        assert inst.is_cover(result.chosen)
        f = inst.max_element_frequency
        assert result.weight <= (math.log(max(2, f)) + 2.0) * result.lp_optimum + 1e-6

    def test_deterministic(self):
        inst = random_setcover_instance(30, 12, 6, seed=5)
        a = approx_min_set_cover(inst)
        b = approx_min_set_cover(inst)
        assert a.chosen == b.chosen

    def test_empty_instance_gives_empty_cover(self):
        for sets in ({}, {0: []}):
            result = approx_min_set_cover(SetCoverInstance.from_iterables(sets, []))
            assert result.chosen == set()
            assert result.lp_optimum == 0.0

    def test_vs_brute_force_small(self):
        inst = random_setcover_instance(14, 7, 5, seed=6)
        result = approx_min_set_cover(inst)
        opt = brute_force_set_cover(inst)
        assert result.weight <= (math.log(max(2, inst.max_element_frequency)) + 2) * opt + 1e-9


class TestWeightedMDS:
    def test_uniform_weights_match_unweighted_shape(self, medium_gnp):
        weights = {v: 1.0 for v in medium_gnp.nodes()}
        result = approx_weighted_mds(medium_gnp, weights)
        assert is_dominating_set(medium_gnp, result.dominating_set)
        assert result.weight == len(result.dominating_set)

    def test_respects_weights(self):
        """Star where the center is expensive: the LP + rounding should not
        pay more than ln-factor over the cheap-leaf optimum."""
        g = star_graph(6)
        center = max(g.nodes(), key=g.degree)
        weights = {v: (50.0 if v == center else 1.0) for v in g.nodes()}
        result = approx_weighted_mds(g, weights)
        assert is_dominating_set(g, result.dominating_set)
        greedy_w = sum(
            weights[v] for v in greedy_weighted_mds(g, weights)
        )
        assert result.weight <= max(3.0 * greedy_w, 10.0)

    def test_bound_vs_weighted_lp(self, small_gnp):
        import random

        rng = random.Random(3)
        weights = {v: 1.0 + 4.0 * rng.random() for v in small_gnp.nodes()}
        result = approx_weighted_mds(small_gnp, weights)
        delta_tilde = max(d for _, d in small_gnp.degree()) + 1
        total_w = sum(weights.values())
        bound = (
            math.log(delta_tilde) * (result.lp_optimum * 1.5)
            + total_w / delta_tilde ** 1  # loose additive for joins
            + 1.0
        )
        assert result.weight <= bound

    def test_weight_validation(self, path5):
        with pytest.raises(GraphError):
            approx_weighted_mds(path5, {0: -1.0})
        with pytest.raises(GraphError):
            approx_weighted_mds(nx.Graph(), {})

    def test_greedy_weighted_valid(self, zoo_graph):
        weights = {v: 1.0 + (v % 3) for v in zoo_graph.nodes()}
        ds = greedy_weighted_mds(zoo_graph, weights)
        assert is_dominating_set(zoo_graph, ds)

    def test_deterministic(self, small_gnp):
        weights = {v: 1.0 + (v % 5) for v in small_gnp.nodes()}
        a = approx_weighted_mds(small_gnp, weights)
        b = approx_weighted_mds(small_gnp, weights)
        assert a.dominating_set == b.dominating_set


def test_a_self_loop_leaves_the_raise_cap_alone(monkeypatch):
    """Delta~ is the largest closed neighbourhood: 7 on ``star_graph(6)``
    with or without a loop at the centre (``graph.degree()`` counts the
    loop twice and reads 9).  With ``raise_fraction=1`` the cap
    ``lam <= 1 / (2 Delta~)`` binds, so every value handed to the
    rounding is at least 1/14 and the two stars round alike."""
    import repro.weighted.mds as weighted

    plain = star_graph(6)
    looped = plain.copy()
    center = max(plain.nodes(), key=plain.degree)
    looped.add_edge(center, center)
    rounded = []
    real = weighted.one_shot_via_coloring

    def spy(base, **kwargs):
        rounded.append(base.x.tolist())
        return real(base, **kwargs)

    monkeypatch.setattr(weighted, "one_shot_via_coloring", spy)
    results = [
        approx_weighted_mds(graph, {}, raise_fraction=1.0) for graph in (plain, looped)
    ]
    assert rounded[0] == rounded[1]
    assert min(rounded[1]) == 1.0 / 14.0
    assert results[0].dominating_set == results[1].dominating_set
    assert results[0].ledger.entries == results[1].ledger.entries


def test_section5_ledgers_charge_what_they_run():
    """Set cover and weighted MDS run the coloring route's Lemma 3.13 and
    3.14 steps, so every step charges its coloring, its Lemma 3.10 loop and
    its rounding execution."""
    graph = suite_instance("gnp", 300, seed=1).graph
    sets = SetCoverInstance.from_iterables(
        {v: set(graph.neighbors(v)) | {v} for v in graph.nodes()}
    )
    gradual = approx_min_set_cover(sets, gradual=True, f_target=32.0).ledger
    direct = approx_min_set_cover(sets, f_target=32.0).ledger
    weighted = approx_weighted_mds(
        graph, {v: 1.0 + (v % 7) / 3.0 for v in graph.nodes()}
    ).ledger

    part2 = {}
    for stage in gradual.by_stage():
        if stage.startswith("part2/"):
            iteration, name = stage.split("/")[1:]
            part2.setdefault(iteration, set()).add(name)
    assert part2, "Part II charged nothing"
    for iteration, names in part2.items():
        assert names == {
            "lemma3.12-coloring", "lemma3.10-color-loop", "rounding-execution"
        }, iteration
    for ledger in (gradual, direct, weighted):
        stages = ledger.by_stage()
        assert "part3/rounding-execution" in stages
        assert not any(stage.endswith("lemma3.14-setcover") for stage in stages)
