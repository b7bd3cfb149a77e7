"""The abstract randomized rounding process (Section 3.1, Lemma 3.1) and
its two schemes (Section 3.2)."""

import math
import random

import networkx as nx
import pytest

from repro.domsets.covering import CoveringInstance
from repro.errors import InfeasibleSolutionError, RandomnessError
from repro.graphs.generators import regular_graph
from repro.graphs.normalize import normalize_graph
from repro.rounding.abstract import (
    RoundingScheme,
    exact_uncovered_probability,
    execute_rounding,
    expected_output_size,
)
from repro.rounding.coins import fixed_coins, independent_coins, kwise_coins
from repro.rounding.schemes import factor_two_scheme, one_shot_scheme


@pytest.fixture
def uniform_regular():
    g = regular_graph(16, 5, seed=2)
    values = {v: 1.0 / 6.0 for v in g.nodes()}
    return g, CoveringInstance.from_graph(g, values)


class TestSchemeValidation:
    def test_requires_p_at_least_x(self, uniform_regular):
        _, inst = uniform_regular
        with pytest.raises(InfeasibleSolutionError):
            RoundingScheme(inst, {u: 0.01 for u in inst.value_vars}, "bad")

    def test_rejects_zero_probability(self, uniform_regular):
        _, inst = uniform_regular
        zero = inst.with_values({u: 0.0 for u in inst.value_vars})
        with pytest.raises(InfeasibleSolutionError):
            RoundingScheme(zero, {u: 0.0 for u in zero.value_vars}, "bad")


class TestOneShotScheme:
    def test_boost_is_log_delta_tilde(self, uniform_regular):
        _, inst = uniform_regular
        scheme = one_shot_scheme(inst, delta_tilde=6)
        boost = math.log(6)
        for u, var in scheme.instance.value_vars.items():
            assert var.x == pytest.approx(min(1.0, boost / 6.0))
            assert scheme.p[u] == pytest.approx(var.x)

    def test_phase_one_values_are_binary(self, uniform_regular):
        _, inst = uniform_regular
        scheme = one_shot_scheme(inst, delta_tilde=6)
        rng = random.Random(0)
        outcome = execute_rounding(scheme, independent_coins(scheme, rng))
        assert set(outcome.phase_one.values()) <= {0.0, 1.0}

    def test_capped_values_deterministic(self):
        g = normalize_graph(nx.star_graph(3))
        inst = CoveringInstance.from_graph(g, {v: 0.9 for v in g.nodes()})
        scheme = one_shot_scheme(inst, delta_tilde=4)
        assert all(p == 1.0 for p in scheme.p.values())
        assert scheme.participating() == []


class TestFactorTwoScheme:
    def test_threshold_partition(self, uniform_regular):
        _, inst = uniform_regular
        scheme = factor_two_scheme(inst, eps=0.5, r=6.0)
        threshold = 2.0 / 6.0
        for u, var in scheme.instance.value_vars.items():
            if var.x < threshold:
                assert scheme.p[u] == 0.5
            else:
                assert scheme.p[u] == 1.0

    def test_success_doubles(self, uniform_regular):
        _, inst = uniform_regular
        scheme = factor_two_scheme(inst, eps=0.5, r=6.0)
        for u in scheme.participating():
            assert scheme.success_value(u) == pytest.approx(
                2.0 * scheme.instance.value_vars[u].x
            )

    def test_requires_r_at_least_4(self, uniform_regular):
        _, inst = uniform_regular
        with pytest.raises(InfeasibleSolutionError):
            factor_two_scheme(inst, eps=0.5, r=2.0)
        with pytest.raises(InfeasibleSolutionError):
            factor_two_scheme(inst, eps=0.0, r=8.0)

    def test_fractionality_after(self, uniform_regular):
        """Lemma 3.1 part 1: output fractionality is min x/p."""
        _, inst = uniform_regular
        scheme = factor_two_scheme(inst, eps=0.5, r=6.0)
        assert scheme.fractionality_after == pytest.approx(
            min(scheme.success_value(u) for u in scheme.instance.value_vars)
        )


class TestExecutionLemma31:
    """Lemma 3.1: feasibility of the output and the expected-size formula."""

    def test_output_always_feasible(self, uniform_regular):
        g, inst = uniform_regular
        scheme = factor_two_scheme(inst, eps=0.5, r=6.0)
        for seed in range(25):
            outcome = execute_rounding(
                scheme, independent_coins(scheme, random.Random(seed))
            )
            fds = CoveringInstance.from_graph(g, outcome.projected)
            assert fds.is_feasible(), f"seed {seed} produced infeasible output"

    def test_expected_size_formula_monte_carlo(self):
        """E[Z] == A + sum Pr(E_v), validated by exact enumeration of the
        per-constraint probabilities and Monte-Carlo over full executions."""
        g = normalize_graph(nx.cycle_graph(6))
        inst = CoveringInstance.from_graph(g, {v: 1.0 / 3.0 for v in g.nodes()})
        scheme = factor_two_scheme(inst, eps=0.2, r=4.0)
        exact = {
            cid: exact_uncovered_probability(scheme, cid)
            for cid in scheme.instance.constraints
        }
        expected = expected_output_size(scheme, exact)
        trials = 4000
        rng = random.Random(7)
        total = 0.0
        for _ in range(trials):
            outcome = execute_rounding(scheme, independent_coins(scheme, rng))
            total += outcome.accounted_size
        assert total / trials == pytest.approx(expected, rel=0.05)

    def test_joined_origins_cover_violations(self, uniform_regular):
        g, inst = uniform_regular
        scheme = one_shot_scheme(inst, delta_tilde=6)
        outcome = execute_rounding(scheme, fixed_coins(
            {u: False for u in scheme.participating()}
        ))
        # With all coins failing, every constraint is violated; each origin
        # joins, and the projection is the all-ones solution.
        assert outcome.joined_origins == set(g.nodes())
        assert all(v == 1.0 for v in outcome.projected.values())

    def test_deterministic_with_fixed_coins(self, uniform_regular):
        _, inst = uniform_regular
        scheme = factor_two_scheme(inst, eps=0.5, r=6.0)
        decisions = {u: (u % 2 == 0) for u in scheme.participating()}
        a = execute_rounding(scheme, fixed_coins(decisions))
        b = execute_rounding(scheme, fixed_coins(decisions))
        assert a.phase_one == b.phase_one
        assert a.joined_origins == b.joined_origins


class TestExactUncoveredOracle:
    def test_fully_covered_is_zero(self):
        g = normalize_graph(nx.path_graph(3))
        inst = CoveringInstance.from_graph(g, {v: 1.0 for v in g.nodes()})
        scheme = one_shot_scheme(inst, delta_tilde=3)
        for cid in inst.constraints:
            assert exact_uncovered_probability(scheme, cid) == 0.0

    def test_single_coin(self):
        g = normalize_graph(nx.Graph())
        g.add_node(0)
        inst = CoveringInstance.from_graph(g, {0: 0.5})
        scheme = RoundingScheme(inst, {0: 0.5}, "manual")
        assert exact_uncovered_probability(scheme, 0) == pytest.approx(0.5)

    def test_enumeration_limit(self, medium_gnp):
        inst = CoveringInstance.from_graph(
            medium_gnp, {v: 0.1 for v in medium_gnp.nodes()}
        )
        scheme = RoundingScheme(
            inst, {u: 0.5 for u in inst.value_vars}, "manual"
        )
        dense = max(
            inst.constraints, key=lambda c: len(inst.constraints[c].members)
        )
        with pytest.raises(InfeasibleSolutionError):
            exact_uncovered_probability(scheme, dense, enum_limit=3)


class TestKWiseCoinsIntegration:
    def test_kwise_capacity_guard(self, uniform_regular):
        _, inst = uniform_regular
        scheme = factor_two_scheme(inst, eps=0.5, r=6.0)
        with pytest.raises(RandomnessError):
            kwise_coins(scheme, k=2, m=2)  # 2^2 = 4 < participants

    def test_kwise_rounding_feasible(self, uniform_regular):
        g, inst = uniform_regular
        scheme = factor_two_scheme(inst, eps=0.5, r=6.0)
        coins = kwise_coins(scheme, k=8, m=12, rng=random.Random(3))
        outcome = execute_rounding(scheme, coins)
        assert CoveringInstance.from_graph(g, outcome.projected).is_feasible()
