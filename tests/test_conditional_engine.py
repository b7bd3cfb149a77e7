"""The conditional-expectation engine: budget invariant, schedule rules,
determinism, and dominance over the randomized expectation."""

import random
import statistics

import networkx as nx
import pytest

from repro.derand.conditional import ConditionalExpectationEngine
from repro.derand.estimators import EstimatorConfig
from repro.domsets.covering import CoveringInstance
from repro.errors import DerandomizationError
from repro.graphs.generators import regular_graph
from repro.graphs.normalize import normalize_graph
from repro.rounding.abstract import execute_rounding
from repro.rounding.coins import independent_coins
from repro.rounding.schemes import factor_two_scheme, one_shot_scheme


def singleton_schedule(scheme):
    """Fully sequential schedule (always valid)."""
    return [[u] for u in scheme.participating()]


@pytest.fixture
def tight_scheme():
    g = regular_graph(18, 5, seed=1)
    inst = CoveringInstance.from_graph(g, {v: 1.0 / 6.0 for v in g.nodes()})
    return g, factor_two_scheme(inst, eps=0.5, r=6.0)


class TestBudgetInvariant:
    def test_realized_size_below_initial_estimate(self, tight_scheme):
        g, scheme = tight_scheme
        engine = ConditionalExpectationEngine(scheme)
        result = engine.run(singleton_schedule(scheme))
        assert result.realized_size <= result.initial_estimate + 1e-9
        assert result.final_estimate <= result.initial_estimate + 1e-9

    def test_trajectory_monotone(self, tight_scheme):
        _, scheme = tight_scheme
        engine = ConditionalExpectationEngine(scheme)
        result = engine.run(singleton_schedule(scheme))
        for a, b in zip(result.trajectory, result.trajectory[1:]):
            assert b <= a + 1e-7

    def test_output_feasible(self, tight_scheme):
        g, scheme = tight_scheme
        engine = ConditionalExpectationEngine(scheme)
        result = engine.run(singleton_schedule(scheme))
        assert CoveringInstance.from_graph(g, result.outcome.projected).is_feasible()

    def test_beats_random_average(self, tight_scheme):
        """The derandomized size is at most the randomized mean (that is the
        whole point of the method of conditional expectations)."""
        _, scheme = tight_scheme
        engine = ConditionalExpectationEngine(scheme)
        det = engine.run(singleton_schedule(scheme)).realized_size
        sizes = [
            execute_rounding(
                scheme, independent_coins(scheme, random.Random(s))
            ).accounted_size
            for s in range(60)
        ]
        assert det <= statistics.mean(sizes) + 1e-9


class TestScheduleValidation:
    def test_shared_constraint_in_batch_rejected(self, tight_scheme):
        _, scheme = tight_scheme
        participants = scheme.participating()
        # Two adjacent variables share a constraint for sure on a tight
        # regular instance: pick any constraint with two participants.
        inst = scheme.instance
        batch = None
        pset = set(participants)
        for cn in inst.constraints.values():
            inside = [u for u in cn.members if u in pset]
            if len(inside) >= 2:
                batch = inside[:2]
                break
        assert batch is not None
        engine = ConditionalExpectationEngine(scheme)
        with pytest.raises(DerandomizationError):
            engine.run([batch])

    def test_unscheduled_variable_rejected(self, tight_scheme):
        _, scheme = tight_scheme
        engine = ConditionalExpectationEngine(scheme)
        schedule = singleton_schedule(scheme)[:-1]
        with pytest.raises(DerandomizationError):
            engine.run(schedule)

    def test_double_scheduling_rejected(self, tight_scheme):
        _, scheme = tight_scheme
        engine = ConditionalExpectationEngine(scheme)
        u = scheme.participating()[0]
        with pytest.raises(DerandomizationError):
            engine.run([[u], [u]])

    def test_non_participant_rejected(self, tight_scheme):
        _, scheme = tight_scheme
        engine = ConditionalExpectationEngine(scheme)
        deterministic = [
            u for u in scheme.instance.value_vars if u not in set(scheme.participating())
        ]
        if deterministic:
            with pytest.raises(DerandomizationError):
                engine.run([[deterministic[0]]])

    def test_empty_batches_skipped(self, tight_scheme):
        _, scheme = tight_scheme
        engine = ConditionalExpectationEngine(scheme)
        schedule = [[]] + singleton_schedule(scheme) + [[]]
        result = engine.run(schedule)
        assert result.batches == len(scheme.participating())


class TestDeterminism:
    def test_identical_runs(self, tight_scheme):
        _, scheme = tight_scheme
        r1 = ConditionalExpectationEngine(scheme).run(singleton_schedule(scheme))
        r2 = ConditionalExpectationEngine(scheme).run(singleton_schedule(scheme))
        assert r1.decisions == r2.decisions
        assert r1.realized_size == r2.realized_size

    def test_batch_order_within_class_irrelevant(self):
        """Variables in one valid batch are constraint-disjoint, so any
        order of the same batching gives identical decisions."""
        g = normalize_graph(nx.path_graph(8))
        inst = CoveringInstance.from_graph(g, {v: 0.4 for v in g.nodes()})
        scheme = factor_two_scheme(inst, eps=0.2, r=5.0)
        parts = scheme.participating()
        far_apart = [u for u in parts if u in (0, 4)]
        if len(far_apart) == 2:
            rest = [[u] for u in parts if u not in far_apart]
            a = ConditionalExpectationEngine(scheme).run(
                [far_apart] + rest
            )
            b = ConditionalExpectationEngine(scheme).run(
                [list(reversed(far_apart))] + rest
            )
            assert a.decisions == b.decisions


class TestOneShotIntegration:
    def test_one_shot_dominating_set(self, medium_gnp):
        from repro.fractional.raising import kmw06_initial_fds

        initial = kmw06_initial_fds(medium_gnp, eps=0.5)
        delta_tilde = max(d for _, d in medium_gnp.degree()) + 1
        inst = CoveringInstance.from_graph(medium_gnp, initial.values)
        scheme = one_shot_scheme(inst, delta_tilde)
        engine = ConditionalExpectationEngine(
            scheme, EstimatorConfig(mode="exact-product")
        )
        result = engine.run(singleton_schedule(scheme))
        ds = {o for o, x in result.outcome.projected.items() if x >= 1 - 1e-9}
        assert CoveringInstance.from_graph(medium_gnp, dict.fromkeys(ds, 1.0)).is_feasible()
        # Lemma 3.8-style budget: ln(D~) A + n/D~ (+ tiny quantization).
        import math

        a = initial.raised_size
        n = medium_gnp.number_of_nodes()
        assert len(ds) <= math.log(delta_tilde) * a + n / delta_tilde + 1.0
