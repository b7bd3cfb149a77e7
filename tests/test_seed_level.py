"""Seed-bit-level Lemma 3.4 derandomization (exact, small clusters)."""

import math

import pytest

from repro.analysis.verify import is_dominating_set
from repro.decomposition.ball_carving import carve_decomposition
from repro.derand.estimators import EstimatorConfig
from repro.derand.seed_level import SeedLevelDerandomizer
from repro.domsets.covering import CoveringInstance
from repro.errors import DerandomizationError
from repro.fractional.raising import kmw06_initial_fds
from repro.graphs.generators import gnp_graph, random_tree
from repro.randomness.kwise import KWiseCoins
from repro.rounding.schemes import one_shot_scheme
from tests.test_estimators import make


def one_shot_setup(graph):
    initial = kmw06_initial_fds(graph, eps=0.5)
    delta_tilde = max(d for _, d in graph.degree()) + 1
    base = CoveringInstance.from_graph(graph, initial.values)
    scheme = one_shot_scheme(base, delta_tilde)
    decomposition = carve_decomposition(graph, separation_k=2)
    return scheme, decomposition, initial


class TestSeedLevel:
    @pytest.mark.parametrize("seed", [1, 5])
    def test_produces_dominating_set(self, seed):
        graph = gnp_graph(30, 0.12, seed=seed)
        scheme, decomposition, _ = one_shot_setup(graph)
        derand = SeedLevelDerandomizer(
            scheme, decomposition, config=EstimatorConfig(mode="exact-product")
        )
        result = derand.run()
        ds = {o for o, x in result.outcome.projected.items() if x >= 1 - 1e-9}
        assert is_dominating_set(graph, ds)

    def test_budget_invariant(self):
        graph = gnp_graph(28, 0.15, seed=2)
        scheme, decomposition, _ = one_shot_setup(graph)
        result = SeedLevelDerandomizer(
            scheme, decomposition, config=EstimatorConfig(mode="exact-product")
        ).run()
        assert result.realized_size <= result.initial_estimate + 1e-6

    def test_decisions_reconstructable_from_seeds(self):
        """The recorded per-cluster seeds regenerate the committed coins —
        i.e. the output really is a function of the shared seeds alone."""
        graph = gnp_graph(26, 0.15, seed=3)
        scheme, decomposition, _ = one_shot_setup(graph)
        result = SeedLevelDerandomizer(
            scheme, decomposition, config=EstimatorConfig(mode="exact-product")
        ).run()
        for record in result.records:
            if record.method != "seed":
                continue
            family = KWiseCoins(k=record.k, m=record.m, seed_bits=record.seed_bits)
            scale = 1 << record.m
            for i, u in enumerate(record.members):
                numerator = int(scheme.p[u] * scale)
                assert result.decisions[u] == family.coin(i, numerator)
        assert result.clusters_via_seed >= 1

    def test_seed_usage_reported(self):
        graph = random_tree(24, seed=4)
        scheme, decomposition, _ = one_shot_setup(graph)
        result = SeedLevelDerandomizer(scheme, decomposition).run()
        assert {r.method for r in result.records} <= {"seed", "coin-fallback"}
        assert result.clusters_via_seed + result.clusters_via_fallback == len(result.records)
        # Every participating variable got a decision from some record.
        covered = {u for r in result.records for u in r.members}
        assert covered == set(result.decisions)

    def test_fallback_engages_for_tiny_budget(self):
        graph = gnp_graph(26, 0.2, seed=5)
        scheme, decomposition, _ = one_shot_setup(graph)
        result = SeedLevelDerandomizer(
            scheme, decomposition, max_seed_bits=0
        ).run()
        assert result.clusters_via_seed == 0
        assert result.clusters_via_fallback >= 1
        ds = {o for o, x in result.outcome.projected.items() if x >= 1 - 1e-9}
        assert is_dominating_set(graph, ds)

    def test_quality_close_to_coin_level(self):
        """Seed-level and coin-level land within the same Lemma 3.8 budget."""
        graph = gnp_graph(30, 0.14, seed=6)
        scheme, decomposition, initial = one_shot_setup(graph)
        seed_result = SeedLevelDerandomizer(
            scheme, decomposition, config=EstimatorConfig(mode="exact-product")
        ).run()
        from repro.derand.decomposition_based import one_shot_via_decomposition

        coin_result = one_shot_via_decomposition(
            graph, initial.values, decomposition=decomposition
        )
        size_seed = sum(
            1 for x in seed_result.outcome.projected.values() if x >= 1 - 1e-9
        )
        size_coin = sum(
            1 for x in coin_result.values.values() if x >= 1 - 1e-9
        )
        delta_tilde = max(d for _, d in graph.degree()) + 1
        bound = math.log(delta_tilde) * initial.raised_size + \
            graph.number_of_nodes() / delta_tilde + 1.0
        assert size_seed <= bound
        assert size_coin <= bound

    def test_deterministic(self):
        graph = gnp_graph(24, 0.16, seed=7)
        scheme, decomposition, _ = one_shot_setup(graph)
        a = SeedLevelDerandomizer(scheme, decomposition).run()
        b = SeedLevelDerandomizer(scheme, decomposition).run()
        assert a.decisions == b.decisions
        assert [r.seed_bits for r in a.records] == [r.seed_bits for r in b.records]


class TestPhiGiven:
    """The several-coins query of one-row estimators."""

    def test_matches_sequential_fixing(self):
        coins = {1: (1.0, 0.3), 2: (1.0, 0.5), 3: (1.0, 0.7)}
        est = make(1.0, 0.0, dict(coins), "exact-product")
        joint = est.phi_given({1: False, 2: False})
        est.fix(1, False)
        est.fix(2, False)
        assert est.phi() == pytest.approx(joint)

    def test_success_covers(self):
        est = make(1.0, 0.0, {1: (1.0, 0.3), 2: (1.0, 0.5)}, "exact-product")
        assert est.phi_given({1: True}) == 0.0

    def test_chernoff_joint(self):
        coins = {1: (0.3, 0.5), 2: (0.3, 0.5), 3: (0.3, 0.5)}
        est = make(1.0, 0.0, dict(coins), "chernoff")
        joint = est.phi_given({1: True, 2: False})
        est.fix(1, True)
        est.fix(2, False)
        assert est.phi() == pytest.approx(joint, abs=1e-9)

    def test_one_coin_matches_phi_if(self):
        for mode in ("exact-product", "chernoff", "exact-enum"):
            est = make(1.0, 0.2, {1: (1.0, 0.3), 2: (1.0, 0.5)}, mode)
            for success in (False, True):
                assert est.phi_given({2: success}) == est.phi_if(2, success)

    def test_unknown_coin_rejected(self):
        est = make(1.0, 0.5, {1: (1.0, 0.3), 2: (1.0, 0.4)}, "exact-product")
        with pytest.raises(DerandomizationError, match="coin -1 is not free"):
            est.phi_given({-1: True})
        est.fix(2, False)
        with pytest.raises(DerandomizationError, match="coin 2 is not free"):
            est.phi_given({1: False, 2: True})
