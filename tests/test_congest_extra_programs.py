"""Distributed greedy MDS, distributed color reduction, and the LOCAL-model
pipeline (Corollary 1.3)."""

import networkx as nx
import pytest

from repro.analysis.verify import is_dominating_set
from repro.baselines.greedy import greedy_mds
from repro.coloring.greedy import validate_coloring
from repro.congest.engine import run_stacked
from repro.congest.network import Network
from repro.congest.programs.color_reduction import (
    ColorReductionProgram,
    run_color_reduction,
)
from repro.congest.programs.greedy_mds import run_distributed_greedy
from repro.errors import BatchEligibilityError
from repro.graphs.generators import regular_graph, star_graph
from repro.mds.local_model import approx_mds_local, corollary13_round_formula
from repro.mds.deterministic import approx_mds_coloring


class TestDistributedGreedy:
    def test_valid_on_zoo(self, zoo_graph):
        ds, _ = run_distributed_greedy(zoo_graph)
        assert is_dominating_set(zoo_graph, ds)

    def test_star_picks_center(self):
        g = star_graph(7)
        ds, sim = run_distributed_greedy(g)
        center = max(g.nodes(), key=g.degree)
        assert ds == {center}
        assert sim.rounds <= 12

    def test_quality_tracks_sequential_greedy(self, medium_gnp):
        ds, _ = run_distributed_greedy(medium_gnp)
        sequential = greedy_mds(medium_gnp)
        assert len(ds) <= 2 * len(sequential) + 2

    def test_deterministic(self, small_gnp):
        a, _ = run_distributed_greedy(small_gnp)
        b, _ = run_distributed_greedy(small_gnp)
        assert a == b

    def test_messages_within_budget(self, small_gnp):
        network = Network.congest(small_gnp)
        _, sim = run_distributed_greedy(small_gnp, network=network)
        assert sim.max_message_bits <= network.bit_budget

    def test_phase_structure(self, small_tree):
        _, sim = run_distributed_greedy(small_tree)
        # 4 rounds per phase, at least one phase.
        assert sim.rounds >= 4


class TestDistributedColorReduction:
    def test_reaches_delta_plus_one(self, zoo_graph):
        colors, _ = run_color_reduction(zoo_graph)
        used = validate_coloring(zoo_graph, colors)
        delta = max((d for _, d in zoo_graph.degree()), default=0)
        assert used <= delta + 1

    def test_rounds_linear_in_n(self, small_gnp):
        _, sim = run_color_reduction(small_gnp)
        assert sim.rounds <= small_gnp.number_of_nodes() + 2

    def test_custom_initial_coloring(self, path5):
        initial = {v: v + 1 for v in path5.nodes()}
        colors, _ = run_color_reduction(path5, initial=initial)
        used = validate_coloring(path5, colors)
        assert used <= 3

    @staticmethod
    def _routes(net, initial):
        """Each route's result, or the type and text of what it raised."""
        outcomes = {}
        for route in ("reference", "fast", "vector", "stacked"):
            try:
                if route == "stacked":
                    result = run_stacked(
                        [net], ColorReductionProgram, [initial], net.n + 4
                    )[0]
                else:
                    result = run_color_reduction(
                        None, initial=initial, network=net, engine=route
                    )[1]
                outcomes[route] = result
            except (ValueError, BatchEligibilityError) as exc:
                outcomes[route] = (type(exc), str(exc))
        return outcomes

    def test_colors_beyond_exact_plane_range_fall_back(self):
        """2**60 is a legal color (77-bit messages, inside the budget): the
        vector kernel declines it, solo vector runs FastEngine semantics and
        the stacked boot declines the group, so the batch runner falls back
        per cell."""
        net = Network.congest(nx.path_graph(4))
        outcomes = self._routes(net, {0: 2**60, 1: 3, 2: 1, 3: 0})
        reference = outcomes["reference"]
        assert reference.max_message_bits == 77
        assert outcomes["fast"] == reference
        assert outcomes["vector"] == reference
        assert outcomes["stacked"][0] is BatchEligibilityError

    def test_negative_color_raises_what_setup_raises(self):
        net = Network.congest(nx.path_graph(4))
        outcomes = self._routes(net, {0: -1})
        expected = (ValueError, "message fields must be non-negative, got -1")
        assert outcomes == dict.fromkeys(outcomes, expected)

    def test_matches_centralized_palette_size(self, small_regular):
        from repro.coloring.reduction import reduce_coloring

        distributed, _ = run_color_reduction(small_regular)
        central = reduce_coloring(
            small_regular, {v: v for v in small_regular.nodes()}
        )
        delta = max(d for _, d in small_regular.degree())
        assert len(set(distributed.values())) <= delta + 1
        assert central.num_colors <= delta + 1


class TestLocalModel:
    def test_same_output_as_congest_route(self, medium_gnp):
        local = approx_mds_local(medium_gnp, eps=0.5)
        congest = approx_mds_coloring(medium_gnp, eps=0.5)
        assert local.dominating_set == congest.dominating_set
        assert local.route == "local"

    def test_local_coloring_charge_never_higher(self):
        """Corollary 1.3: the LOCAL coloring pays log* n once, so with left
        degree > 1 the LOCAL charge is strictly below CONGEST's."""
        g = regular_graph(24, 5, seed=8)
        values = {v: 1.0 / 6.0 for v in g.nodes()}
        from repro.derand.coloring_based import one_shot_via_coloring
        from repro.domsets.covering import CoveringInstance

        congest = one_shot_via_coloring(CoveringInstance.from_graph(g, values), model="congest")
        local = one_shot_via_coloring(CoveringInstance.from_graph(g, values), model="local")
        c_rounds = congest.ledger.by_stage()["lemma3.12-coloring"]
        l_rounds = local.ledger.by_stage()["lemma3.12-coloring"]
        assert l_rounds < c_rounds

    def test_charged_rounds_for_validation(self):
        from repro.coloring.distance2 import Distance2Coloring
        from repro.errors import ColoringError

        col = Distance2Coloring({}, 0, 10, 0, delta_l=3, delta_r=4)
        assert col.charged_rounds_for("congest", 100) == 10
        assert col.charged_rounds_for("local", 100) < 3 * 4 + 10
        with pytest.raises(ColoringError):
            col.charged_rounds_for("quantum", 100)

    def test_formula_monotone(self):
        assert corollary13_round_formula(100, 20, 0.5) > corollary13_round_formula(
            100, 5, 0.5
        )
        assert corollary13_round_formula(100, 10, 0.25) > corollary13_round_formula(
            100, 10, 0.5
        )

    def test_dominating_and_bounded(self, small_geometric):
        from repro.analysis.bounds import theorem11_approximation_bound
        from repro.fractional.lp import lp_fractional_mds

        result = approx_mds_local(small_geometric, eps=0.5)
        assert is_dominating_set(small_geometric, result.dominating_set)
        lp = lp_fractional_mds(small_geometric)
        delta = max(d for _, d in small_geometric.degree())
        assert result.size <= theorem11_approximation_bound(0.5, delta) * lp.optimum + 1e-9
