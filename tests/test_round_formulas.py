"""Round-complexity formula helpers and ledger-charging paths."""

import networkx as nx

from repro.congest.programs.aggregate import run_tree_sum
from repro.decomposition.ball_carving import carve_decomposition
from repro.derand.coloring_based import charged_rounds_formula_theorem12
from repro.derand.decomposition_based import (
    charge_cluster_loop,
    charged_rounds_formula_theorem11,
)
from repro.congest.cost import CostLedger
from repro.domsets.covering import CoveringInstance
from repro.fractional.raising import kmw06_initial_fds
from repro.graphs.normalize import normalize_graph
from repro.rounding.schemes import one_shot_scheme


class TestFormulaShapes:
    def test_theorem11_dominated_by_decomposition_term(self):
        """For large n at fixed Delta, the 2^O(sqrt(log n log log n)) term
        dominates — Theorem 1.1's runtime is a function of n."""
        small = charged_rounds_formula_theorem11(2 ** 8, 16, 0.5)
        large = charged_rounds_formula_theorem11(2 ** 20, 16, 0.5)
        assert large > 4 * small

    def test_theorem12_dominated_by_delta_term(self):
        """For large Delta at fixed n, rounds grow ~ Delta polylog Delta —
        Theorem 1.2's runtime is a function of Delta."""
        small = charged_rounds_formula_theorem12(1000, 8, 0.5)
        large = charged_rounds_formula_theorem12(1000, 256, 0.5)
        assert large > 16 * small  # at least linear growth in Delta

    def test_theorem12_barely_grows_with_n(self):
        a = charged_rounds_formula_theorem12(2 ** 8, 16, 0.5)
        b = charged_rounds_formula_theorem12(2 ** 24, 16, 0.5)
        assert b <= 3 * a  # only the log* term moves

    def test_eps_blowup(self):
        assert charged_rounds_formula_theorem12(1000, 16, 0.25) > \
            charged_rounds_formula_theorem12(1000, 16, 0.5)


class TestChargeClusterLoop:
    def test_charges_scale_with_participants_and_depth(self, medium_gnp):
        initial = kmw06_initial_fds(medium_gnp, eps=0.5)
        delta_tilde = max(d for _, d in medium_gnp.degree()) + 1
        scheme = one_shot_scheme(
            CoveringInstance.from_graph(medium_gnp, initial.values),
            delta_tilde,
        )
        decomposition = carve_decomposition(medium_gnp, separation_k=2)
        ledger = CostLedger()
        charge_cluster_loop(ledger, scheme, decomposition)
        total = ledger.by_stage()["lemma3.4-seed-fixing"]
        # Upper bound: every participant costs one full tree aggregation.
        participants = len(scheme.participating())
        worst = participants * (2 * decomposition.max_depth + 2)
        assert 0 <= total <= worst

    def test_no_participants_charges_nothing(self, path5):
        inst = CoveringInstance.from_graph(path5, {v: 1.0 for v in path5.nodes()})
        scheme = one_shot_scheme(inst, delta_tilde=3)
        decomposition = carve_decomposition(path5)
        ledger = CostLedger()
        charge_cluster_loop(ledger, scheme, decomposition)
        assert ledger.by_stage()["lemma3.4-seed-fixing"] == 0


class TestAggregationEdgeCases:
    def test_single_node_tree(self):
        g = normalize_graph(nx.path_graph(2))
        totals, sim = run_tree_sum(g, {0: -1}, {0: (5,)})
        assert totals[0] == (5,)

    def test_missing_vector_defaults_zero(self):
        g = normalize_graph(nx.path_graph(3))
        parent = {0: -1, 1: 0, 2: 1}
        totals, _ = run_tree_sum(g, parent, {1: (7,)})
        assert totals[0] == (7,)

    def test_nodes_outside_tree_idle(self):
        g = normalize_graph(nx.path_graph(4))
        parent = {0: -1, 1: 0}  # nodes 2, 3 take no part
        totals, sim = run_tree_sum(g, parent, {0: (1,), 1: (2,)})
        assert totals[0] == (3,)
        assert 2 not in totals and 3 not in totals
