"""The two derandomization routes: Lemmas 3.13/3.14 (coloring) and
Lemmas 3.8/3.9 (decomposition)."""

import math
import re

import networkx as nx
import pytest

from repro.analysis.verify import is_dominating_set
from repro.decomposition.ball_carving import carve_decomposition
from repro.derand.coloring_based import (
    default_split_width,
    factor_two_via_coloring,
    one_shot_via_coloring,
)
from repro.derand.decomposition_based import (
    factor_two_via_decomposition,
    one_shot_via_decomposition,
    schedule_from_decomposition,
)
from repro.domsets.covering import CoveringInstance, fractionality_of
from repro.errors import DerandomizationError, InfeasibleSolutionError
from repro.fractional.raising import kmw06_initial_fds
from repro.graphs.generators import gnp_graph
from repro.graphs.normalize import normalize_graph
from repro.rounding.schemes import factor_two_scheme


@pytest.fixture
def prepared(medium_gnp):
    initial = kmw06_initial_fds(medium_gnp, eps=0.5)
    return medium_gnp, initial


class TestOneShotColoring:
    """Lemma 3.13."""

    def test_integral_dominating_set(self, prepared):
        graph, initial = prepared
        out = one_shot_via_coloring(CoveringInstance.from_graph(graph, initial.values))
        ds = {v for v, x in out.values.items() if x >= 1 - 1e-9}
        assert is_dominating_set(graph, ds)
        assert all(x in (0.0, 1.0) or x >= 1 - 1e-9 for x in out.values.values())

    def test_size_bound(self, prepared):
        """|DS| <= ln(D~) A + n/D~ + quantization slack."""
        graph, initial = prepared
        out = one_shot_via_coloring(CoveringInstance.from_graph(graph, initial.values))
        ds = {v for v, x in out.values.items() if x >= 1 - 1e-9}
        delta_tilde = max(d for _, d in graph.degree()) + 1
        n = graph.number_of_nodes()
        bound = math.log(delta_tilde) * initial.raised_size + n / delta_tilde + 1.0
        assert len(ds) <= bound

    def test_estimator_budget(self, prepared):
        graph, initial = prepared
        out = one_shot_via_coloring(CoveringInstance.from_graph(graph, initial.values))
        assert out.result.realized_size <= out.result.initial_estimate + 1e-6

    def test_colors_bounded_by_f_delta(self, prepared):
        """Lemma 3.13's palette: O(F * Delta~) colors after pruning."""
        graph, initial = prepared
        out = one_shot_via_coloring(CoveringInstance.from_graph(graph, initial.values))
        delta_tilde = max(d for _, d in graph.degree()) + 1
        f_cap = math.ceil(1.0 / fractionality_of(initial.values))
        assert out.num_colors <= f_cap * delta_tilde

    def test_ledger_stages(self, prepared):
        graph, initial = prepared
        out = one_shot_via_coloring(CoveringInstance.from_graph(graph, initial.values))
        stages = out.ledger.by_stage()
        assert "lemma3.12-coloring" in stages
        assert "lemma3.10-color-loop" in stages


class TestFactorTwoColoring:
    """Lemma 3.14."""

    def test_fractionality_doubles(self, prepared):
        graph, initial = prepared
        values = initial.values
        r = 1.0 / fractionality_of(values)
        out = factor_two_via_coloring(
            CoveringInstance.from_graph(graph, values), eps=0.3, r=r, constants_scale=1e-3
        )
        new_frac = fractionality_of(out.values)
        assert new_frac >= (2.0 / r) * 0.99

    def test_output_feasible(self, prepared):
        graph, initial = prepared
        values = initial.values
        r = 1.0 / fractionality_of(values)
        out = factor_two_via_coloring(
            CoveringInstance.from_graph(graph, values), eps=0.3, r=r, constants_scale=1e-3
        )
        CoveringInstance.from_graph(graph, out.values).require_feasible("factor-two output")

    def test_size_within_estimator_budget(self, prepared):
        graph, initial = prepared
        values = initial.values
        r = 1.0 / fractionality_of(values)
        out = factor_two_via_coloring(
            CoveringInstance.from_graph(graph, values), eps=0.3, r=r, constants_scale=1e-3
        )
        assert out.result.realized_size <= out.result.initial_estimate + 1e-6

    def test_split_width_formula(self):
        assert default_split_width(0.5, 16) == math.ceil(
            64 * math.log(16) / 0.25
        )
        assert default_split_width(0.5, 16, scale=0.5) <= default_split_width(0.5, 16)

    def test_explicit_s(self, prepared):
        graph, initial = prepared
        values = initial.values
        r = 1.0 / fractionality_of(values)
        out = factor_two_via_coloring(
            CoveringInstance.from_graph(graph, values), eps=0.3, r=r, s=3
        )
        CoveringInstance.from_graph(graph, out.values).require_feasible("factor-two output")


class TestDecompositionRoute:
    """Lemmas 3.4, 3.8, 3.9."""

    def test_one_shot_dominating(self, prepared):
        graph, initial = prepared
        out = one_shot_via_decomposition(graph, initial.values)
        ds = {v for v, x in out.values.items() if x >= 1 - 1e-9}
        assert is_dominating_set(graph, ds)

    def test_one_shot_size_bound(self, prepared):
        graph, initial = prepared
        out = one_shot_via_decomposition(graph, initial.values)
        ds = {v for v, x in out.values.items() if x >= 1 - 1e-9}
        delta_tilde = max(d for _, d in graph.degree()) + 1
        bound = (
            math.log(delta_tilde) * initial.raised_size
            + graph.number_of_nodes() / delta_tilde
            + 1.0
        )
        assert len(ds) <= bound

    def test_factor_two_doubles(self, prepared):
        graph, initial = prepared
        values = initial.values
        r = 1.0 / fractionality_of(values)
        out = factor_two_via_decomposition(graph, values, eps=0.3, r=r)
        assert fractionality_of(out.values) >= (2.0 / r) * 0.99
        CoveringInstance.from_graph(graph, out.values).require_feasible("factor-two output")

    def test_reuses_given_decomposition(self, prepared):
        graph, initial = prepared
        dec = carve_decomposition(graph, separation_k=2)
        out = one_shot_via_decomposition(graph, initial.values, decomposition=dec)
        assert out.decomposition is dec

    def test_charges_gk18_and_seed_fixing(self, prepared):
        graph, initial = prepared
        out = one_shot_via_decomposition(graph, initial.values)
        stages = out.ledger.by_stage()
        assert "gk18-decomposition" in stages
        assert "lemma3.4-seed-fixing" in stages

    def test_schedule_batches_are_separated(self, prepared):
        """Same-batch variables must not share a constraint — the property
        2-hop separation guarantees."""
        graph, initial = prepared
        dec = carve_decomposition(graph, separation_k=2)
        base = CoveringInstance.from_graph(graph, initial.values)
        r = 1.0 / fractionality_of(initial.values)
        scheme = factor_two_scheme(base, eps=0.3, r=r)
        schedule = schedule_from_decomposition(scheme, dec)
        for batch in schedule:
            touched = set()
            for u in batch:
                for cid in scheme.instance.var_constraints[u]:
                    assert cid not in touched
                    touched.add(cid)
        flat = [u for batch in schedule for u in batch]
        assert sorted(flat) == scheme.participating()

    def test_schedule_rejects_foreign_variables(self, prepared):
        graph, initial = prepared
        dec = carve_decomposition(graph, separation_k=2)
        # Build a scheme whose variable ids are NOT graph nodes.
        from repro.domsets.covering import Constraint, ValueVar

        inst = CoveringInstance(
            [ValueVar(10_000, 0.5, origin=0)],
            [Constraint(0, 0.5, (10_000,), origin=0)],
        )
        from repro.rounding.abstract import RoundingScheme

        scheme = RoundingScheme(inst, {10_000: 0.6}, "manual")
        with pytest.raises(DerandomizationError):
            schedule_from_decomposition(scheme, dec)


class TestRouteAgreementShape:
    def test_both_routes_similar_quality(self):
        g = gnp_graph(50, 0.1, seed=17)
        initial = kmw06_initial_fds(g, eps=0.5)
        a = one_shot_via_coloring(CoveringInstance.from_graph(g, initial.values))
        b = one_shot_via_decomposition(g, initial.values)
        size_a = sum(1 for x in a.values.values() if x >= 1 - 1e-9)
        size_b = sum(1 for x in b.values.values() if x >= 1 - 1e-9)
        assert abs(size_a - size_b) <= max(3, 0.5 * max(size_a, size_b))


class TestValueRange:
    """Every route builds its covering model from the graph, and the build
    rejects values outside [0, 1] (Definition 2.1)."""

    ROUTES = {
        "one-shot/coloring": lambda g, x: one_shot_via_coloring(
            CoveringInstance.from_graph(g, x)),
        "factor-two/coloring": lambda g, x: factor_two_via_coloring(
            CoveringInstance.from_graph(g, x), eps=0.5, r=8.0),
        "one-shot/decomposition": lambda g, x: one_shot_via_decomposition(g, x),
    }

    @pytest.mark.parametrize("bad", [3.0, -0.5, math.inf, math.nan])
    @pytest.mark.parametrize("route", sorted(ROUTES))
    def test_value_outside_unit_interval_rejected(self, route, bad):
        graph = normalize_graph(nx.path_graph(5))
        values = {v: 0.5 for v in graph.nodes()}
        values[0] = bad
        with pytest.raises(
            InfeasibleSolutionError, match=re.escape(f"value x(0) = {bad} outside [0, 1]")
        ):
            self.ROUTES[route](graph, values)
