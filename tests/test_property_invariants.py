"""Hypothesis property tests on the library's core invariants."""

import random

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis.bounds import theorem11_approximation_bound
from repro.analysis.verify import is_dominating_set
from repro.baselines.greedy import greedy_mds
from repro.derand.conditional import ConditionalExpectationEngine
from repro.domsets.cfds import CFDS, fractionality_of
from repro.domsets.covering import CoveringInstance
from repro.fractional.lp import lp_fractional_mds
from repro.fractional.raising import raise_fractionality, repair_feasibility
from repro.graphs.generators import gnp_graph
from repro.mds.deterministic import approx_mds_coloring
from repro.mds.pipeline import PipelineParams
from repro.rounding.abstract import execute_rounding
from repro.rounding.coins import independent_coins
from repro.rounding.schemes import factor_two_scheme, one_shot_scheme

graphs = st.builds(
    gnp_graph,
    st.integers(4, 28),
    st.floats(0.08, 0.45),
    seed=st.integers(0, 50),
)

slow = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@slow
@given(graphs)
def test_greedy_always_dominates(graph):
    assert is_dominating_set(graph, greedy_mds(graph))


@slow
@given(graphs, st.sampled_from([0.25, 0.5, 1.0]), st.sampled_from(["lp", "distributed"]))
def test_pipeline_output_always_dominates(graph, eps, provider):
    """Theorem 1.2 with either Part-I provider: a dominating set within
    ``(1+eps)(1+ln(Delta+1))`` of the LP optimum."""
    params = PipelineParams(eps=eps, part1_provider=provider)
    result = approx_mds_coloring(graph, eps=eps, params=params)
    assert is_dominating_set(graph, result.dominating_set)
    max_degree = max((d for _, d in graph.degree()), default=0)
    bound = theorem11_approximation_bound(eps, max_degree)
    assert result.size <= bound * lp_fractional_mds(graph).optimum


@slow
@given(graphs, st.integers(0, 20))
def test_rounding_output_always_feasible(graph, seed):
    """Lemma 3.1 part 1 under arbitrary coins."""
    values = {v: 0.8 for v in graph.nodes()}
    inst = CoveringInstance.from_graph(graph, values)
    if not inst.is_feasible():
        return
    scheme = factor_two_scheme(inst, eps=0.2, r=5.0)
    outcome = execute_rounding(
        scheme, independent_coins(scheme, random.Random(seed))
    )
    assert CFDS.fds(graph, outcome.projected).is_feasible()


@slow
@given(graphs)
def test_derandomized_never_exceeds_estimate(graph):
    delta_tilde = max((d for _, d in graph.degree()), default=0) + 1
    values = {v: min(1.0, 2.0 / delta_tilde) for v in graph.nodes()}
    inst = CoveringInstance.from_graph(graph, values)
    if not inst.is_feasible():
        return
    scheme = one_shot_scheme(inst, delta_tilde)
    engine = ConditionalExpectationEngine(scheme)
    result = engine.run([[u] for u in scheme.participating()])
    assert result.realized_size <= result.initial_estimate + 1e-6


@slow
@given(graphs, st.floats(0.01, 0.2))
def test_raising_preserves_feasibility_and_levels(graph, lam):
    values = repair_feasibility(graph, {v: 0.0 for v in graph.nodes()})
    raised = raise_fractionality(values, lam)
    assert fractionality_of(raised) >= lam - 1e-12
    assert CFDS.fds(graph, raised).is_feasible()
    # Raising never lowers any value.
    assert all(raised[v] >= values[v] - 1e-12 for v in values)


@slow
@given(graphs)
def test_one_shot_scheme_respects_caps(graph):
    delta_tilde = max((d for _, d in graph.degree()), default=0) + 1
    values = {v: 1.0 / delta_tilde for v in graph.nodes()}
    inst = CoveringInstance.from_graph(graph, values)
    scheme = one_shot_scheme(inst, delta_tilde)
    for u, var in scheme.instance.value_vars.items():
        assert 0.0 <= var.x <= 1.0
        assert scheme.p[u] >= var.x - 1e-12
        if 0 < scheme.p[u] < 1:
            assert scheme.success_value(u) <= 1.0 + 1e-12


@slow
@given(graphs, st.integers(0, 30))
def test_accounted_size_dominates_projection(graph, seed):
    """Per-copy accounting upper-bounds the projected solution size."""
    values = {v: 0.7 for v in graph.nodes()}
    inst = CoveringInstance.from_graph(graph, values)
    if not inst.is_feasible():
        return
    scheme = factor_two_scheme(inst, eps=0.3, r=5.0)
    outcome = execute_rounding(
        scheme, independent_coins(scheme, random.Random(seed))
    )
    assert sum(outcome.projected.values()) <= outcome.accounted_size + 1e-9
