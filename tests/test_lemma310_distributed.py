"""The distributed Lemma 3.10 program vs the centralized engine.

The strongest fidelity check in the suite: on the graph instance ``B_G``
the simulator-run protocol must make the *same coin decisions* as the
centralized conditional-expectation engine, round for round, under the
CONGEST bit budget.
"""

import pytest

from repro.analysis.verify import is_dominating_set
from repro.coloring.distance2 import distance2_coloring
from repro.congest.network import Network
from repro.congest.programs import lemma310
from repro.congest.programs.lemma310 import run_lemma310_on_graph
from repro.derand.coloring_based import schedule_from_colors
from repro.derand.conditional import ConditionalExpectationEngine
from repro.derand.estimators import EstimatorConfig
from repro.domsets.cfds import CFDS, fractionality_of
from repro.domsets.covering import CoveringInstance
from repro.fractional.raising import kmw06_initial_fds
from repro.graphs.generators import gnp_graph, random_tree, regular_graph
from repro.rounding.schemes import factor_two_scheme, one_shot_scheme
from repro.util.transmittable import TransmittableGrid


def one_shot_setup(graph):
    initial = kmw06_initial_fds(graph, eps=0.5)
    delta_tilde = max(d for _, d in graph.degree()) + 1
    grid = TransmittableGrid.for_n(graph.number_of_nodes())
    base = CoveringInstance.from_graph(graph, initial.fds.values)
    scheme = one_shot_scheme(base, delta_tilde, quantize=grid.up)
    coloring = distance2_coloring(graph, subset=set(scheme.participating()))
    return scheme, coloring, grid


@pytest.mark.parametrize("seed", [3, 7, 11])
def test_one_shot_decisions_match_engine(seed):
    graph = gnp_graph(36, 0.12, seed=seed)
    scheme, coloring, grid = one_shot_setup(graph)
    values = {u: var.x for u, var in scheme.instance.value_vars.items()}

    final, coins, sim = run_lemma310_on_graph(
        graph, values, scheme.p, coloring.colors, mode="exact-product", grid=grid
    )
    engine = ConditionalExpectationEngine(
        scheme, EstimatorConfig(mode="exact-product")
    )
    central = engine.run(schedule_from_colors(scheme, coloring.colors))

    assert coins == {u: int(b) for u, b in central.decisions.items()}
    ds = {v for v, x in final.items() if x >= 1 - 1e-9}
    assert is_dominating_set(graph, ds)
    assert len(ds) <= central.initial_estimate + 1e-6


def test_round_and_bit_budgets():
    graph = gnp_graph(40, 0.1, seed=2)
    scheme, coloring, grid = one_shot_setup(graph)
    values = {u: var.x for u, var in scheme.instance.value_vars.items()}
    network = Network.congest(graph)
    _, _, sim = run_lemma310_on_graph(
        graph, values, scheme.p, coloring.colors, mode="exact-product",
        grid=grid, network=network,
    )
    assert sim.rounds <= 3 * coloring.num_colors + 4
    assert sim.max_message_bits <= network.bit_budget
    assert sim.all_halted


def test_factor_two_mode_on_tree():
    graph = random_tree(30, seed=4)
    delta_tilde = max(d for _, d in graph.degree()) + 1
    values = {v: min(1.0, 2.0 / delta_tilde) for v in graph.nodes()}
    cfds = CFDS.fds(graph, values)
    if not cfds.is_feasible():
        values = {v: 0.5 for v in graph.nodes()}
    r = 1.0 / fractionality_of(values)
    grid = TransmittableGrid.for_n(30)
    base = CoveringInstance.from_graph(graph, values)
    scheme = factor_two_scheme(base, eps=0.4, r=max(4.0, r), quantize=grid.up)
    participating = set(scheme.participating())
    if not participating:
        pytest.skip("instance has no participants")
    coloring = distance2_coloring(graph, subset=participating)
    sch_values = {u: var.x for u, var in scheme.instance.value_vars.items()}
    final, coins, sim = run_lemma310_on_graph(
        graph, sch_values, scheme.p, coloring.colors, mode="chernoff", grid=grid
    )
    out = CFDS.fds(graph, final)
    assert out.is_feasible()


def test_uniform_regular_instance_matches():
    graph = regular_graph(24, 5, seed=6)
    delta_tilde = 6
    values = {v: 1.0 / delta_tilde for v in graph.nodes()}
    grid = TransmittableGrid.for_n(24)
    base = CoveringInstance.from_graph(graph, values)
    scheme = one_shot_scheme(base, delta_tilde, quantize=grid.up)
    coloring = distance2_coloring(graph, subset=set(scheme.participating()))
    sch_values = {u: var.x for u, var in scheme.instance.value_vars.items()}
    final, coins, sim = run_lemma310_on_graph(
        graph, sch_values, scheme.p, coloring.colors, mode="exact-product", grid=grid
    )
    engine = ConditionalExpectationEngine(scheme, EstimatorConfig(mode="exact-product"))
    central = engine.run(schedule_from_colors(scheme, coloring.colors))
    assert coins == {u: int(b) for u, b in central.decisions.items()}
    ds = {v for v, x in final.items() if x >= 1 - 1e-9}
    assert is_dominating_set(graph, ds)


def test_csr_twin_inputs_never_build_the_graph():
    # A shared-memory worker holds a Network.from_csr twin; the canonical
    # workload must color it from the CSR arrays, not from a rebuilt
    # networkx view.
    network = Network.congest(gnp_graph(80, 0.08, seed=4))
    twin = Network.from_csr(*network.csr(), bit_budget=network.bit_budget)
    assert lemma310._batch_inputs(twin) == lemma310._batch_inputs(network)
    run = lemma310._drive(twin, "vector")
    assert run.output_map("value") == lemma310._drive(network, "vector").output_map("value")
    assert twin._graph is None
