"""The distributed Lemma 3.10 program vs the centralized engine.

The strongest fidelity check in the suite: on the graph instance ``B_G``
the simulator-run protocol must make the *same coin decisions* as the
centralized conditional-expectation engine, round for round, under the
CONGEST bit budget.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis.verify import is_dominating_set
from repro.api.registry import program_spec
from repro.coloring.distance2 import distance2_coloring
from repro.congest.engine import run_stacked
from repro.congest.network import Network
from repro.congest.programs import lemma310
from repro.congest.programs.lemma310 import run_lemma310_on_graph
from repro.congest.simulator import Simulator
from repro.derand.coloring_based import ROUNDS_PER_COLOR, schedule_from_colors
from repro.derand.conditional import ConditionalExpectationEngine
from repro.derand.estimators import EstimatorConfig
from repro.domsets.covering import CoveringInstance, fractionality_of
from repro.fractional.raising import kmw06_initial_fds
from repro.graphs.generators import gnp_graph, random_tree, regular_graph
from repro.rounding.schemes import factor_two_scheme, one_shot_scheme
from repro.util.transmittable import TransmittableGrid
from tests.test_stacked_program_fuzz import graphs as fuzz_graphs


def one_shot_setup(graph):
    initial = kmw06_initial_fds(graph, eps=0.5)
    delta_tilde = max(d for _, d in graph.degree()) + 1
    grid = TransmittableGrid.for_n(graph.number_of_nodes())
    base = CoveringInstance.from_graph(graph, initial.values)
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
    """The run takes exactly the rounds ``derand/coloring_based.py``
    charges for the color loop plus rounding execution."""
    for seed in (2, 3, 5, 7):
        graph = gnp_graph(40, 0.1, seed=seed)
        scheme, coloring, grid = one_shot_setup(graph)
        values = {u: var.x for u, var in scheme.instance.value_vars.items()}
        network = Network.congest(graph)
        for engine in ("fast", "vector"):
            _, _, sim = run_lemma310_on_graph(
                graph, values, scheme.p, coloring.colors, mode="exact-product",
                grid=grid, network=network, engine=engine,
            )
            charged = ROUNDS_PER_COLOR * coloring.num_colors + 2
            assert sim.rounds == charged, (seed, engine)
            assert sim.max_message_bits <= network.bit_budget
            assert sim.all_halted


@settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(st.lists(fuzz_graphs(), min_size=1, max_size=3))
def test_measured_rounds_equal_the_charge(graphs):
    """The canonical loop plus rounding execution takes exactly
    ``ROUNDS_PER_COLOR * num_colors + 2`` rounds, the ``lemma3.10-color-loop``
    and ``rounding-execution`` charges, on ``fast``, solo ``vector`` and
    in a ragged stacked group, on every suite family, one node, no edges,
    and isolated nodes beside edges."""
    spec = program_spec("lemma310")
    networks = [Network.congest(graph) for graph in graphs]
    inputs = spec.batch_inputs(networks)
    limits = [int(spec.batch_max_rounds(net)) for net in networks]
    charged = [ROUNDS_PER_COLOR * box[0]["num_colors"] + 2 for box in inputs]
    for net, box, limit, want in zip(networks, inputs, limits, charged):
        for engine in ("fast", "vector"):
            sim = Simulator(net, spec.batch_factory, inputs=box, engine=engine)
            assert sim.run(max_rounds=limit).rounds == want, engine
    stacked = run_stacked(networks, spec.batch_factory, inputs, limits)
    assert [result.rounds for result in stacked] == charged


def test_factor_two_mode_on_tree():
    graph = random_tree(30, seed=4)
    delta_tilde = max(d for _, d in graph.degree()) + 1
    values = {v: min(1.0, 2.0 / delta_tilde) for v in graph.nodes()}
    if not CoveringInstance.from_graph(graph, values).is_feasible():
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
    assert CoveringInstance.from_graph(graph, final).is_feasible()


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
    assert lemma310._batch_inputs([twin]) == lemma310._batch_inputs([network])
    run = lemma310._drive(twin, "vector")
    assert run.output_map("value") == lemma310._drive(network, "vector").output_map("value")
    assert twin._graph is None


def _sweep_like_group():
    """A ragged gnp group shaped like the sweep: three sizes, three seeds."""
    return [
        Network.congest(gnp_graph(n, 4.0 / n, seed=seed))
        for n in (25, 50, 100)
        for seed in (3, 8, 11)
    ]


def _counted_colorings(monkeypatch):
    """Record the node count of every ``distance2_coloring`` call."""
    from repro.coloring import distance2

    calls = []
    solo = distance2.distance2_coloring

    def counted(graph, subset=None):
        calls.append(graph.n)
        return solo(graph, subset)

    monkeypatch.setattr(distance2, "distance2_coloring", counted)
    return calls


@pytest.mark.parametrize(
    "bound, several", [(1 << 12, True), (lemma310._UNION_ENTRIES, False)], ids=["unions", "one"]
)
def test_group_unions_give_each_network_its_solo_coloring(bound, several, monkeypatch):
    """A group colored in several unions, or in one, hands every network
    the column of its own :func:`distance2_coloring`; the round limits then
    read the memo without coloring again."""
    networks = _sweep_like_group()
    want = [list(distance2_coloring(net).colors.values()) for net in networks]
    monkeypatch.setattr(lemma310, "_UNION_ENTRIES", bound)
    calls = _counted_colorings(monkeypatch)
    inputs = lemma310._batch_inputs(networks)
    assert [box.colors.tolist() for box in inputs] == want
    # One call per union, each covering whole networks.
    assert sum(calls) == sum(net.n for net in networks)
    assert (len(calls) > 1) == several, calls
    unions = list(calls)
    limits = [lemma310._batch_max_rounds(net) for net in networks]
    assert calls == unions
    assert limits == [3 * (max(colors) + 1) + 12 for colors in want]


def test_one_network_group_gets_its_solo_coloring(monkeypatch):
    network = Network.congest(gnp_graph(70, 0.06, seed=2))
    calls = _counted_colorings(monkeypatch)
    (inputs,) = lemma310._batch_inputs([network])
    assert calls == [network.n]
    assert inputs.colors.tolist() == list(distance2_coloring(network).colors.values())
