"""Differential fuzz: greedy MDS, rounding execution and the Lemma 3.10
loop on every vector route.

The colour-reduction twin of this file is ``test_color_reduction_fuzz.py``.
Hypothesis draws ragged groups of one to four graphs (one node, no edges,
stars, paths, gnp graphs with and without isolated nodes, and suite graphs)
with per-instance round limits from 0 to the spec's full limit + 2, under
the CONGEST budget or one bit below the group's largest message.  Rounding
execution also draws its inputs: the spec's canonical mapping, random
``(x_num, c_num, scale)`` triples, a mapping missing some nodes, or none at
all.  Lemma 3.10 runs the spec's canonical inputs, which its kernel's gate
accepts.  Against ``fast``:

* a solo ``vector`` run gives the same result or raises the same error
  (type and fields: offender, receiver, bits and budget, or the limit
  message);
* a stacked group yields each instance's ``fast`` result, and a failing
  group raises the error of its first failing tick;
* a rounding-execution group with a missing input raises
  :class:`BatchEligibilityError` before anything runs, while the solo
  routes raise what the program raises for it.

Most draws stop early on a short limit or a tight budget, so one
deterministic case runs Lemma 3.10 to its full limit on graphs with
isolated nodes, solo and in a ragged group.
"""

from __future__ import annotations

import networkx as nx
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.api.registry import program_spec
from repro.congest.engine import iter_stacked, run_stacked
from repro.congest.network import Network
from repro.congest.simulator import Simulator
from repro.errors import (
    BatchEligibilityError,
    MessageTooLargeError,
    SimulationLimitError,
)
from repro.graphs.generators import gnp_graph
from repro.graphs.suite import families, suite_instance
from tests.test_vector_engine import _zoo

_FIELDS = (
    "rounds",
    "outputs",
    "total_messages",
    "total_bits",
    "max_message_bits",
    "messages_per_round",
    "bits_per_round",
    "all_halted",
)


@st.composite
def graphs(draw) -> nx.Graph:
    kind = draw(
        st.sampled_from(
            ("single", "edgeless", "star", "path", "gnp", "isolated", "suite")
        )
    )
    if kind == "single":
        return nx.empty_graph(1)
    if kind == "suite":
        family = draw(st.sampled_from(families()))
        n, seed = draw(st.integers(8, 24)), draw(st.integers(0, 99))
        return suite_instance(family, n, seed=seed).graph
    n = draw(st.integers(2, 30 if kind in ("gnp", "isolated") else 12))
    if kind == "edgeless":
        return nx.empty_graph(n)
    if kind == "star":
        return nx.star_graph(n - 1)
    if kind == "path":
        return nx.path_graph(n)
    if kind == "gnp":
        return gnp_graph(
            n, draw(st.floats(0.02, 0.5)), seed=draw(st.integers(0, 99))
        )
    # Isolated nodes beside edges: a gnp graph that loses every edge at
    # some of its nodes.
    graph = gnp_graph(n, draw(st.floats(0.2, 0.6)), seed=draw(st.integers(0, 99)))
    lonely = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1))
    graph.remove_edges_from(list(graph.edges(lonely)))
    return graph


@st.composite
def rounding_inputs(draw, graph: nx.Graph):
    """Canonical, random, partial or absent rounding-execution inputs."""
    n = graph.number_of_nodes()
    kind = draw(st.sampled_from(("canonical", "random", "partial", "none")))
    if kind == "none":
        return None
    if kind == "canonical":
        return program_spec("rounding-exec").batch_inputs([Network.congest(graph)])[0]
    scale = 1 << draw(st.integers(1, 12))
    triples = st.tuples(
        st.integers(0, scale), st.integers(0, 2 * scale), st.just(scale)
    )
    inputs = {v: draw(triples) for v in range(n)}
    if kind == "partial":
        missing = draw(st.sets(st.integers(0, n - 1), min_size=1))
        inputs = {v: box for v, box in inputs.items() if v not in missing}
    return inputs


@st.composite
def groups(draw, program: str):
    """A ragged group: ``[(graph, inputs, round limit)]`` plus a budget
    mode."""
    spec = program_spec(program)
    members = []
    for _ in range(draw(st.integers(1, 4))):
        graph = draw(graphs())
        if program == "rounding-exec":
            inputs = draw(rounding_inputs(graph))
        elif program == "lemma310":
            inputs = spec.batch_inputs([Network.congest(graph)])[0]
        else:
            inputs = None
        full = int(spec.batch_max_rounds(Network.congest(graph)))
        limit = draw(st.one_of(st.integers(0, 6), st.integers(0, full + 2)))
        members.append((graph, inputs, limit))
    return members, draw(st.booleans())


def _outcome(run):
    """A run's result, or the raised error's type and fields."""
    try:
        return run()
    except MessageTooLargeError as exc:
        return (type(exc), exc.sender, exc.receiver, exc.bits, exc.budget)
    except (SimulationLimitError, BatchEligibilityError, TypeError) as exc:
        return (type(exc), str(exc))


def _solo(net, program, inputs, engine, max_rounds):
    return _outcome(
        lambda: Simulator(net, program, inputs=inputs, engine=engine).run(
            max_rounds=max_rounds
        )
    )


def _rejected(outcome) -> bool:
    return isinstance(outcome, tuple) and outcome[0] is MessageTooLargeError


def _failing_tick(net, program, inputs, limit, outcome) -> int:
    """The round-loop tick at which the ``fast`` run fails.

    Tick t charges the traffic sent in round t - 1 (setup for t = 1); a
    run limited to m rounds checks its limit at tick m + 1, before that
    tick's traffic is charged, and reaches tick t's charge iff t <= m.
    """
    if not _rejected(outcome):
        return limit + 1
    lo, hi = 1, limit
    while lo < hi:
        mid = (lo + hi) // 2
        rejected = _rejected(_solo(net, program, inputs, "fast", mid))
        lo, hi = (lo, mid) if rejected else (mid + 1, hi)
    return lo


def _assert_same(got, want, where):
    if isinstance(want, tuple):
        assert got == want, where
        return
    for field in _FIELDS:
        assert getattr(got, field) == getattr(want, field), (where, field)


def _check_group(program_name: str, case) -> None:
    members, tight = case
    program = program_spec(program_name).batch_factory
    full = [
        int(program_spec(program_name).batch_max_rounds(Network.congest(graph)))
        for graph, _, _ in members
    ]
    inputs = [box for _, box, _ in members]
    limits = [limit for _, _, limit in members]
    budgets = [Network.congest(graph).bit_budget for graph, _, _ in members]
    if tight:
        largest = max(
            (
                outcome.max_message_bits
                for (graph, box, _), rounds in zip(members, full)
                if not isinstance(
                    outcome := _solo(
                        Network.local(graph), program, box, "fast", rounds
                    ),
                    tuple,
                )
            ),
            default=0,
        )
        if largest:  # no traffic at all leaves nothing to reject
            budgets = [largest - 1] * len(members)
    networks = [
        Network(graph, bit_budget=b) for (graph, _, _), b in zip(members, budgets)
    ]

    fast = []
    for k, (net, box) in enumerate(zip(networks, inputs)):
        want = _solo(net, program, box, "fast", limits[k])
        fast.append(want)
        _assert_same(_solo(net, program, box, "vector", limits[k]), want, k)

    yielded = {}

    def drain():
        for k, result in iter_stacked(networks, program, inputs, limits):
            yielded[k] = result

    raised = _outcome(drain)
    if any(isinstance(want, tuple) and want[0] is TypeError for want in fast):
        # A missing input: the kernel's gate declines the group at boot.
        assert raised[0] is BatchEligibilityError and "declined" in raised[1]
        assert not yielded
        return
    # A failing group stops at its first failing tick.  The round limits
    # are checked before the tick's traffic is charged, so a limit error
    # wins; otherwise the lowest rejected instance names the offender.
    failing = [
        (
            _failing_tick(net, program, inputs[k], limits[k], fast[k]),
            _rejected(fast[k]),
            k,
        )
        for k, net in enumerate(networks)
        if isinstance(fast[k], tuple)
    ]
    if failing:
        tick = min(failing)[0]
        assert raised == fast[min(failing)[2]], "stacked error"
        # An instance that finishes in round r >= 1 is yielded at the end
        # of tick r; one that halted in setup after tick 1's charge.
        expected = {
            k
            for k, want in enumerate(fast)
            if not isinstance(want, tuple) and max(want.rounds, 1) < tick
        }
    else:
        assert raised is None
        expected = set(range(len(networks)))
    assert set(yielded) == expected
    for k, result in yielded.items():
        _assert_same(result, fast[k], ("stacked", k))


_SETTINGS = settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@_SETTINGS
@given(groups("greedy"))
def test_greedy_every_route_matches_fast(case):
    _check_group("greedy", case)


@_SETTINGS
@given(groups("rounding-exec"))
def test_rounding_exec_every_route_matches_fast(case):
    _check_group("rounding-exec", case)


@_SETTINGS
@given(groups("lemma310"))
def test_lemma310_every_route_matches_fast(case):
    _check_group("lemma310", case)


def test_lemma310_with_isolated_nodes_runs_to_its_limit_like_fast():
    """Zero-degree deciders quote nothing and hear nothing: a graph with
    an isolated node and the one-node graph, solo and in one ragged group
    beside a path, at the spec's round limit and the CONGEST budget."""
    spec = program_spec("lemma310")
    graphs = [_zoo()["lopsided-with-isolated"], nx.empty_graph(1), nx.path_graph(5)]
    networks = [Network.congest(graph) for graph in graphs]
    inputs = spec.batch_inputs(networks)
    limits = [int(spec.batch_max_rounds(net)) for net in networks]
    fast = []
    for k, (net, box, limit) in enumerate(zip(networks, inputs, limits)):
        want = _solo(net, spec.batch_factory, box, "fast", limit)
        assert not isinstance(want, tuple), want
        fast.append(want)
        _assert_same(_solo(net, spec.batch_factory, box, "vector", limit), want, k)
    stacked = run_stacked(networks, spec.batch_factory, inputs, limits)
    for k, result in enumerate(stacked):
        _assert_same(result, fast[k], ("stacked", k))
