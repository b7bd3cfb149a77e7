"""Spans on the message plane: rounds charged together, as one by one.

Color reduction hands the round loop every run of rounds in which only
its early classes (colors above the instance's max degree) broadcast as
one span (:attr:`PendingBroadcast.span`).  Three layers are checked:

* the span ledger against the dense per-round ledger, on drawn senders,
  round offsets, degrees, charged masks and budgets, rows and raised
  error alike;
* the round loop, driven by a scripted kernel that plays one drawn
  schedule once in spans and once round by round: results, yield order
  and raised errors must match, with round limits and over-budget
  messages falling inside spans;
* color reduction itself on ragged groups drawn to make spans: improper
  and repeated initial colors, colors of 0 and of ``n`` or more,
  isolated nodes, one instance's per-round classes beside another's
  span, and round limits inside spans, against the reference engine.

An over-budget message inside a color-reduction span cannot happen: an
early node's new color is below its initial one, whose boot broadcast is
charged at tick 1 against the same budget.  The scripted kernel covers
that case.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.congest.engine import StackedPlane, iter_stacked
from repro.congest.engine.batched import _accumulate_round, _rounds, _span_ledger
from repro.congest.engine.vector import PendingBroadcast, VectorKernel
from repro.congest.network import Network
from repro.congest.programs.color_reduction import (
    ColorReductionKernel,
    ColorReductionProgram,
)
from repro.errors import MessageTooLargeError, SimulationLimitError
from repro.graphs.generators import gnp_graph
from tests.test_color_reduction_fuzz import (
    _assert_same,
    _failing_tick,
    _outcome,
    _rejected,
    _solo,
)

_SPEC = ColorReductionProgram.message_specs[0]

_SETTINGS = settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def small_graphs(draw) -> nx.Graph:
    """A gnp graph, some of whose nodes may be isolated."""
    n = draw(st.integers(1, 14))
    graph = gnp_graph(n, draw(st.floats(0.05, 0.6)), seed=draw(st.integers(0, 99)))
    isolated = draw(st.integers(0, 3))
    return nx.convert_node_labels_to_integers(nx.disjoint_union(graph, nx.empty_graph(isolated)))


def _error(exc: MessageTooLargeError):
    return (exc.sender, exc.receiver, exc.bits, exc.budget)


# -- the span ledger -------------------------------------------------------------


@_SETTINGS
@given(st.data())
def test_span_ledger_charges_each_round_alone(data):
    """Every row of a span ledger is the dense ledger of its round alone,
    and a span raises what the first over-budget round raises, for rounds
    up to the charged count only."""
    graphs = data.draw(st.lists(small_graphs(), min_size=1, max_size=3))
    plane = StackedPlane([Network.local(g) for g in graphs])
    length = data.draw(st.integers(1, 6))
    offset = data.draw(st.lists(st.integers(-1, length - 1), min_size=plane.n, max_size=plane.n))
    offset = np.array(offset)
    bits = np.array(data.draw(st.lists(st.integers(1, 40), min_size=plane.n, max_size=plane.n)))
    budgets = np.array(
        data.draw(st.lists(st.integers(20, 60), min_size=plane.instances, max_size=plane.instances))
    )
    charged = (plane.degrees > 0) & np.array(
        data.draw(st.lists(st.booleans(), min_size=plane.n, max_size=plane.n))
    )
    rounds = data.draw(st.integers(1, length))
    column = (np.zeros(plane.n, dtype=np.int64),)
    # Senders ascending within each round; a node sends in one round at most.
    senders = np.concatenate([np.flatnonzero(offset == j) for j in range(length)])
    span = np.searchsorted(offset[senders], np.arange(length + 1))
    part = PendingBroadcast(_SPEC, offset >= 0, column, bits, senders, span)

    want, raised = [], None
    for j in range(rounds):
        alone = PendingBroadcast(_SPEC, offset == j, column, bits)
        try:
            want.append([row.tolist() for row in _accumulate_round(plane, alone, charged, budgets)])
        except MessageTooLargeError as exc:
            raised = _error(exc)
            break
    try:
        got = _span_ledger(plane, part, charged, budgets, rounds)
    except MessageTooLargeError as exc:
        assert _error(exc) == raised
        return
    assert raised is None
    assert got.shape == (rounds, 3, plane.instances)
    assert [block.tolist() for block in got] == want


# -- the round loop --------------------------------------------------------------


class _Schedule(VectorKernel):
    """Plays a drawn schedule: node ``v`` broadcasts ``bits[v]`` in round
    ``send[v]`` (never if 0), and instance ``k`` halts in round
    ``finish[k]``.  With ``spans`` on, a step at round ``r`` hands over
    every round up to the next break or finish as one span."""

    @classmethod
    def stacked_setup(cls, plane, inputs):
        raise NotImplementedError

    def play(self, send, bits, finish, breaks, spans):
        self.send, self.bits, self.finish = send, bits, finish
        self.events = set(finish) | set(breaks)
        self.spans = spans
        return self

    def step(self, round_no, inbound):
        plane = self.plane
        for k, r in enumerate(self.finish):
            if r == round_no:
                lo, hi = plane.node_offsets[k], plane.node_offsets[k + 1]
                self.live[lo:hi] = False
        end = round_no + 1
        if self.spans:
            end = min((r for r in self.events if r > round_no), default=round_no + 1)
        offsets = self.send - round_no
        senders = [np.flatnonzero(offsets == j) for j in range(end - round_no)]
        span = np.cumsum([0] + [s.size for s in senders])
        senders = np.concatenate(senders)
        if not senders.size and end == round_no + 1:
            return None
        mask = np.zeros(plane.n, dtype=bool)
        mask[senders] = True
        column = (np.zeros(plane.n, dtype=np.int64),)
        return PendingBroadcast(
            _SPEC, mask, column, self.bits, senders, span if end > round_no + 1 else None
        )


_LEDGER = ("rounds", "messages_per_round", "bits_per_round", "max_message_bits")


def _loop_outcome(networks, limits, schedule, spans):
    """What the loop yields, then the error it raises, if any."""
    plane = StackedPlane(networks)
    kernel = _Schedule(plane).play(*schedule, spans=spans)
    seen = []
    try:
        for k, result in _rounds(plane, networks, limits, kernel, None):
            seen.append((k, *(getattr(result, field) for field in _LEDGER)))
    except MessageTooLargeError as exc:
        seen.append(("budget", _error(exc)))
    except SimulationLimitError as exc:
        seen.append(("limit", str(exc)))
    return seen


@_SETTINGS
@given(st.data())
def test_spans_charge_like_the_rounds_one_by_one(data):
    graphs = data.draw(st.lists(small_graphs(), min_size=1, max_size=3))
    budgets = data.draw(st.lists(st.integers(30, 70), min_size=len(graphs), max_size=len(graphs)))
    networks = [Network(g, bit_budget=b) for g, b in zip(graphs, budgets)]
    n = sum(g.number_of_nodes() for g in graphs)
    horizon = data.draw(st.integers(1, 12))
    finish = data.draw(
        st.lists(st.integers(1, horizon), min_size=len(graphs), max_size=len(graphs))
    )
    send = np.array(data.draw(st.lists(st.integers(0, horizon), min_size=n, max_size=n)))
    bits = np.array(data.draw(st.lists(st.integers(1, 80), min_size=n, max_size=n)))
    breaks = data.draw(st.sets(st.integers(1, horizon)))
    limits = data.draw(
        st.lists(st.integers(0, horizon + 1), min_size=len(graphs), max_size=len(graphs))
    )
    schedule = (send, bits, finish, breaks)
    assert _loop_outcome(networks, limits, schedule, spans=True) == _loop_outcome(
        networks, limits, schedule, spans=False
    )


# -- color reduction -------------------------------------------------------------


@st.composite
def span_colorings(draw, n: int):
    """Initial colors that make spans odd: ids, 0, colors of ``n`` or more
    (never acting), and repeats of one high color (improper when adjacent)."""
    repeated = draw(st.integers(0, 2 * n))
    choices = st.sampled_from(("id", "zero", "wide", "repeat", "any"))
    colors = {}
    for v in range(n):
        kind = draw(choices)
        if kind == "zero":
            colors[v] = 0
        elif kind == "wide":
            colors[v] = n + draw(st.integers(0, 3))
        elif kind == "repeat":
            colors[v] = repeated
        elif kind == "any":
            colors[v] = draw(st.integers(0, 2 * n))
    return colors


@st.composite
def ragged_groups(draw):
    """A small instance, whose per-round classes run early, beside larger
    ones still in their early classes' spans."""
    small = gnp_graph(draw(st.integers(2, 10)), 0.5, seed=draw(st.integers(0, 99)))
    members = [small]
    for _ in range(draw(st.integers(1, 2))):
        members.append(draw(small_graphs()) if draw(st.booleans()) else gnp_graph(
            draw(st.integers(15, 40)), draw(st.floats(0.05, 0.2)), seed=draw(st.integers(0, 99))
        ))
    group = []
    for graph in draw(st.permutations(members)):
        n = graph.number_of_nodes()
        top = max((d for _, d in graph.degree()), default=0)
        # Half the limits fall where the early classes' spans run.
        limit = draw(
            st.one_of(st.integers(0, n + 4), st.integers(1, max(1, n - top - 1)))
        )
        group.append((graph, draw(span_colorings(n)), limit))
    return group


@_SETTINGS
@given(ragged_groups(), st.booleans())
def test_spans_match_the_reference_on_ragged_groups(group, tight):
    budgets = [Network.congest(graph).bit_budget for graph, _, _ in group]
    if tight:
        largest = max(
            _solo(Network.local(graph), initial, "reference", len(graph) + 4).max_message_bits
            for graph, initial, _ in group
        )
        if largest:
            budgets = [largest - 1] * len(group)
    networks = [Network(graph, bit_budget=b) for (graph, _, _), b in zip(group, budgets)]
    inputs = [initial for _, initial, _ in group]
    limits = [limit for _, _, limit in group]
    reference = [
        _solo(net, initial, "reference", limit)
        for net, initial, limit in zip(networks, inputs, limits)
    ]
    for k, (net, initial, limit) in enumerate(zip(networks, inputs, limits)):
        _assert_same(_solo(net, initial, "vector", limit), reference[k], ("vector", k))

    failing = [
        (_failing_tick(net, initial, limits[k], reference[k]), _rejected(reference[k]), k)
        for k, (net, initial) in enumerate(zip(networks, inputs))
        if isinstance(reference[k], tuple)
    ]
    yielded = {}

    def drain():
        for k, result in iter_stacked(networks, ColorReductionProgram, inputs, limits):
            yielded[k] = result

    raised = _outcome(drain)
    if failing:
        assert raised == reference[min(failing)[2]]
        tick = min(failing)[0]
        expected = {
            k
            for k, want in enumerate(reference)
            if not isinstance(want, tuple) and max(want.rounds, 1) < tick
        }
    else:
        assert raised is None
        expected = set(range(len(networks)))
    assert set(yielded) == expected
    for k, result in yielded.items():
        _assert_same(result, reference[k], ("stacked", k))


def test_a_same_class_neighbour_is_heard_with_its_old_color():
    """Path 0-1-2-3 plus three isolated nodes (n = 7, max degree 2) with
    colors 6, 4, 4, 0: nodes 1 and 2 share early class 4.  Node 2 waits on
    no one and takes color 1 at once, node 1 waits on node 0; when it
    takes its color it must still hear node 2's old 4 (taking 1, not 2),
    since both act in round 3."""
    graph = nx.path_graph(4)
    graph.add_nodes_from(range(4, 7))
    initial = {0: 6, 1: 4, 2: 4, 3: 0}
    want = _solo(Network.congest(graph), initial, "reference", 11)
    _assert_same(_solo(Network.congest(graph), initial, "vector", 11), want, "vector")
    [(_, got)] = iter_stacked([Network.congest(graph)], ColorReductionProgram, [initial], 11)
    _assert_same(got, want, "stacked")


def test_early_classes_take_few_steps(monkeypatch):
    """A gnp-200 instance and a gnp-60 one beside it: 200 rounds, one step
    per late round and finish, and the results of ``fast``."""
    networks = [Network.congest(gnp_graph(n, 0.05, seed=n)) for n in (200, 60)]
    steps = []
    step = ColorReductionKernel.step

    def counted(self, round_no, inbound):
        steps.append(round_no)
        return step(self, round_no, inbound)

    monkeypatch.setattr(ColorReductionKernel, "step", counted)
    stacked = dict(iter_stacked(networks, ColorReductionProgram, None, [204, 64]))
    late = sum(int(net.max_degree) + 1 for net in networks)
    assert len(steps) <= late + 1 < 100
    for k, net in enumerate(networks):
        _assert_same(stacked[k], _solo(net, None, "fast", net.n + 4), ("stacked", k))
