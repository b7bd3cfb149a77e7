"""Differential fuzz: color reduction on every route against the reference.

Every draw is checked against the reference engine: reference ≡ fast ≡
vector ≡ stacked, on every :class:`SimulationResult` field or on the
raised error's type and fields.  Draws mix degenerate graphs (one node, no
edges, stars, paths) with gnp and suite graphs, initial colorings that are
absent, permuted, duplicated, sparse or all zero, ragged groups of one to
four instances, bit budgets that either admit every message or reject the
group's largest one, and per-instance round limits from 0 to ``n + 4``.

The sparse-frontier pieces under the kernel are pinned here as well:
:meth:`CsrPlane.out_slots` against the dense slot mask, and a joiner merged
into a broadcast part that carries ``senders``.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.congest.engine import CsrPlane, StackedPlane, iter_stacked
from repro.congest.engine.batched import _accumulate_round, _merge_joiners
from repro.congest.engine.vector import PendingBroadcast
from repro.congest.network import Network
from repro.congest.programs.color_reduction import ColorReductionProgram
from repro.congest.simulator import Simulator
from repro.errors import GraphError, MessageTooLargeError, SimulationLimitError
from repro.graphs.generators import gnp_graph
from repro.graphs.suite import families, suite_instance

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

_SPEC = ColorReductionProgram.message_specs[0]


@st.composite
def graphs(draw) -> nx.Graph:
    kind = draw(
        st.sampled_from(("single", "edgeless", "star", "path", "gnp", "suite"))
    )
    if kind == "single":
        return nx.empty_graph(1)
    if kind == "suite":
        family = draw(st.sampled_from(families()))
        n, seed = draw(st.integers(8, 30)), draw(st.integers(0, 99))
        return suite_instance(family, n, seed=seed).graph
    n = draw(st.integers(2, 40 if kind == "gnp" else 16))
    if kind == "edgeless":
        return nx.empty_graph(n)
    if kind == "star":
        return nx.star_graph(n - 1)
    if kind == "path":
        return nx.path_graph(n)
    return gnp_graph(n, draw(st.floats(0.02, 0.5)), seed=draw(st.integers(0, 99)))


@st.composite
def colorings(draw, n: int):
    kind = draw(
        st.sampled_from(("none", "permutation", "duplicates", "wide", "zeros"))
    )
    if kind == "none":
        return None
    if kind == "permutation":
        return dict(enumerate(draw(st.permutations(range(n)))))
    if kind == "zeros":
        return dict.fromkeys(range(n), 0)
    top = n // 3 if kind == "duplicates" else 2 * n
    return {v: draw(st.integers(0, top)) for v in range(n)}


@st.composite
def groups(draw):
    """A ragged group: ``[(graph, initial coloring, round limit)]`` plus a
    budget mode."""
    members = []
    for _ in range(draw(st.integers(1, 4))):
        graph = draw(graphs())
        n = graph.number_of_nodes()
        members.append(
            (graph, draw(colorings(n)), draw(st.integers(0, n + 4)))
        )
    return members, draw(st.booleans())


def _outcome(run):
    """A run's result, or the raised error's type and fields."""
    try:
        return run()
    except MessageTooLargeError as exc:
        return (type(exc), exc.sender, exc.receiver, exc.bits, exc.budget)
    except SimulationLimitError as exc:
        return (type(exc), str(exc))


def _solo(net, initial, engine, max_rounds):
    sim = Simulator(net, ColorReductionProgram, inputs=initial, engine=engine)
    return _outcome(lambda: sim.run(max_rounds=max_rounds))


def _rejected(outcome) -> bool:
    return isinstance(outcome, tuple) and outcome[0] is MessageTooLargeError


def _failing_tick(net, initial, limit, outcome) -> int:
    """The round-loop tick at which the reference run fails.

    Tick t charges the traffic sent in round t - 1 (setup for t = 1); a
    run limited to m rounds checks its limit at tick m + 1, before that
    tick's traffic is charged, and reaches tick t's charge iff t <= m.
    """
    if not _rejected(outcome):
        return limit + 1
    lo, hi = 1, limit
    while lo < hi:
        mid = (lo + hi) // 2
        rejected = _rejected(_solo(net, initial, "reference", mid))
        lo, hi = (lo, mid) if rejected else (mid + 1, hi)
    return lo


def _assert_same(got, want, where):
    if isinstance(want, tuple):
        assert got == want, where
        return
    for field in _FIELDS:
        assert getattr(got, field) == getattr(want, field), (where, field)


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(groups())
def test_every_route_matches_reference(case):
    members, tight = case
    budgets = [Network.congest(graph).bit_budget for graph, _, _ in members]
    if tight:
        largest = max(
            _solo(Network.local(graph), initial, "reference", len(graph) + 4)
            .max_message_bits
            for graph, initial, _ in members
        )
        if largest:  # no traffic at all leaves nothing to reject
            budgets = [largest - 1] * len(members)
    networks = [
        Network(graph, bit_budget=b)
        for (graph, _, _), b in zip(members, budgets)
    ]
    inputs = [initial for _, initial, _ in members]
    limits = [limit for _, _, limit in members]

    reference = []
    for k, (net, initial) in enumerate(zip(networks, inputs)):
        want = _solo(net, initial, "reference", limits[k])
        reference.append(want)
        for engine in ("fast", "vector"):
            _assert_same(_solo(net, initial, engine, limits[k]), want, (engine, k))

    # A failing group stops at its first failing tick.  The round limits
    # are checked before the tick's traffic is charged, so a limit error
    # wins; otherwise the lowest rejected instance names the offender.
    failing = [
        (
            _failing_tick(net, initial, limits[k], reference[k]),
            _rejected(reference[k]),
            k,
        )
        for k, (net, initial) in enumerate(zip(networks, inputs))
        if isinstance(reference[k], tuple)
    ]
    tick = min(failing)[0] if failing else None
    yielded = {}

    def drain():
        for k, result in iter_stacked(
            networks, ColorReductionProgram, inputs, limits
        ):
            yielded[k] = result

    raised = _outcome(drain)
    if failing:
        assert raised == reference[min(failing)[2]], "stacked error"
        # An instance that finishes in round r >= 1 is yielded at the end
        # of tick r; one that halted in setup after tick 1's charge.
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


def _planes():
    return st.lists(graphs(), min_size=1, max_size=3).map(
        lambda gs: [Network.congest(g) for g in gs]
    )


@settings(max_examples=40, deadline=None)
@given(_planes(), st.data())
def test_out_slots_matches_dense_mask(networks, data):
    for plane in (CsrPlane(networks[0]), StackedPlane(networks)):
        flags = st.lists(st.booleans(), min_size=plane.n, max_size=plane.n)
        mask = np.array(data.draw(flags), dtype=bool)
        senders = np.flatnonzero(mask)
        slots = plane.out_slots(senders)
        assert slots.shape[0] == int(plane.degrees[senders].sum())
        assert np.array_equal(
            np.sort(slots), np.flatnonzero(mask[plane.indices])
        )


def _broadcast(n, lo, hi, with_senders):
    mask = np.zeros(n, dtype=bool)
    mask[lo:hi:2] = True
    column = np.arange(n, dtype=np.int64) * 37
    senders = np.flatnonzero(mask) if with_senders else None
    bits = _SPEC.bits_array((column,))
    return PendingBroadcast(_SPEC, mask, (column,), bits, senders)


def _ledger(plane, pending):
    budgets = np.full(plane.instances, 1 << 20)
    rows = _accumulate_round(plane, pending, plane.degrees > 0, budgets)
    return [[int(x) for x in row] for row in rows]


def test_merging_a_joiner_clears_stale_senders():
    networks = [
        Network.congest(suite_instance("gnp", n, seed=n).graph)
        for n in (12, 9, 15)
    ]
    plane = StackedPlane(networks)
    lo, hi = int(plane.node_offsets[1]), int(plane.node_offsets[2])
    joiner = _broadcast(hi - lo, 0, hi - lo, with_senders=False)
    totals = []
    for with_senders in (True, False):
        part = _broadcast(plane.n, 0, lo, with_senders)
        merged = _merge_joiners(plane, part, [(1, joiner)])
        totals.append(_ledger(plane, merged))
    assert totals[0] == totals[1]
    assert totals[0][0][1] > 0, "the joiner's messages must be charged"
    # A one-instance plane (a solo run) charges a listed sender set exactly
    # like its mask.
    solo = StackedPlane(networks[:1])
    sparse = _broadcast(solo.n, 0, solo.n, with_senders=True)
    dense = _broadcast(solo.n, 0, solo.n, with_senders=False)
    assert _ledger(solo, sparse) == _ledger(solo, dense)
    assert _ledger(solo, sparse)[0][0] > 0


def test_out_slots_rejects_an_asymmetric_csr():
    # 0 -> 1 without 1 -> 0.
    plane = CsrPlane(Network.from_csr([0, 1, 1], [1]))
    with pytest.raises(GraphError, match="not symmetric"):
        plane.out_slots(np.array([0]))
