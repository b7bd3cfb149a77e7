"""Columnar I/O on the message plane.

* Outputs: :meth:`VectorKernel.output` records one key for an array of
  nodes.  The kernels call it at most once per (round, key), a later write
  wins, a node without a key has no such key, and each finished instance
  gets only its own slice of the columns.
* Inputs: lemma310's ``batch_inputs`` returns :class:`CanonicalInputs`,
  whose items equal the per-node dicts the spec used to build (frozen
  below as :func:`frozen_batch_inputs`), and which the gate and the boot
  treat exactly like those dicts.
* Targeted traffic: a ragged lemma310 group one bit below its largest alpha
  quote raises the same :class:`MessageTooLargeError` on ``fast``, solo
  ``vector`` and stacked.
"""

from __future__ import annotations

from collections import Counter

import networkx as nx
import numpy as np
import pytest

from repro.api.registry import program_spec
from repro.coloring.distance2 import distance2_coloring
from repro.congest.engine import VectorKernel, kernel_for, run_stacked
from repro.congest.engine.batched import StackedPlane, _rounds
from repro.congest.network import Network
from repro.congest.programs import lemma310
from repro.experiments.runner import GridCell, build_network
from repro.graphs.generators import gnp_graph
from repro.graphs.suite import families, suite_instance
from repro.util.transmittable import TransmittableGrid
from tests.test_stacked_program_fuzz import _FIELDS, _failing_tick, _outcome, _solo

SWEEP_PROGRAMS = ("greedy", "color-reduction", "lemma310")


def _same(got, want) -> bool:
    return all(getattr(got, field) == getattr(want, field) for field in _FIELDS)


# -- outputs ----------------------------------------------------------------------


def _sweep_like_group():
    """A ragged gnp group shaped like the sweep: three sizes, two seeds."""
    return [
        build_network(GridCell("gnp", n, "greedy", "vector", seed=seed))
        for n in (25, 50, 100)
        for seed in (3, 8)
    ]


@pytest.mark.parametrize("program", SWEEP_PROGRAMS)
def test_kernels_write_each_key_once_per_round(program, monkeypatch):
    spec = program_spec(program)
    kernel_cls = kernel_for(spec.batch_factory)
    networks = _sweep_like_group()
    inputs = (
        spec.batch_inputs(networks) if spec.batch_inputs else None
    )
    limits = [spec.batch_max_rounds(net) for net in networks]
    calls: Counter = Counter()
    now = {}
    step, output = kernel_cls.step, VectorKernel.output

    def counted_step(self, round_no, inbound):
        now["round"] = round_no
        return step(self, round_no, inbound)

    def counted_output(self, nodes, key, values):
        calls[now["round"], key] += 1
        return output(self, nodes, key, values)

    monkeypatch.setattr(kernel_cls, "step", counted_step)
    monkeypatch.setattr(VectorKernel, "output", counted_output)
    results = run_stacked(networks, spec.batch_factory, inputs, limits)
    assert calls and max(calls.values()) == 1, calls.most_common(3)
    for result, net in zip(results, networks):
        # Each column lists distinct nodes of its instance in ascending
        # order, and every node of the instance wrote some key.
        for nodes, values in result.outputs.values():
            assert nodes == sorted(set(nodes)) and len(values) == len(nodes)
        written = set().union(*(nodes for nodes, _ in result.outputs.values()))
        assert written == set(range(net.n))


class _ScriptedKernel(VectorKernel):
    """Plays ``script[round]``: ``(nodes, key, values)`` writes and
    ``("halt", nodes)`` halts, in order."""

    script: dict = {}

    @classmethod
    def stacked_setup(cls, plane, inputs):
        return cls(plane), None

    def step(self, round_no, inbound):
        for action in self.script.get(round_no, ()):
            if action[0] == "halt":
                self.live[action[1]] = False
            else:
                self.output(np.array(action[0]), action[1], np.array(action[2]))
        return None


def test_outputs_are_sliced_per_instance_and_the_last_write_wins(monkeypatch):
    # Instance 0 holds global nodes 0-2 and finishes in round 2; instance
    # 1 holds 3-6 and finishes in round 3, after writing a key instance 0
    # never saw.
    monkeypatch.setattr(
        _ScriptedKernel,
        "script",
        {
            1: [([0, 1, 2, 3], "value", [10, 11, 12, 13]), ([1], "coin", [1])],
            2: [([1, 4], "value", [21, 24]), ("halt", [0, 1, 2])],
            3: [([5], "late", [7]), ([4], "value", [34]), ("halt", [3, 4, 5, 6])],
        },
    )
    networks = [Network.congest(nx.path_graph(3)), Network.congest(nx.path_graph(4))]
    plane = StackedPlane(networks)
    kernel, pending = _ScriptedKernel.stacked_setup(plane, [{}, {}])
    finished = list(_rounds(plane, networks, [10, 10], kernel, pending))
    assert [k for k, _ in finished] == [0, 1]
    (_, first), (_, second) = finished
    assert first.rounds == 2 and second.rounds == 3
    assert first.outputs == {"value": ([0, 1, 2], [10, 21, 12]), "coin": ([1], [1])}
    # Keys keep their first-write order; a key no node of the instance
    # wrote (coin, in instance 1) is absent.
    assert list(first.outputs) == ["value", "coin"]
    assert second.outputs == {"value": ([0, 1], [13, 34]), "late": ([2], [7])}
    # Node 3 of instance 1 wrote nothing: no column lists it.
    assert all(3 not in nodes for nodes, _ in second.outputs.values())
    assert all(
        type(value) is int
        for result in (first, second)
        for _, values in result.outputs.values()
        for value in values
    )
    assert first.messages_per_round == [0, 0] and second.bits_per_round == [0, 0, 0]


# -- canonical lemma310 inputs ----------------------------------------------------


def frozen_batch_inputs(network: Network) -> dict:
    """lemma310's canonical inputs as per-node dicts, the form the columns
    replaced, frozen as their parity reference."""
    coloring = distance2_coloring(network)
    n = network.n
    grid = TransmittableGrid.for_n(n)
    half = grid.to_int(0.5)
    c_num = grid.to_int(1.0)
    num_colors = (max(coloring.colors.values()) + 1) if coloring.colors else 0
    return {
        v: {
            "iota": grid.iota,
            "x_num": half,
            "p_num": half,
            "c_num": c_num,
            "color": coloring.colors.get(v, -1),
            "num_colors": num_colors,
            "mode": "auto",
        }
        for v in range(n)
    }


def _input_networks():
    graphs = [suite_instance(family, 40, seed=3).graph for family in families()]
    return [Network.congest(graph) for graph in graphs] + [
        Network.congest(nx.empty_graph(1)),
        Network.congest(nx.empty_graph(6)),
    ]


def test_canonical_inputs_read_as_the_frozen_dicts():
    kernel = kernel_for(lemma310.Lemma310Program)
    for network in _input_networks():
        (inputs,) = lemma310._batch_inputs([network])
        assert isinstance(inputs, lemma310.CanonicalInputs)
        assert dict(inputs) == frozen_batch_inputs(network)
        assert inputs == frozen_batch_inputs(network)
        assert kernel.eligible(network, inputs) == kernel.eligible(network, dict(inputs))
    with pytest.raises(KeyError):
        inputs[network.n]
    with pytest.raises(TypeError):
        inputs[0] = {}


def test_degree_clause_declines_both_forms():
    network = Network.congest(nx.star_graph(511))
    (inputs,) = lemma310._batch_inputs([network])
    kernel = kernel_for(lemma310.Lemma310Program)
    assert not kernel.eligible(network, inputs)
    assert not kernel.eligible(network, dict(inputs))


def test_stacked_runs_from_either_form_are_identical():
    spec = program_spec("lemma310")
    networks = _input_networks()
    columns = spec.batch_inputs(networks)
    limits = [spec.batch_max_rounds(net) for net in networks]
    by_columns = run_stacked(networks, spec.batch_factory, columns, limits)
    by_dicts = run_stacked(
        networks, spec.batch_factory, [dict(box) for box in columns], limits
    )
    assert all(_same(a, b) for a, b in zip(by_columns, by_dicts))


# -- targeted traffic over budget -------------------------------------------------


def test_alpha_quote_over_budget_raises_alike_on_every_route():
    """Each instance's budget is one bit below its largest message, an
    alpha quote; the group fails at its first over-budget tick, naming
    the lowest sender, then receiver, of the lowest failing instance."""
    spec = program_spec("lemma310")
    program = spec.batch_factory
    graphs = [
        gnp_graph(30, 0.15, seed=1),
        gnp_graph(45, 0.1, seed=4),
        gnp_graph(20, 0.3, seed=7),
    ]
    inputs, limits, networks = [], [], []
    for graph in graphs:
        unbounded = Network.local(graph)
        (box,) = spec.batch_inputs([unbounded])
        limit = int(spec.batch_max_rounds(unbounded))
        largest = _solo(unbounded, program, box, "fast", limit).max_message_bits
        x_num = box[0]["x_num"]
        xp_bits = int(lemma310._XP_SPEC.bits_array((np.array([x_num]),) * 2)[0])
        assert largest > xp_bits  # only an alpha quote outgrows the xp message
        inputs.append(box)
        limits.append(limit)
        networks.append(Network(graph, bit_budget=largest - 1))
    fast = []
    for net, box, limit in zip(networks, inputs, limits):
        want = _solo(net, program, box, "fast", limit)
        assert want[0].__name__ == "MessageTooLargeError", want
        assert want[-1] == net.bit_budget and want[-2] == net.bit_budget + 1
        assert _solo(net, program, box, "vector", limit) == want
        fast.append(want)
    ticks = [
        (_failing_tick(net, program, box, limit, want), k)
        for k, (net, box, limit, want) in enumerate(zip(networks, inputs, limits, fast))
    ]
    stacked = _outcome(lambda: run_stacked(networks, program, inputs, limits))
    assert stacked == fast[min(ticks)[1]]
