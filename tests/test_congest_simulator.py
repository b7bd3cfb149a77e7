"""CONGEST simulator semantics: messages, networks, budgets, scheduling."""

import networkx as nx
import pytest

from repro.congest.message import Message, bits_of_int, message_bits
from repro.congest.network import Network, congest_bit_budget
from repro.congest.node import Context, NodeProgram
from repro.congest.simulator import Simulator
from repro.errors import CongestError, GraphError, MessageTooLargeError, SimulationLimitError
from repro.graphs.normalize import normalize_graph


class TestMessage:
    def test_bits_of_int(self):
        assert bits_of_int(0) == 1
        assert bits_of_int(1) == 1
        assert bits_of_int(255) == 8
        assert bits_of_int(256) == 9

    def test_negative_field_rejected(self):
        with pytest.raises(ValueError):
            Message("t", -1)

    def test_message_bits_includes_framing(self):
        one = message_bits([1])
        two = message_bits([1, 1])
        assert two > one

    def test_equality_and_hash(self):
        assert Message("a", 1, 2) == Message("a", 1, 2)
        assert Message("a", 1) != Message("b", 1)
        assert hash(Message("a", 1)) == hash(Message("a", 1))


class TestNetwork:
    def test_requires_normalized_labels(self):
        g = nx.Graph()
        g.add_edge("x", "y")
        with pytest.raises(GraphError):
            Network(g)

    def test_rejects_empty(self):
        with pytest.raises(GraphError):
            Network(nx.Graph())

    def test_neighbors_sorted(self):
        g = normalize_graph(nx.star_graph(4))
        net = Network(g)
        center = max(range(5), key=lambda v: net.degree(v))
        assert net.neighbors(center) == tuple(sorted(net.neighbors(center)))

    def test_budget_grows_with_n(self):
        assert congest_bit_budget(1 << 20) > congest_bit_budget(16)

    def test_local_mode_unbounded(self):
        g = normalize_graph(nx.path_graph(3))
        assert Network.local(g).bit_budget is None


class EchoProgram(NodeProgram):
    """Round 1: everyone broadcasts its id; round 2: record and halt."""

    def setup(self, ctx: Context) -> None:
        ctx.broadcast(Message("id", ctx.node))

    def receive(self, ctx, inbox):
        ctx.output("heard", tuple(sorted(m.fields[0] for m in inbox.values())))
        ctx.halt()


class TestSimulator:
    def test_echo_on_triangle(self):
        g = normalize_graph(nx.complete_graph(3))
        result = Simulator(Network.congest(g), EchoProgram).run()
        assert result.rounds == 1
        assert result.all_halted
        assert result.outputs == {
            "heard": ([0, 1, 2], [(1, 2), (0, 2), (0, 1)]),
        }

    def test_message_budget_enforced(self):
        g = normalize_graph(nx.path_graph(2))

        class Big(NodeProgram):
            def setup(self, ctx):
                ctx.broadcast(Message("big", 1 << 512))

            def receive(self, ctx, inbox):
                ctx.halt()

        with pytest.raises(MessageTooLargeError) as exc:
            Simulator(Network(g, bit_budget=64), Big).run()
        assert exc.value.bits > exc.value.budget

    def test_double_send_same_port_rejected(self):
        g = normalize_graph(nx.path_graph(2))

        class Doubler(NodeProgram):
            def setup(self, ctx):
                ctx.send(ctx.neighbors[0], Message("a", 1))
                ctx.send(ctx.neighbors[0], Message("b", 2))

            def receive(self, ctx, inbox):
                ctx.halt()

        with pytest.raises(CongestError):
            Simulator(Network.congest(g), Doubler).run()

    def test_send_to_non_neighbor_rejected(self):
        g = normalize_graph(nx.path_graph(3))  # 0-1-2

        class Illegal(NodeProgram):
            def setup(self, ctx):
                if ctx.node == 0:
                    ctx.send(2, Message("x", 1))

            def receive(self, ctx, inbox):
                ctx.halt()

        with pytest.raises(CongestError):
            Simulator(Network.congest(g), Illegal).run()

    def test_round_limit(self):
        g = normalize_graph(nx.path_graph(2))

        class Forever(NodeProgram):
            def receive(self, ctx, inbox):
                ctx.broadcast(Message("ping", ctx.round_number))

            def setup(self, ctx):
                ctx.broadcast(Message("ping", 0))

        with pytest.raises(SimulationLimitError):
            Simulator(Network.congest(g), Forever).run(max_rounds=10)

    def test_metrics_counted(self):
        g = normalize_graph(nx.complete_graph(4))
        result = Simulator(Network.congest(g), EchoProgram).run()
        assert result.total_messages == 12  # 4 nodes x 3 neighbors
        assert result.max_message_bits > 0
        assert result.total_bits >= result.total_messages
        assert result.messages_per_round[0] == 12

    def test_per_node_inputs(self):
        g = normalize_graph(nx.path_graph(3))

        class Out(NodeProgram):
            def setup(self, ctx):
                ctx.output("in", self.input)
                ctx.halt()

            def receive(self, ctx, inbox):  # pragma: no cover
                ctx.halt()

        result = Simulator(
            Network.congest(g), Out, inputs={0: "a", 2: "c"}
        ).run()
        assert result.outputs == {"in": ([0, 1, 2], ["a", None, "c"])}

    def test_output_map(self):
        g = normalize_graph(nx.complete_graph(3))
        result = Simulator(Network.congest(g), EchoProgram).run()
        heard = result.output_map("heard")
        assert set(heard) == {0, 1, 2}
