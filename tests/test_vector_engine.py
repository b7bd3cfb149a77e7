"""VectorEngine internals: exact bit accounting, specs, fallback paths.

Cross-engine observational equivalence lives in ``test_engine_parity.py``;
this module pins the pieces that make the numpy message plane *exact* —
vectorized bit lengths, :class:`MessageSpec` wire accounting, the CSR row
reductions — and the fallback ladder (no spec, no kernel, mixed program
classes, non-conforming traffic at handover).
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.congest.engine import (
    MessageSpec,
    VectorEngine,
    VectorKernel,
    register_kernel,
    run_stacked,
)
from repro.congest.engine.vector import CsrPlane, bit_length_array
from repro.congest.message import Message, bits_of_int, message_bits
from repro.congest.network import Network
from repro.congest.node import NodeProgram
from repro.congest.programs.color_reduction import ColorReductionProgram
from repro.congest.programs.greedy_mds import DistributedGreedyProgram
from repro.congest.simulator import Simulator
from repro.errors import CongestError, MessageTooLargeError
from repro.graphs.generators import gnp_graph, star_graph


class TestBitLengthArray:
    def test_matches_scalar_accounting(self):
        values = [0, 1, 2, 3, 4, 7, 8, 255, 256, 1023, 1 << 40, (1 << 52) + 1]
        got = bit_length_array(np.array(values, dtype=np.int64))
        assert got.tolist() == [bits_of_int(v) for v in values]

    def test_powers_of_two_are_exact(self):
        # The frexp trick must not be off by one at the boundaries.
        values = [1 << k for k in range(52)] + [(1 << k) - 1 for k in range(1, 52)]
        got = bit_length_array(np.array(values, dtype=np.int64))
        assert got.tolist() == [bits_of_int(v) for v in values]

    def test_negative_field_rejected(self):
        with pytest.raises(CongestError):
            bit_length_array(np.array([3, -1], dtype=np.int64))

    def test_oversized_field_rejected(self):
        with pytest.raises(CongestError):
            bit_length_array(np.array([1 << 53], dtype=np.int64))


class TestMessageSpec:
    def test_bits_array_matches_message_bits(self):
        spec = MessageSpec("probe", "a", "b", "c")
        rng = np.random.default_rng(11)
        cols = tuple(rng.integers(0, 1 << 20, size=64) for _ in range(3))
        got = spec.bits_array(cols)
        for i in range(64):
            fields = (int(cols[0][i]), int(cols[1][i]), int(cols[2][i]))
            assert int(got[i]) == message_bits(fields)
            assert int(got[i]) == Message("probe", *fields).bits

    def test_column_count_must_match_arity(self):
        spec = MessageSpec("probe", "a", "b")
        with pytest.raises(CongestError):
            spec.bits_array((np.zeros(3, dtype=np.int64),))


class TestCsrPlane:
    def test_row_reductions_match_python(self, small_gnp):
        net = Network.congest(small_gnp)
        plane = CsrPlane(net)
        rng = np.random.default_rng(5)
        slot_values = rng.integers(0, 1000, size=plane.nnz)
        expect_sum = [
            sum(
                int(slot_values[i])
                for i in range(plane.indptr[v], plane.indptr[v + 1])
            )
            for v in range(net.n)
        ]
        assert plane.row_sum(slot_values).tolist() == expect_sum
        expect_max = [
            max(
                (
                    int(slot_values[i])
                    for i in range(plane.indptr[v], plane.indptr[v + 1])
                ),
                default=-7,
            )
            for v in range(net.n)
        ]
        assert plane.row_max(slot_values, empty=-7).tolist() == expect_max

    def test_isolated_nodes_use_empty_value(self):
        import networkx as nx

        g = nx.empty_graph(4)
        net = Network.local(g)
        plane = CsrPlane(net)
        assert plane.row_sum(np.zeros(0, dtype=np.int64)).tolist() == [0] * 4
        assert plane.row_max(np.zeros(0, dtype=np.int64), empty=9).tolist() == [9] * 4


class _PlainProgram(NodeProgram):
    """No message_specs: VectorEngine must fall back to FastEngine."""

    def setup(self, ctx):
        ctx.broadcast(Message("ping", ctx.node))

    def receive(self, ctx, inbox):
        ctx.output("heard", len(inbox))
        ctx.halt()


class _TargetedProgram(NodeProgram):
    """Declares a spec but sends to a single neighbor: traffic at the
    takeover round is not a full broadcast, so the engine must stay on
    scalar semantics for the whole run."""

    message_specs = (MessageSpec("one", "value"),)

    def setup(self, ctx):
        if ctx.neighbors:
            ctx.send(ctx.neighbors[0], Message("one", ctx.node))

    def receive(self, ctx, inbox):
        ctx.output("heard", sorted(inbox))
        ctx.halt()


@register_kernel(_TargetedProgram)
class _TargetedKernel(VectorKernel):
    def step(self, round_no, inbound):  # pragma: no cover - never reached
        raise AssertionError("non-conforming traffic must not reach the kernel")


class TestFallbackLadder:
    def test_program_without_specs_falls_back(self, small_gnp):
        net = Network.congest(small_gnp)
        vec = Simulator(net, _PlainProgram, engine="vector").run()
        fast = Simulator(net, _PlainProgram, engine="fast").run()
        assert vec == fast

    def test_nonconforming_traffic_stays_scalar(self, small_gnp):
        net = Network.congest(small_gnp)
        vec = Simulator(net, _TargetedProgram, engine="vector").run()
        fast = Simulator(net, _TargetedProgram, engine="fast").run()
        assert vec == fast

    def test_mixed_program_classes_fall_back(self):
        programs = {0: _PlainProgram(), 1: DistributedGreedyProgram()}
        assert VectorEngine._kernel_class(programs) is None

    def test_homogeneous_greedy_gets_kernel(self):
        programs = {0: DistributedGreedyProgram(), 1: DistributedGreedyProgram()}
        kernel_cls = VectorEngine._kernel_class(programs)
        assert kernel_cls is not None
        assert kernel_cls.program_class is DistributedGreedyProgram


class TestBudgetEnforcement:
    def test_oversized_broadcast_raises_like_scalar(self):
        g = star_graph(6)
        net = Network(g, bit_budget=10)  # below any real message size
        for engine in ("reference", "fast", "vector"):
            sim = Simulator(net, DistributedGreedyProgram, engine=engine)
            with pytest.raises(MessageTooLargeError):
                sim.run(max_rounds=50)

    @staticmethod
    def _offenders(net, program, inputs=None):
        """``(sender, receiver, bits, budget)`` raised on each of the four routes."""
        errors = {}
        for engine in ("reference", "fast", "vector", "stacked"):
            with pytest.raises(MessageTooLargeError) as exc:
                if engine == "stacked":
                    run_stacked([net], program, inputs=[inputs], max_rounds=50)
                else:
                    Simulator(net, program, inputs=inputs, engine=engine).run(
                        max_rounds=50
                    )
            e = exc.value
            errors[engine] = (e.sender, e.receiver, e.bits, e.budget)
        return errors

    def test_vector_offender_matches_reference(self):
        """Every route names the reference's offender: the first oversized
        message by ascending sender, then by that sender's send order."""
        g = gnp_graph(12, 0.4, seed=3)
        net = Network(g, bit_budget=17)  # admits "cov"/"join", rejects "span"
        errors = self._offenders(net, DistributedGreedyProgram)
        assert len(set(errors.values())) == 1, errors
        # Sender 3's first message goes to 4, but sender 0 touches node 5
        # first, so a first-touch scan of the recipients would name 5.
        g = nx.Graph()
        g.add_nodes_from(range(6))
        g.add_edges_from([(0, 5), (3, 4), (3, 5), (1, 2)])
        initial = {0: 1, 1: 2, 2: 0, 3: 1024, 4: 3, 5: 4}
        errors = self._offenders(
            Network(g, bit_budget=20), ColorReductionProgram, initial
        )
        assert set(errors.values()) == {(3, 4, 27, 20)}, errors
