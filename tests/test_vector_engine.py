"""VectorEngine internals: exact bit accounting, specs, fallback paths.

Cross-engine observational equivalence lives in ``test_engine_parity.py``;
this module pins the pieces that make the numpy message plane *exact* —
vectorized bit lengths, :class:`MessageSpec` wire accounting, the CSR row
reductions — the fallback ladder (no spec, no kernel, mixed program
classes) and the kernel contract :func:`register_kernel` enforces.
"""

from __future__ import annotations

import zlib

import networkx as nx
import numpy as np
import pytest

from repro.api.registry import batchable_programs, program_spec
from repro.congest.engine import (
    MessageSpec,
    PendingBroadcast,
    StackedPlane,
    VectorEngine,
    VectorKernel,
    kernel_for,
    register_kernel,
    run_stacked,
)
from repro.congest.engine.vector import bit_length_array
from repro.congest.message import Message, bits_of_int, message_bits
from repro.congest.network import Network
from repro.congest.node import NodeProgram
from repro.congest.programs.color_reduction import ColorReductionProgram
from repro.congest.programs.greedy_mds import DistributedGreedyProgram
from repro.congest.programs.lemma310 import Lemma310Program
from repro.congest.programs.rounding_exec import RoundingExecutionProgram
from repro.congest.simulator import Simulator
from repro.errors import (
    CongestError,
    MessageTooLargeError,
    SimulationLimitError,
)
from repro.graphs.generators import gnp_graph, star_graph
from repro.graphs.suite import suite_instance


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


def _zoo():
    """Graphs covering the reduction edge cases plus random suite draws."""
    lopsided = nx.Graph()
    lopsided.add_nodes_from(range(7))
    # Node 4 is isolated; rows of very different widths.
    lopsided.add_edges_from([(0, 1), (1, 2), (2, 3), (5, 6), (1, 3), (0, 6)])
    graphs = {
        "lopsided-with-isolated": lopsided,
        "single-edge": nx.path_graph(2),
        "star": nx.star_graph(6),
        "complete": nx.complete_graph(5),
        "all-isolated": nx.empty_graph(4),
    }
    for family, seed in (("gnp", 0), ("tree", 1), ("gnp-dense", 2)):
        graphs[f"{family}-20-{seed}"] = suite_instance(
            family, 20, seed=seed
        ).graph
    return graphs


def _python_rows(networks):
    """Every node's neighbor list in global ids, built without the plane."""
    rows, base = [], 0
    for net in networks:
        indptr, indices = net.csr()
        for v in range(net.n):
            rows.append(
                [base + int(u) for u in indices[indptr[v] : indptr[v + 1]]]
            )
        base += net.n
    return rows


def _check_hot_path(plane, networks, rng):
    """Row reductions, row slots, gathers and sender slots against
    per-row loops."""
    rows = _python_rows(networks)
    slots = [u for row in rows for u in row]
    assert plane.indices.tolist() == slots
    for lo, empty in ((0, -1), (-50, -(10**6))):  # unsigned, then signed
        values = rng.integers(lo, 100, size=plane.nnz, dtype=np.int64)
        row_values, start = [], 0
        for row in rows:
            row_values.append(values[start : start + len(row)].tolist())
            start += len(row)
        assert plane.row_sum(values).tolist() == [sum(r) for r in row_values]
        assert plane.row_max(values, empty).tolist() == [
            max(r, default=empty) for r in row_values
        ]
    row_starts = [0]
    for row in rows:
        row_starts.append(row_starts[-1] + len(row))
    subset = rng.permutation(plane.n)[: rng.integers(1, plane.n + 1)]
    for nodes in (
        np.arange(plane.n),  # every row, ascending
        np.sort(subset),  # some rows, ascending
        subset,  # the same rows, unsorted
        np.zeros(0, dtype=np.int64),  # no rows
    ):
        assert plane.row_slots(nodes).tolist() == [
            s for v in nodes for s in range(row_starts[v], row_starts[v + 1])
        ]
    per_node = rng.integers(0, 1000, size=plane.n, dtype=np.int64)
    assert plane.gather(per_node).tolist() == [int(per_node[u]) for u in slots]
    mask = rng.integers(0, 2, size=plane.n).astype(bool)
    pending = PendingBroadcast.__new__(PendingBroadcast)
    pending.mask = mask
    assert plane.sent_slots(pending).tolist() == [bool(mask[u]) for u in slots]
    assert plane.sent_slots(None).tolist() == [False] * plane.nnz


class TestCsrPlane:
    """The plane's CSR arithmetic, on one-instance and stacked planes."""

    def test_row_reductions_match_python(self, small_gnp):
        net = Network.congest(small_gnp)
        plane = StackedPlane([net])
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
        g = nx.empty_graph(4)
        net = Network.local(g)
        plane = StackedPlane([net])
        assert plane.row_sum(np.zeros(0, dtype=np.int64)).tolist() == [0] * 4
        assert plane.row_max(np.zeros(0, dtype=np.int64), empty=9).tolist() == [9] * 4

    @pytest.mark.parametrize("name", sorted(_zoo()))
    def test_hot_path_over_the_zoo(self, name):
        net = Network.congest(_zoo()[name])
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        _check_hot_path(StackedPlane([net]), [net], rng)

    def test_stacked_plane_hot_path(self):
        networks = [
            Network.congest(suite_instance(f, n, seed=s).graph)
            for f, n, s in (("gnp", 16, 0), ("tree", 30, 1), ("gnp-dense", 9, 2))
        ]
        networks.insert(1, Network.congest(_zoo()["all-isolated"]))
        _check_hot_path(
            StackedPlane(networks), networks, np.random.default_rng(7)
        )


class _PlainProgram(NodeProgram):
    """No message_specs: VectorEngine must fall back to FastEngine."""

    def setup(self, ctx):
        ctx.broadcast(Message("ping", ctx.node))

    def receive(self, ctx, inbox):
        ctx.output("heard", len(inbox))
        ctx.halt()


class TestFallbackLadder:
    def test_program_without_specs_falls_back(self, small_gnp):
        net = Network.congest(small_gnp)
        vec = Simulator(net, _PlainProgram, engine="vector").run()
        fast = Simulator(net, _PlainProgram, engine="fast").run()
        assert vec == fast

    def test_mixed_program_classes_fall_back(self):
        programs = {0: _PlainProgram(), 1: DistributedGreedyProgram()}
        assert VectorEngine._kernel_class(programs) is None

    def test_homogeneous_greedy_gets_kernel(self):
        programs = {0: DistributedGreedyProgram(), 1: DistributedGreedyProgram()}
        kernel_cls = VectorEngine._kernel_class(programs)
        assert kernel_cls is not None
        assert kernel_cls.program_class is DistributedGreedyProgram


@pytest.mark.parametrize("program", batchable_programs())
def test_solo_vector_boots_without_setup(program, monkeypatch):
    """An accepted solo ``vector`` run boots through ``stacked_setup``
    from the programs' inputs, as a stacked group does: no node's
    ``setup`` runs, and the result is the ``fast`` run's."""
    spec = program_spec(program)
    net = Network.congest(suite_instance("gnp", 24, seed=1).graph)
    inputs = spec.batch_inputs(net) if spec.batch_inputs is not None else {}
    limit = int(spec.batch_max_rounds(net))
    want = Simulator(net, spec.batch_factory, inputs=inputs, engine="fast").run(limit)

    def no_setup(self, ctx):
        raise AssertionError("setup ran on the vector engine")

    monkeypatch.setattr(spec.batch_factory, "setup", no_setup)
    assert Simulator(net, spec.batch_factory, inputs=inputs, engine="vector").run(limit) == want
@pytest.mark.parametrize(
    "field, value",
    [
        ("x_num", -1),
        ("x_num", 1 << 53),
        ("x_num", 1 << 63),
        ("c_num", 1 << 63),
        ("iota", 51),
        ("iota", 62),
        ("iota", 70),
    ],
    ids=["x<0", "x=2^53", "x=2^63", "c=2^63", "iota=51", "iota=62", "iota=70"],
)
def test_inputs_the_plane_cannot_hold_run_on_fast(field, value):
    """The gate declines inputs whose wire fields or sums the plane cannot
    hold exactly, so a solo ``vector`` run is the ``fast`` run: the same
    result, or ``setup``'s error for a negative field."""
    net = Network.local(nx.path_graph(5))
    if field == "iota":
        program = Lemma310Program
        half, one = 1 << (value - 1), 1 << value
        inputs = {
            v: dict(box, iota=value, x_num=half, p_num=half, c_num=one)
            for v, box in program_spec("lemma310").batch_inputs(net).items()
        }
    else:
        program = RoundingExecutionProgram
        triple = (value, 4, 8) if field == "x_num" else (1, value, 8)
        inputs = dict.fromkeys(range(5), triple)
    assert not kernel_for(program).eligible(net, inputs)

    def run(engine):
        try:
            return Simulator(net, program, inputs=inputs, engine=engine).run(
                max_rounds=40
            )
        except ValueError as exc:
            return type(exc), str(exc)

    assert run("vector") == run("fast")


def test_register_kernel_requires_stacked_setup():
    """Every kernel boots from its inputs: a kernel class without
    ``stacked_setup`` is refused at registration, by name."""

    class _NoBootProgram(NodeProgram):
        message_specs = (MessageSpec("id", "value"),)

    class _NoBootKernel(VectorKernel):
        def step(self, round_no, inbound):  # pragma: no cover - never run
            return None

    with pytest.raises(TypeError, match="_NoBootKernel .*stacked_setup"):
        register_kernel(_NoBootProgram)(_NoBootKernel)
    assert kernel_for(_NoBootProgram) is None


class TestBudgetEnforcement:
    def test_oversized_broadcast_raises_like_scalar(self):
        g = star_graph(6)
        net = Network(g, bit_budget=10)  # below any real message size
        for engine in ("reference", "fast", "vector"):
            sim = Simulator(net, DistributedGreedyProgram, engine=engine)
            with pytest.raises(MessageTooLargeError):
                sim.run(max_rounds=50)

    @staticmethod
    def _errors(net, program, inputs=None, max_rounds=50):
        """The error raised on each of the four routes: its type and
        ``(sender, receiver, bits, budget)`` or message."""
        errors = {}
        for engine in ("reference", "fast", "vector", "stacked"):
            with pytest.raises((MessageTooLargeError, SimulationLimitError)) as exc:
                if engine == "stacked":
                    run_stacked(
                        [net], program, inputs=[inputs], max_rounds=max_rounds
                    )
                else:
                    Simulator(net, program, inputs=inputs, engine=engine).run(
                        max_rounds=max_rounds
                    )
            e = exc.value
            if isinstance(e, MessageTooLargeError):
                errors[engine] = (type(e), e.sender, e.receiver, e.bits, e.budget)
            else:
                errors[engine] = (type(e), str(e))
        return errors

    def test_vector_offender_matches_reference(self):
        """Every route names the reference's offender: the first oversized
        message by ascending sender, then by that sender's send order."""
        g = gnp_graph(12, 0.4, seed=3)
        net = Network(g, bit_budget=17)  # admits "cov"/"join", rejects "span"
        errors = self._errors(net, DistributedGreedyProgram)
        assert len(set(errors.values())) == 1, errors
        # Sender 3's first message goes to 4, but sender 0 touches node 5
        # first, so a first-touch scan of the recipients would name 5.
        g = nx.Graph()
        g.add_nodes_from(range(6))
        g.add_edges_from([(0, 5), (3, 4), (3, 5), (1, 2)])
        initial = {0: 1, 1: 2, 2: 0, 3: 1024, 4: 3, 5: 4}
        errors = self._errors(
            Network(g, bit_budget=20), ColorReductionProgram, initial
        )
        assert set(errors.values()) == {
            (MessageTooLargeError, 3, 4, 27, 20)
        }, errors

    def test_round_limit_is_checked_before_charging(self):
        """At its round limit a run stops before it charges the tick's
        traffic: round 1 queues the oversized "span" messages, and a
        one-round limit must report the limit, not the oversized message."""
        net = Network(gnp_graph(12, 0.4, seed=3), bit_budget=17)
        errors = self._errors(net, DistributedGreedyProgram, max_rounds=1)
        assert set(errors.values()) == {
            (SimulationLimitError, "simulation did not terminate within 1 rounds")
        }, errors


def _outcome(run):
    """A run's result, or the raised error's type and fields."""
    try:
        return run()
    except MessageTooLargeError as exc:
        return (type(exc), exc.sender, exc.receiver, exc.bits, exc.budget)
    except SimulationLimitError as exc:
        return (type(exc), str(exc))


@pytest.mark.parametrize("program", batchable_programs())
def test_solo_vector_matches_fast_at_tight_limits(program):
    """Solo ``vector`` (the round loop on a one-instance plane) gives the
    ``fast`` result, or raises the same error with the same fields, under
    round limits that cut the run short and a budget that rejects the
    largest message."""
    spec = program_spec(program)
    for family, n, seed in (("gnp", 24, 1), ("tree", 20, 2)):
        graph = suite_instance(family, n, seed=seed).graph
        full = int(spec.batch_max_rounds(Network.congest(graph)))
        inputs = (
            dict(spec.batch_inputs(Network.congest(graph)))
            if spec.batch_inputs is not None
            else {}
        )
        largest = (
            Simulator(Network.local(graph), spec.batch_factory, inputs=inputs)
            .run(max_rounds=full)
            .max_message_bits
        )
        for budget in (Network.congest(graph).bit_budget, largest - 1):
            net = Network(graph, bit_budget=budget)
            for limit in (0, 1, 3, full):
                outcomes = {
                    engine: _outcome(
                        lambda: Simulator(
                            net, spec.batch_factory, inputs=inputs, engine=engine
                        ).run(max_rounds=limit)
                    )
                    for engine in ("fast", "vector")
                }
                assert outcomes["vector"] == outcomes["fast"], (
                    program, family, budget, limit
                )
