"""Stacked multi-instance engine: parity, isolation, eligibility.

The batched mode's contract is absolute: splitting a K-instance stacked
run must reproduce K solo ``fast``-engine runs **bit for bit** — rounds,
outputs, message/bit totals, per-round series, ``max_message_bits``, all
of it.  These tests enforce the contract across the graph zoo and seed
ensembles, prove per-instance termination masks never leak traffic
between instances, and pin the eligibility rules (what must raise
:class:`BatchEligibilityError` so the runner falls back per cell).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.congest.engine import (
    StackedPlane,
    iter_stacked,
    run_stacked,
    stack_ineligibility,
)
from repro.errors import SimulationLimitError
from repro.congest.network import Network
from repro.congest.programs.bfs import BFSTreeProgram
from repro.congest.programs.color_reduction import ColorReductionProgram
from repro.congest.programs.greedy_mds import DistributedGreedyProgram
from repro.congest.programs.lemma310 import Lemma310Program
from repro.congest.programs.rounding_exec import RoundingExecutionProgram
from repro.congest.simulator import Simulator
from repro.errors import BatchEligibilityError
from repro.graphs.generators import gnp_graph
from repro.graphs.suite import suite_instance

#: (program class, max_rounds for size n, per-instance inputs builder).
PROGRAMS = {
    "greedy": (DistributedGreedyProgram, lambda n: 8 * n + 16, None),
    "color-reduction": (ColorReductionProgram, lambda n: n + 4, None),
    "rounding-exec": (
        RoundingExecutionProgram,
        lambda n: 4,
        lambda n, k: {v: ((3 * v + k) % 23, 40, 64) for v in range(n)},
    ),
}

#: Families whose generators honor the requested n exactly, so K seeds of
#: one (family, n) always stack.
EXACT_FAMILIES = ("gnp", "gnp-dense", "tree", "geometric", "ba")


def _networks(family: str, n: int, seeds) -> list:
    return [
        Network.congest(suite_instance(family, n, seed=s).graph) for s in seeds
    ]


def _lemma310_group(networks):
    """Registry-recipe inputs and per-instance round limits for lemma310.

    Unlike the closed-form ``PROGRAMS`` recipes, lemma310's round limit
    depends on the distance-2 coloring of each concrete graph, so both
    come from the registered spec.  These are the *canonical uniform*
    inputs, which the kernel runs fully in-plane from round 1.
    """
    from repro.api.registry import program_spec

    spec = program_spec("lemma310")
    inputs = [dict(spec.batch_inputs(net)) for net in networks]
    limits = [int(spec.batch_max_rounds(net)) for net in networks]
    return inputs, limits


def _perturb_lemma310(network, inputs):
    """Make one instance's inputs heterogeneous (``x != p`` on a third of
    the nodes), failing the kernel's canonical gate: solo, the instance
    runs on ``fast``; in a group, it makes the group decline."""
    from repro.util.transmittable import TransmittableGrid

    grid = TransmittableGrid.for_n(network.n)
    quarter = grid.to_int(0.25)
    return {
        v: (dict(box, x_num=quarter) if v % 3 == 0 else dict(box))
        for v, box in inputs.items()
    }


def _break_lemma310_uniformity(network, inputs):
    """Keep every node at ``x == p`` but vary the value across nodes.

    Each node still looks canonical in isolation; only the *cross-node*
    uniformity clause of the canonical gate fails.  The vectorized
    protocol seeds its whole log-product table from one shared ``p``, so
    running such an instance in-plane would silently compute wrong alpha
    quotes — the gate must decline it."""
    from repro.util.transmittable import TransmittableGrid

    grid = TransmittableGrid.for_n(network.n)
    quarter = grid.to_int(0.25)
    return {
        v: (
            dict(box, x_num=quarter, p_num=quarter)
            if v % 3 == 0
            else dict(box)
        )
        for v, box in inputs.items()
    }


def _lemma310_accepted(networks, inputs):
    """Whether the kernel's canonical gate admits each instance."""
    from repro.congest.engine import kernel_for

    kernel_cls = kernel_for(Lemma310Program)
    return [kernel_cls.eligible(net, box) for net, box in zip(networks, inputs)]


def _fast_runs(networks, program, inputs, limits):
    return [
        Simulator(net, program, inputs=box, engine="fast").run(max_rounds=limit)
        for net, box, limit in zip(networks, inputs, limits)
    ]


def _solo_and_stacked(program: str, networks, seeds=None):
    cls, max_rounds, inputs_fn = PROGRAMS[program]
    n = networks[0].n
    inputs = (
        [inputs_fn(n, k) for k in range(len(networks))] if inputs_fn else None
    )
    solo = [
        Simulator(
            net, cls, inputs=(inputs[k] if inputs else {}), engine="fast"
        ).run(max_rounds=max_rounds(n))
        for k, net in enumerate(networks)
    ]
    stacked = run_stacked(networks, cls, inputs=inputs, max_rounds=max_rounds(n))
    return solo, stacked


@pytest.mark.parametrize("family", EXACT_FAMILIES)
@pytest.mark.parametrize("program", sorted(PROGRAMS))
def test_stacked_parity_across_families(family, program):
    """K stacked seeds == K solo fast runs, field for field."""
    networks = _networks(family, 32, range(5))
    solo, stacked = _solo_and_stacked(program, networks)
    for k, (a, b) in enumerate(zip(solo, stacked)):
        assert a.rounds == b.rounds, (family, program, k)
        assert a.outputs == b.outputs, (family, program, k)
        assert a.total_messages == b.total_messages, (family, program, k)
        assert a.total_bits == b.total_bits, (family, program, k)
        assert a.max_message_bits == b.max_message_bits, (family, program, k)
        assert a.messages_per_round == b.messages_per_round, (family, program, k)
        assert a.bits_per_round == b.bits_per_round, (family, program, k)
        assert a.all_halted == b.all_halted
        assert a == b


def test_stacked_parity_heterogeneous_termination():
    """Instances finishing at very different rounds stay independent.

    The greedy run on a sparse tree terminates in far fewer phases than on
    a denser gnp of the same size; after the early instance's termination
    mask empties, its per-round series must stop exactly where its solo
    run stopped while the siblings run on — any cross-instance message
    leak would shift the degree-weighted per-round counts.
    """
    networks = _networks("tree", 48, range(3)) + _networks("gnp-dense", 48, range(3))
    solo, stacked = _solo_and_stacked("greedy", networks)
    rounds = sorted(r.rounds for r in stacked)
    assert rounds[0] < rounds[-1], "workload should terminate heterogeneously"
    assert solo == stacked
    for result in stacked:
        # Per-instance series are exactly as long as the instance ran and
        # account exactly its own traffic.
        assert len(result.messages_per_round) == result.rounds
        assert len(result.bits_per_round) == result.rounds
        assert sum(result.messages_per_round) == result.total_messages
        assert sum(result.bits_per_round) == result.total_bits
        assert all(isinstance(b, int) for b in result.bits_per_round)


def test_stacked_identical_copies_agree():
    """K copies of one seed produce K identical results equal to solo."""
    networks = _networks("gnp", 24, [7] * 4)
    solo, stacked = _solo_and_stacked("greedy", networks)
    assert stacked == solo
    assert all(r == stacked[0] for r in stacked)


def test_stacked_single_instance_matches_solo():
    networks = _networks("geometric", 30, [3])
    solo, stacked = _solo_and_stacked("color-reduction", networks)
    assert stacked == solo


class TestStackedPlaneIsolation:
    """Structural no-leak properties of the block-diagonal plane."""

    @pytest.mark.parametrize("family", EXACT_FAMILIES)
    def test_instance_slots_stay_in_instance(self, family):
        networks = _networks(family, 20, range(4))
        plane = StackedPlane(networks)
        n = plane.local_n
        for k in range(plane.instances):
            lo, hi = plane.slot_offsets[k], plane.slot_offsets[k + 1]
            neighbors = plane.indices[lo:hi]
            assert neighbors.size == 0 or (
                neighbors.min() >= k * n and neighbors.max() < (k + 1) * n
            ), f"instance {k} references foreign nodes"
        assert plane.n == len(networks) * n
        assert plane.nnz == sum(net.csr()[1].__len__() for net in networks)

    def test_local_ids_and_instance_of(self):
        networks = _networks("tree", 15, range(3))
        plane = StackedPlane(networks)
        assert list(plane.local_ids[:15]) == list(range(15))
        assert list(plane.local_ids[15:30]) == list(range(15))
        assert list(plane.instance_of[:15]) == [0] * 15
        assert list(plane.instance_of[30:]) == [2] * 15

    def test_row_reductions_match_per_instance_planes(self):
        networks = _networks("gnp", 18, range(3))
        plane = StackedPlane(networks)
        values = np.arange(plane.nnz, dtype=np.int64) % 11
        stacked_sum = plane.row_sum(values)
        for k, net in enumerate(networks):
            solo = StackedPlane([net])
            lo, hi = plane.slot_offsets[k], plane.slot_offsets[k + 1]
            solo_sum = solo.row_sum(values[lo:hi])
            assert list(stacked_sum[k * 18 : (k + 1) * 18]) == list(solo_sum)


class TestEligibility:
    def test_zero_instances_raise(self):
        with pytest.raises(BatchEligibilityError):
            run_stacked([], DistributedGreedyProgram)

    def test_program_without_kernel_raises(self):
        networks = _networks("gnp", 20, range(2))
        with pytest.raises(BatchEligibilityError):
            run_stacked(networks, BFSTreeProgram)

    def test_stackable_programs_report_eligible(self):
        for cls in (
            DistributedGreedyProgram,
            ColorReductionProgram,
            RoundingExecutionProgram,
            Lemma310Program,
        ):
            assert stack_ineligibility(cls) is None

    def test_noncanonical_lemma310_group_is_rejected_at_boot(self, monkeypatch):
        """Round 1 is the only takeover round: a group with an instance
        the canonical gate declines raises before any program is built or
        set up, and the batch runner reruns its cells one by one."""
        networks = _networks("gnp", 12, range(2))
        inputs, limits = _lemma310_group(networks)
        inputs[1] = _perturb_lemma310(networks[1], inputs[1])
        assert _lemma310_accepted(networks, inputs) == [True, False]

        def no_setup(self, ctx):
            raise AssertionError("a declined group must not run setup")

        monkeypatch.setattr(Lemma310Program, "setup", no_setup)
        with pytest.raises(BatchEligibilityError, match="declined"):
            run_stacked(
                networks, Lemma310Program, inputs=inputs, max_rounds=limits
            )

    def test_canonical_lemma310_takes_over_at_round_one(self):
        """Canonical uniform inputs clear the kernel's gate: the whole
        group boots through ``stacked_setup`` and runs in-plane."""
        networks = _networks("gnp", 12, range(2))
        inputs, limits = _lemma310_group(networks)
        assert _lemma310_accepted(networks, inputs) == [True, True]
        results = run_stacked(
            networks, Lemma310Program, inputs=inputs, max_rounds=limits
        )
        assert all(r.all_halted for r in results)
        assert results == _fast_runs(networks, Lemma310Program, inputs, limits)

    def test_bfs_reports_reason(self):
        assert "message_specs" in stack_ineligibility(BFSTreeProgram)


def test_color_reduction_respects_initial_colors():
    """Stacked boot honors explicit per-instance initial colorings."""
    networks = _networks("tree", 16, range(3))
    n = networks[0].n
    inputs = [
        {v: (v + k) % n for v in range(n)} for k in range(len(networks))
    ]
    solo = [
        Simulator(
            net, ColorReductionProgram, inputs=inputs[k], engine="fast"
        ).run(max_rounds=n + 4)
        for k, net in enumerate(networks)
    ]
    stacked = run_stacked(
        networks, ColorReductionProgram, inputs=inputs, max_rounds=n + 4
    )
    assert solo == stacked


def test_rounding_exec_missing_inputs_is_eligibility_error():
    """Absent per-node inputs surface as the documented fallback signal."""
    networks = _networks("gnp", 16, range(2))
    with pytest.raises(BatchEligibilityError):
        run_stacked(networks, RoundingExecutionProgram, max_rounds=4)


def test_rounding_exec_partial_inputs_is_eligibility_error():
    """A mapping without one node's input declines like an empty one."""
    networks = _networks("gnp", 16, range(2))
    full = {v: (3, 40, 64) for v in range(16)}
    partial = {v: box for v, box in full.items() if v != 5}
    with pytest.raises(BatchEligibilityError):
        run_stacked(
            networks, RoundingExecutionProgram, inputs=[full, partial], max_rounds=4
        )


def test_color_reduction_reads_only_its_own_nodes():
    """A key outside ``0 .. n_k - 1`` in one instance's initial colors is
    ignored, as the scalar engines ignore it; it must not overwrite a
    sibling's color (key ``n_k`` is the next instance's node 0, key -1
    the last instance's last node)."""
    a = Network.congest(gnp_graph(12, 0.4, seed=3))
    b = Network.congest(gnp_graph(10, 0.4, seed=4))
    colors = {v: 7 * v % 12 for v in range(12)}
    for stray in (12, -1):
        inputs = [{**colors, stray: 5}, None]
        fast = _fast_runs(
            [a, b], ColorReductionProgram, [box or {} for box in inputs], [100] * 2
        )
        stacked = run_stacked(
            [a, b], ColorReductionProgram, inputs=inputs, max_rounds=100
        )
        assert stacked == fast, stray


class TestRaggedStacking:
    """Mixed-size (ragged) stacked planes: parity, streaming, transport.

    Since the ragged layout, nothing requires instances to share a node
    count (or the size-derived CONGEST bit budget): a mixed-size sweep
    stacks into one block-diagonal plane with per-instance offset tables,
    and the bit-for-bit parity contract extends unchanged — every instance
    of the stack must reproduce its solo ``fast`` run field for field.
    """

    #: Mixed sizes spanning an order of magnitude, with a duplicated size
    #: so local-id collisions across instances are exercised too.
    SPECS = [("gnp", 20, 0), ("tree", 60, 1), ("gnp-dense", 150, 2), ("gnp", 20, 3)]

    @classmethod
    def _ragged_networks(cls):
        return [
            Network.congest(suite_instance(f, n, seed=s).graph)
            for f, n, s in cls.SPECS
        ]

    @pytest.mark.parametrize("program", sorted(PROGRAMS))
    def test_ragged_parity_field_for_field(self, program):
        """n ∈ {20, 60, 150} stacked == the same solo fast runs."""
        cls, max_rounds, inputs_fn = PROGRAMS[program]
        networks = self._ragged_networks()
        inputs = (
            [inputs_fn(net.n, k) for k, net in enumerate(networks)]
            if inputs_fn
            else None
        )
        solo = [
            Simulator(
                net, cls, inputs=(inputs[k] if inputs else {}), engine="fast"
            ).run(max_rounds=max_rounds(net.n))
            for k, net in enumerate(networks)
        ]
        stacked = run_stacked(
            networks,
            cls,
            inputs=inputs,
            max_rounds=[max_rounds(net.n) for net in networks],
        )
        for k, (a, b) in enumerate(zip(solo, stacked)):
            assert a.rounds == b.rounds, (program, k)
            assert a.outputs == b.outputs, (program, k)
            assert a.total_messages == b.total_messages, (program, k)
            assert a.total_bits == b.total_bits, (program, k)
            assert a.max_message_bits == b.max_message_bits, (program, k)
            assert a.messages_per_round == b.messages_per_round, (program, k)
            assert a.bits_per_round == b.bits_per_round, (program, k)
            assert a == b

    def test_ragged_mixed_budgets_stack(self):
        """Budgets are per-instance: LOCAL and CONGEST instances co-stack."""
        graphs = [suite_instance("gnp", 24, seed=s).graph for s in range(2)]
        networks = [Network.congest(graphs[0]), Network.local(graphs[1])]
        solo = [
            Simulator(net, DistributedGreedyProgram, engine="fast").run(
                max_rounds=8 * 24 + 16
            )
            for net in networks
        ]
        assert run_stacked(
            networks, DistributedGreedyProgram, max_rounds=8 * 24 + 16
        ) == solo

    def test_early_terminating_instance_streams_first(self):
        """iter_stacked yields a finished instance *before* siblings end.

        Color reduction terminates in exactly n rounds, so the size order
        is the completion order: the 20-node instances must surface while
        the 150-node instance still has ~130 rounds to run.
        """
        networks = self._ragged_networks()
        seen = []
        for k, result in iter_stacked(
            networks,
            ColorReductionProgram,
            max_rounds=[net.n + 4 for net in networks],
        ):
            assert result.all_halted
            assert result.rounds == networks[k].n  # solo schedule per size
            seen.append(k)
        rounds_in_yield_order = [networks[k].n for k in seen]
        assert rounds_in_yield_order == sorted(rounds_in_yield_order)
        assert set(seen[:2]) == {0, 3}  # both 20-node instances first
        assert seen[-1] == 2  # the 150-node instance last

    def test_iter_stacked_matches_run_stacked(self):
        networks = self._ragged_networks()
        collected = {}
        for k, result in iter_stacked(
            networks, DistributedGreedyProgram, max_rounds=8 * 150 + 16
        ):
            collected[k] = result
        assert [collected[k] for k in range(len(networks))] == run_stacked(
            networks, DistributedGreedyProgram, max_rounds=8 * 150 + 16
        )

    def test_per_instance_round_limits(self):
        """An instance exceeding its *own* limit aborts the whole group —
        the signal the runner turns into a per-cell fallback that then
        reproduces the solo ``SimulationLimitError`` exactly."""
        networks = self._ragged_networks()
        limits = [8 * net.n + 16 for net in networks]
        limits[1] = 2  # the 60-node greedy run needs far more than 2 rounds
        with pytest.raises(SimulationLimitError):
            run_stacked(networks, DistributedGreedyProgram, max_rounds=limits)
        with pytest.raises(BatchEligibilityError):
            run_stacked(
                networks, DistributedGreedyProgram, max_rounds=limits[:2]
            )  # wrong arity: one limit per instance

    def test_input_mappings_must_match_instances(self):
        """One input mapping per instance, checked at the call like the
        round limits: too few would run the rest on default inputs, too
        many would index past the plane."""
        networks = self._ragged_networks()
        colors = {v: v for v in range(networks[0].n)}
        for program, inputs in (
            (ColorReductionProgram, [colors]),
            (ColorReductionProgram, [None] * (len(networks) + 1)),
            (DistributedGreedyProgram, [None]),
        ):
            with pytest.raises(BatchEligibilityError, match="input mappings"):
                iter_stacked(networks, program, inputs=inputs)

    def test_ragged_plane_offset_tables(self):
        networks = self._ragged_networks()
        plane = StackedPlane(networks)
        sizes = [net.n for net in networks]
        assert plane.local_n is None  # ragged: no single shared size
        assert list(plane.local_ns) == sizes
        assert list(plane.node_offsets) == [0, 20, 80, 230, 250]
        assert plane.n == sum(sizes)
        # Per-node tables: local ids restart at each instance boundary and
        # local_n_of reports the owning instance's size.
        for k, net in enumerate(networks):
            lo, hi = plane.node_offsets[k], plane.node_offsets[k + 1]
            assert list(plane.local_ids[lo:hi]) == list(range(net.n))
            assert set(plane.local_n_of[lo:hi]) == {net.n}
            assert set(plane.instance_of[lo:hi]) == {k}
            # Slot containment: no row references a foreign instance.
            s_lo, s_hi = plane.slot_offsets[k], plane.slot_offsets[k + 1]
            neighbors = plane.indices[s_lo:s_hi]
            assert neighbors.size == 0 or (
                neighbors.min() >= lo and neighbors.max() < hi
            )

    def test_ragged_live_per_instance(self):
        networks = self._ragged_networks()
        plane = StackedPlane(networks)
        live = np.zeros(plane.n, dtype=bool)
        live[plane.node_offsets[1] : plane.node_offsets[1] + 7] = True
        live[plane.node_offsets[3] :] = True
        assert list(plane.live_per_instance(live)) == [0, 7, 0, 20]

    def test_ragged_row_reductions_match_solo_planes(self):
        networks = self._ragged_networks()
        plane = StackedPlane(networks)
        values = np.arange(plane.nnz, dtype=np.int64) % 13
        stacked_sum = plane.row_sum(values)
        for k, net in enumerate(networks):
            solo = StackedPlane([net])
            lo, hi = plane.slot_offsets[k], plane.slot_offsets[k + 1]
            n_lo, n_hi = plane.node_offsets[k], plane.node_offsets[k + 1]
            assert list(stacked_sum[n_lo:n_hi]) == list(solo.row_sum(values[lo:hi]))

    def test_ragged_sharedmem_round_trip(self):
        """Mixed-size groups travel through the two-block transport."""
        from repro.experiments.sharedmem import (
            SharedStackedTopology,
            attach_stacked,
        )

        networks = self._ragged_networks()
        stack = SharedStackedTopology.publish(networks)
        try:
            rebuilt = attach_stacked(stack.handle)
        finally:
            stack.unlink()
        assert [net.n for net in rebuilt] == [net.n for net in networks]
        for original, copy_net in zip(networks, rebuilt):
            assert copy_net.bit_budget == original.bit_budget
            for v in range(original.n):
                assert copy_net.neighbors(v) == original.neighbors(v)
        # The rebuilt group stacks and splits identically to the original.
        assert run_stacked(
            rebuilt, DistributedGreedyProgram, max_rounds=8 * 150 + 16
        ) == run_stacked(
            networks, DistributedGreedyProgram, max_rounds=8 * 150 + 16
        )


class TestLemma310Stacking:
    """Lemma 3.10 stacking: canonical groups run in-plane, others decline.

    Canonical uniform instances clear the kernel's gate and run their
    color-class rounds *in-plane* from round 1 (targeted alpha traffic
    and all), field for field against solo ``fast`` runs.  Any other
    instance makes its group raise :class:`BatchEligibilityError`, and
    alone it runs on ``fast`` under the ``vector`` engine.
    """

    @pytest.mark.parametrize("family", ("gnp", "tree", "geometric"))
    def test_uniform_parity_field_for_field(self, family):
        networks = _networks(family, 24, range(4))
        inputs, limits = _lemma310_group(networks)
        assert all(_lemma310_accepted(networks, inputs))
        solo = _fast_runs(networks, Lemma310Program, inputs, limits)
        stacked = run_stacked(
            networks, Lemma310Program, inputs=inputs, max_rounds=limits
        )
        for k, (a, b) in enumerate(zip(solo, stacked)):
            assert a.rounds == b.rounds, (family, k)
            assert a.outputs == b.outputs, (family, k)
            assert a.total_messages == b.total_messages, (family, k)
            assert a.total_bits == b.total_bits, (family, k)
            assert a.max_message_bits == b.max_message_bits, (family, k)
            assert a.messages_per_round == b.messages_per_round, (family, k)
            assert a.bits_per_round == b.bits_per_round, (family, k)
            assert a == b

    def test_ragged_mixed_takeover_parity(self):
        """Canonical and heterogeneous instances of different sizes.

        The group declines as a whole; its canonical member still stacks
        on its own, and every instance's solo ``vector`` run — in-plane
        or on ``fast`` — equals its ``fast`` run.
        """
        specs = [("gnp", 16, 0), ("gnp-dense", 40, 1), ("tree", 28, 2)]
        networks = [
            Network.congest(suite_instance(f, n, seed=s).graph)
            for f, n, s in specs
        ]
        inputs, limits = _lemma310_group(networks)
        inputs = [
            _perturb_lemma310(net, box) if k else box
            for k, (net, box) in enumerate(zip(networks, inputs))
        ]
        assert _lemma310_accepted(networks, inputs) == [True, False, False]
        fast = _fast_runs(networks, Lemma310Program, inputs, limits)
        with pytest.raises(BatchEligibilityError):
            run_stacked(
                networks, Lemma310Program, inputs=inputs, max_rounds=limits
            )
        assert run_stacked(
            networks[:1], Lemma310Program, inputs=inputs[:1], max_rounds=limits[:1]
        ) == fast[:1]
        vector = [
            Simulator(net, Lemma310Program, inputs=box, engine="vector").run(
                max_rounds=limit
            )
            for net, box, limit in zip(networks, inputs, limits)
        ]
        assert vector == fast

    def test_nonuniform_x_equals_p_declines_round_one(self):
        """Per-node-canonical but cross-node-varying inputs decline.

        ``x == p`` holds at every node yet the value differs across
        nodes: the gate must decline (the in-plane log-product replay
        assumes one shared ``p``), solo ``vector`` runs must agree with
        the scalar engines, and a stacked group must raise."""
        networks = _networks("gnp", 20, range(2))
        inputs, limits = _lemma310_group(networks)
        inputs = [
            _break_lemma310_uniformity(net, box)
            for net, box in zip(networks, inputs)
        ]
        assert not any(_lemma310_accepted(networks, inputs))
        fast = _fast_runs(networks, Lemma310Program, inputs, limits)
        for k, net in enumerate(networks):
            runs = {
                engine: Simulator(
                    net, Lemma310Program, inputs=inputs[k], engine=engine
                ).run(max_rounds=limits[k])
                for engine in ("reference", "vector")
            }
            assert runs["reference"] == runs["vector"] == fast[k], k
        with pytest.raises(BatchEligibilityError):
            run_stacked(
                networks, Lemma310Program, inputs=inputs, max_rounds=limits
            )

    def test_iter_stacked_streams_lemma310(self):
        networks = _networks("gnp", 20, range(3))
        inputs, limits = _lemma310_group(networks)
        solo = [
            Simulator(
                net, Lemma310Program, inputs=inputs[k], engine="fast"
            ).run(max_rounds=limits[k])
            for k, net in enumerate(networks)
        ]
        collected = {}
        for k, result in iter_stacked(
            networks, Lemma310Program, inputs=inputs, max_rounds=limits
        ):
            collected[k] = result
        assert [collected[k] for k in range(len(networks))] == solo
