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
    the nodes), failing the kernel's round-1 gate so the instance runs the
    scalar color-class prologue and absorbs at ``2 + 3*num_colors``."""
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
    uniformity clause of the round-1 gate fails.  The vectorized protocol
    seeds its whole log-product table from one shared ``p``, so absorbing
    such an instance at round 1 would silently compute wrong alpha quotes
    — the gate must route it through the scalar prologue instead."""
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


def _lemma310_takeovers(networks, inputs):
    """Actual per-instance takeover rounds, straight from the kernel."""
    from repro.congest.engine import kernel_for

    kernel_cls = kernel_for(Lemma310Program)
    return [
        int(
            kernel_cls.takeover_round(
                net, {v: Lemma310Program(box[v]) for v in range(net.n)}
            )
        )
        for net, box in zip(networks, inputs)
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
        from repro.congest.engine import CsrPlane

        networks = _networks("gnp", 18, range(3))
        plane = StackedPlane(networks)
        values = np.arange(plane.nnz, dtype=np.int64) % 11
        stacked_sum = plane.row_sum(values)
        for k, net in enumerate(networks):
            solo = CsrPlane(net)
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

    def test_late_takeover_without_absorb_is_rejected_at_boot(self, monkeypatch):
        """takeover_round > 1 demands absorb_instance — checked eagerly,
        before any scalar prologue work is spent.  Heterogeneous inputs
        force the late takeover (canonical ones run in-plane from round 1
        and never need absorption)."""
        from repro.congest.engine import VectorKernel, kernel_for

        kernel_cls = kernel_for(Lemma310Program)
        monkeypatch.setattr(
            kernel_cls, "absorb_instance", VectorKernel.absorb_instance
        )
        networks = _networks("gnp", 12, range(2))
        inputs, limits = _lemma310_group(networks)
        inputs = [
            _perturb_lemma310(net, box)
            for net, box in zip(networks, inputs)
        ]
        assert all(t > 1 for t in _lemma310_takeovers(networks, inputs))
        with pytest.raises(BatchEligibilityError, match="absorb_instance"):
            run_stacked(
                networks, Lemma310Program, inputs=inputs, max_rounds=limits
            )

    def test_canonical_lemma310_takes_over_at_round_one(self, monkeypatch):
        """Canonical uniform inputs clear the kernel's round-1 gate: the
        whole group runs lockstep in-plane and never calls
        absorb_instance at all."""
        from repro.congest.engine import VectorKernel, kernel_for

        kernel_cls = kernel_for(Lemma310Program)
        monkeypatch.setattr(
            kernel_cls, "absorb_instance", VectorKernel.absorb_instance
        )
        networks = _networks("gnp", 12, range(2))
        inputs, limits = _lemma310_group(networks)
        assert _lemma310_takeovers(networks, inputs) == [1, 1]
        results = run_stacked(
            networks, Lemma310Program, inputs=inputs, max_rounds=limits
        )
        assert all(r.all_halted for r in results)

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


def test_scalar_boot_fallback_matches_vectorized_boot(monkeypatch):
    """A stackable kernel without ``stacked_setup`` boots through the
    object-level path (per-node programs + handover) with identical
    results — the contract both boots must satisfy."""
    from repro.congest.engine import kernel_for

    kernel_cls = kernel_for(DistributedGreedyProgram)
    networks = _networks("gnp", 28, range(4))
    fast = run_stacked(networks, DistributedGreedyProgram, max_rounds=8 * 28 + 16)
    monkeypatch.setattr(kernel_cls, "stacked_setup", None)
    scalar = run_stacked(networks, DistributedGreedyProgram, max_rounds=8 * 28 + 16)
    assert fast == scalar


def test_rounding_exec_missing_inputs_is_eligibility_error():
    """Absent per-node inputs surface as the documented fallback signal."""
    networks = _networks("gnp", 16, range(2))
    with pytest.raises(BatchEligibilityError):
        run_stacked(networks, RoundingExecutionProgram, max_rounds=4)


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
        from repro.congest.engine import CsrPlane

        networks = self._ragged_networks()
        plane = StackedPlane(networks)
        values = np.arange(plane.nnz, dtype=np.int64) % 13
        stacked_sum = plane.row_sum(values)
        for k, net in enumerate(networks):
            solo = CsrPlane(net)
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
    """Lemma 3.10 stacking, both speeds.

    Canonical uniform instances clear the kernel's round-1 gate and run
    their color-class rounds *in-plane* (lockstep, targeted alpha traffic
    and all); heterogeneous instances run their ``2 + 3*num_colors``
    scalar prologue against the shared global clock and are absorbed at
    their *own* takeover round.  A mixed group carries both side by side.
    The parity contract is the same absolute one in every lane: field for
    field against solo ``fast`` runs.
    """

    @pytest.mark.parametrize("family", ("gnp", "tree", "geometric"))
    def test_uniform_parity_field_for_field(self, family):
        networks = _networks(family, 24, range(4))
        inputs, limits = _lemma310_group(networks)
        assert set(_lemma310_takeovers(networks, inputs)) == {1}
        solo = [
            Simulator(
                net, Lemma310Program, inputs=inputs[k], engine="fast"
            ).run(max_rounds=limits[k])
            for k, net in enumerate(networks)
        ]
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
        """Canonical and heterogeneous instances inside one plane.

        The perturbed instances fail the round-1 gate and run scalar
        prologues of different ``2 + 3*num_colors`` lengths while the
        canonical one executes its color-class rounds in-plane from round
        1 — three distinct takeover rounds, one shared clock, and plane
        rounds that carry in-plane and handover traffic with different
        tags at once.
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
        takeovers = _lemma310_takeovers(networks, inputs)
        assert takeovers[0] == 1 and len(set(takeovers)) > 2
        solo = [
            Simulator(
                net, Lemma310Program, inputs=inputs[k], engine="fast"
            ).run(max_rounds=limits[k])
            for k, net in enumerate(networks)
        ]
        assert run_stacked(
            networks, Lemma310Program, inputs=inputs, max_rounds=limits
        ) == solo

    def test_nonuniform_x_equals_p_declines_round_one(self):
        """Per-node-canonical but cross-node-varying inputs stay scalar.

        ``x == p`` holds at every node yet the value differs across
        nodes: the round-1 gate must decline (the in-plane log-product
        replay assumes one shared ``p``), the scalar engines must agree
        with the vector engine solo, and the stacked run must still match
        solo field for field through the prologue lane."""
        networks = _networks("gnp", 20, range(2))
        inputs, limits = _lemma310_group(networks)
        inputs = [
            _break_lemma310_uniformity(net, box)
            for net, box in zip(networks, inputs)
        ]
        assert all(t > 1 for t in _lemma310_takeovers(networks, inputs))
        for k, net in enumerate(networks):
            runs = {
                engine: Simulator(
                    net, Lemma310Program, inputs=inputs[k], engine=engine
                ).run(max_rounds=limits[k])
                for engine in ("reference", "vector")
            }
            assert runs["reference"] == runs["vector"], k
        solo = [
            Simulator(
                net, Lemma310Program, inputs=inputs[k], engine="fast"
            ).run(max_rounds=limits[k])
            for k, net in enumerate(networks)
        ]
        assert run_stacked(
            networks, Lemma310Program, inputs=inputs, max_rounds=limits
        ) == solo

    def test_vectorized_boot_matches_object_boot(self, monkeypatch):
        """`stacked_setup` accepts exactly the all-canonical groups and
        reproduces the object-level boot bit for bit.

        An all-canonical group boots without a single program or context
        object; disabling the hook forces the same group through scalar
        ``setup`` plus handover stitching, and the results must be
        identical.  Any perturbed instance makes ``stacked_setup`` decline
        (return ``None``) so the group keeps its per-instance lanes."""
        from repro.congest.engine import kernel_for

        kernel_cls = kernel_for(Lemma310Program)
        networks = _networks("gnp", 24, range(3))
        inputs, limits = _lemma310_group(networks)
        vec_boot = run_stacked(
            networks, Lemma310Program, inputs=inputs, max_rounds=limits
        )
        with monkeypatch.context() as m:
            m.setattr(kernel_cls, "stacked_setup", None)
            obj_boot = run_stacked(
                networks, Lemma310Program, inputs=inputs, max_rounds=limits
            )
        assert vec_boot == obj_boot
        from repro.congest.engine.batched import StackedPlane

        mixed = [dict(box) for box in inputs]
        mixed[1] = _perturb_lemma310(networks[1], mixed[1])
        assert (
            kernel_cls.stacked_setup(StackedPlane(networks), mixed) is None
        )
        assert (
            kernel_cls.stacked_setup(StackedPlane(networks), inputs)
            is not None
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
