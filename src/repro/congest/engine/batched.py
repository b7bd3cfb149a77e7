"""The message-plane round loop: K instances as one stacked plane.

Statistical sweeps — the Theorem 1.1/1.2 style experiments — are many
independent runs of the *same* program family over different seeded
topologies.  Run one at a time, each pays the plane's per-round fixed
cost (a few dozen numpy dispatches) on arrays that are tiny for
suite-sized graphs, so a 50-seed sweep pays that overhead 50 times over.
This module stacks the K instances into **one** columnar message plane so
each numpy kernel invocation advances every instance at once.  Its round
loop is the only one on the message plane: a solo ``vector``-engine run
(:func:`run_instance`) is the case K = 1.

* :class:`StackedPlane` — K per-instance CSR topologies concatenated
  block-diagonally in instance-major order, plus exact int64 row
  reductions.  The layout is **ragged**: instances may have *different*
  node counts, described by per-instance offset tables (``local_ns[k]``
  is instance ``k``'s size, ``node_offsets[k]`` its first global node,
  ``slot_offsets[k]`` its first edge slot).  Because no row ever
  references another instance's slots, every row reduction
  (``np.add.reduceat`` over the non-empty rows) is exactly the
  per-instance reduction, computed in one call; per-instance aggregates
  reduce the same way over the ``node_offsets`` segment boundaries.
* :func:`iter_stacked` / :func:`run_stacked` — the batched entry points.
  They boot the registered
  :class:`~repro.congest.engine.vector.VectorKernel` over the union plane
  and drive it with **per-instance accounting**: each instance has its own
  round counter, per-round series, wire totals, bit budget, round limit
  and termination mask.  The moment an instance's termination mask flips,
  :func:`iter_stacked` yields its finished :class:`SimulationResult` —
  in-group per-record streaming — and the result is bit-for-bit what the
  instance's solo run on any engine produces (``tests/test_batched_engine.py``
  and ``tests/test_stacked_fuzz.py`` compare against ``fast``, which
  ``tests/test_engine_parity.py`` pins to ``reference``).

Every instance joins the plane at round 1, through the kernel's
``stacked_setup``: the kernel state and the round-1 traffic come straight
from the instances' inputs, with no program or context objects and no
``setup`` call, and every node boots live.  A solo run boots the same way.

Eligibility is deliberately narrow and fails loudly
(:class:`~repro.errors.BatchEligibilityError`) so callers can fall back to
per-cell execution:

* the program class declares :attr:`NodeProgram.message_specs` and has a
  registered kernel;
* the kernel's ``eligible`` gate accepts every instance's inputs.

A solo run does not raise in these cases: :class:`VectorEngine` runs a
declined instance on ``FastEngine``.

Node counts, bit budgets and round limits are all per-instance — mixed
sizes (and hence the size-derived CONGEST budgets) stack fine.  Instances
terminate independently: a finished instance's nodes leave the kernel's
live mask and its slice leaves the accounting, so its traffic never leaks
into the siblings' ledgers, and its per-round series simply stops growing
while the others run on.
"""

from __future__ import annotations

from array import array
from itertools import accumulate
from typing import Iterator, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.congest.engine.base import SimulationResult
from repro.congest.engine.vector import (
    PendingBroadcast,
    PendingTargeted,
    VectorKernel,
    kernel_for,
    pending_parts,
)
from repro.congest.network import Network, csr_row_slots
from repro.errors import (
    BatchEligibilityError,
    MessageTooLargeError,
    SimulationLimitError,
)

__all__ = [
    "StackedPlane",
    "iter_stacked",
    "run_instance",
    "run_stacked",
    "stack_ineligibility",
]

#: Per-instance budget stand-in for LOCAL-model instances (unbounded
#: messages); far above any bit length :func:`bit_length_array` accepts.
_NO_BUDGET = np.iinfo(np.int64).max


def _as_int64(values) -> np.ndarray:
    if isinstance(values, array) and values.itemsize == 8:
        return np.frombuffer(values, dtype=np.int64)
    return np.asarray(values, dtype=np.int64)


class StackedPlane:
    """K instance topologies as one ragged block-diagonal CSR plane.

    ``indices[indptr[v]:indptr[v+1]]`` are the neighbors of global node
    ``v`` (the *slots* of row ``v``).  Row reductions use
    ``ufunc.reduceat`` over the non-empty rows only, so isolated nodes are
    handled without branching and all arithmetic stays in int64
    (bit-exact, unlike float matvecs).

    Instance ``k`` owns the global node range
    ``node_offsets[k] .. node_offsets[k+1] - 1`` (its size is
    ``local_ns[k]``) and the edge-slot range
    ``slot_offsets[k] .. slot_offsets[k+1]``.  ``local_ids`` maps every
    global node back to its per-instance id, ``instance_of`` to its
    instance index, and ``local_n_of`` to its instance's node count — the
    ``n`` that node's program believes it is running on: kernels base
    packed keys and round schedules on it, so they keep per-instance
    semantics however many instances share the arrays.  ``local_n`` is
    the shared size when the stack is uniform and ``None`` when it is
    ragged (kernels must use the per-node ``local_n_of`` either way).

    The kernels assume a symmetric CSR: ``u`` is in ``v``'s row exactly
    when ``v`` is in ``u``'s.  They read traffic off the receiving row
    (greedy's received maxima, lemma310's folds, color reduction's
    neighbour colors), so a row that misses a sender would silently hear
    nothing from it.  Every :class:`~repro.congest.network.Network` of an
    undirected graph is symmetric; the plane does not check it.
    """

    __slots__ = (
        "n",
        "nnz",
        "indptr",
        "indices",
        "degrees",
        "_nonempty",
        "_starts",
        "instances",
        "local_n",
        "local_ns",
        "node_offsets",
        "slot_offsets",
        "instance_of",
        "local_ids",
        "local_n_of",
    )

    def __init__(self, networks: Sequence[Network]):
        if not networks:
            raise BatchEligibilityError("cannot stack zero instances")
        sizes = [net.n for net in networks]
        k_count = len(sizes)
        indptr_parts: List[np.ndarray] = []
        indices_parts: List[np.ndarray] = []
        base = slots = 0
        for k, net in enumerate(networks):
            indptr, indices = net.csr()
            indptr = _as_int64(indptr)
            indices = _as_int64(indices)
            # Globalize: shift row starts by the slots already emitted and
            # neighbor ids into instance k's node range.
            indptr_parts.append((indptr[1:] if k else indptr) + slots)
            indices_parts.append(indices + base)
            base += net.n
            slots += indices.shape[0]
        self.indptr = np.concatenate(indptr_parts)
        self.indices = np.concatenate(indices_parts)
        self.n = int(self.indptr.shape[0]) - 1
        self.nnz = int(self.indices.shape[0])
        self.degrees = self.indptr[1:] - self.indptr[:-1]
        self._nonempty = self.degrees > 0
        self._starts = self.indptr[:-1][self._nonempty]
        self.instances = k_count
        self.local_ns = np.array(sizes, dtype=np.int64)
        self.node_offsets = np.array([0, *accumulate(sizes)], dtype=np.int64)
        self.slot_offsets = self.indptr[self.node_offsets]
        self.local_n = sizes[0] if sizes.count(sizes[0]) == k_count else None
        self.instance_of = np.repeat(np.arange(k_count), self.local_ns)
        self.local_ids = np.arange(self.n) - self.node_offsets[self.instance_of]
        self.local_n_of = self.local_ns[self.instance_of]

    def row_sum(self, slot_values: np.ndarray) -> np.ndarray:
        """Per-node sum of ``slot_values`` over each node's slots."""
        out = np.zeros(self.n, dtype=np.int64)
        if self._starts.size:
            values = np.asarray(slot_values).astype(np.int64, copy=False)
            out[self._nonempty] = np.add.reduceat(values, self._starts)
        return out

    def row_max(self, slot_values: np.ndarray, empty: int) -> np.ndarray:
        """Per-node max of ``slot_values``; ``empty`` for isolated nodes."""
        out = np.full(self.n, empty, dtype=np.int64)
        if self._starts.size:
            values = np.asarray(slot_values).astype(np.int64, copy=False)
            out[self._nonempty] = np.maximum.reduceat(values, self._starts)
        return out

    def sent_slots(self, pending: Optional[PendingBroadcast]) -> np.ndarray:
        """Slot-level sender flags for one round of broadcast traffic."""
        if pending is None:
            return np.zeros(self.nnz, dtype=bool)
        return pending.mask[self.indices]

    def gather(self, per_node: np.ndarray) -> np.ndarray:
        """Slot-level view of a per-node array (value of each slot's peer)."""
        return per_node[self.indices]

    def row_slots(self, nodes: np.ndarray) -> np.ndarray:
        """The slots of the rows of ``nodes``, concatenated in that order.

        Row ``v`` contributes ``indptr[v] .. indptr[v+1] - 1``, so the
        result costs O(sum of the nodes' degrees); an isolated node
        contributes nothing.
        """
        return csr_row_slots(self.indptr, self.degrees, nodes)

    def live_per_instance(self, live: np.ndarray) -> np.ndarray:
        """Per-instance count of set flags in a global node mask.

        ``reduceat`` over the ragged ``node_offsets`` segment boundaries —
        exact per-instance sums regardless of instance sizes (every
        network has at least one node, so no segment is empty).
        """
        return np.add.reduceat(live, self.node_offsets[:-1], dtype=np.int64)


def stack_ineligibility(program_cls: type) -> Optional[str]:
    """Why ``program_cls`` cannot run stacked, or ``None`` if it can.

    This is the *static* half of eligibility (specs declared, kernel
    registered); :func:`iter_stacked` additionally checks the kernel's
    ``eligible`` gate per instance at run time.
    """
    if not getattr(program_cls, "message_specs", ()):
        return f"{program_cls.__name__} declares no message_specs"
    if kernel_for(program_cls) is None:
        return f"{program_cls.__name__} has no registered vector kernel"
    return None


def _accumulate_round(
    plane: StackedPlane,
    pending,
    charged: np.ndarray,
    budgets: np.ndarray,
):
    """Per-instance exact wire totals ``(messages, bits, max_bits)``.

    Summed over every part of the round (a ragged plane can carry
    differently-tagged broadcast *and* targeted traffic side by side): a
    broadcast puts ``degree`` copies of the sender's message on the wire,
    so its per-instance counts are degree-weighted sums over that
    instance's senders; a targeted part puts exactly one message per
    listed slot on the wire, bucketed by its sender's instance.  ``charged``
    masks the nodes whose sends reach a wire: nodes with a neighbor, in
    instances that have not finished (a finished instance's
    bottom-of-loop queued traffic is discarded uncharged and unchecked,
    exactly as a solo loop never reaches another accounting pass).
    ``budgets`` holds each instance's bit budget (:data:`_NO_BUDGET` for
    a LOCAL-model instance); raises :class:`MessageTooLargeError` for the
    lowest-global-id over-budget sender, reported with its *local* ids —
    what the corresponding solo run raises.

    Rows may be float64 (``bincount`` weights); every entry is an exact
    integer, since per-round wire totals are far below 2**53.
    """
    rows = None
    for part in pending_parts(pending):
        if isinstance(part, PendingTargeted):
            ledger = _targeted_ledger(plane, part, charged, budgets)
        elif part.senders is None:
            ledger = _dense_ledger(plane, part, charged, budgets)
        else:
            ledger = _sparse_ledger(plane, part, charged, budgets)
        if rows is None:
            rows = ledger
        else:
            rows = (
                rows[0] + ledger[0],
                rows[1] + ledger[1],
                np.maximum(rows[2], ledger[2]),
            )
    if rows is None:
        return np.zeros((3, plane.instances), dtype=np.int64)
    return rows


def _dense_ledger(plane, part, charged, budgets):
    """A broadcast given by its mask: segment sums over every node."""
    sending = part.mask & charged
    degrees = plane.degrees * sending
    bits = part.bits * sending
    starts = plane.node_offsets[:-1]
    wire_max = np.maximum.reduceat(bits, starts)
    if (wire_max > budgets).any():
        _reject_broadcast(plane, np.flatnonzero(sending), part.bits, budgets)
    return (
        np.add.reduceat(degrees, starts),
        np.add.reduceat(degrees * bits, starts),
        wire_max,
    )


def _sparse_ledger(plane, part, charged, budgets):
    """A broadcast that lists its senders: O(sum of sender degrees)."""
    senders = part.senders
    senders = senders[charged[senders]]
    degrees = plane.degrees[senders]
    bits = part.bits[senders]
    inst = plane.instance_of[senders]
    k_count = plane.instances
    wire_max = np.zeros(k_count, dtype=np.int64)
    np.maximum.at(wire_max, inst, bits)
    if (wire_max > budgets).any():
        _reject_broadcast(plane, senders, part.bits, budgets)
    return (
        np.bincount(inst, weights=degrees, minlength=k_count),
        np.bincount(inst, weights=degrees * bits, minlength=k_count),
        wire_max,
    )


def _reject_broadcast(plane, senders, bits, budgets) -> None:
    """Raise for the lowest of ``senders`` (ascending) over its budget."""
    over = bits[senders] > budgets[plane.instance_of[senders]]
    sender = int(senders[np.argmax(over)])
    receiver = int(plane.indices[plane.indptr[sender]])
    raise MessageTooLargeError(
        int(plane.local_ids[sender]),
        int(plane.local_ids[receiver]),
        int(bits[sender]),
        int(budgets[plane.instance_of[sender]]),
    )


def _targeted_ledger(plane, part, charged, budgets):
    """Slot-addressed traffic: one message per listed slot."""
    slots, bits = part.slots, part.bits
    senders = plane.indices[slots]
    on_wire = charged[senders]
    if not on_wire.all():
        slots, senders, bits = slots[on_wire], senders[on_wire], bits[on_wire]
    inst = plane.instance_of[senders]
    k_count = plane.instances
    wire_max = np.zeros(k_count, dtype=np.int64)
    np.maximum.at(wire_max, inst, bits)
    if (wire_max > budgets).any():
        over = bits > budgets[inst]
        # Slot order is receiver order; the scalar engines scan ascending
        # *senders*, so pick the lowest sender, then receiver.
        first = np.lexsort((slots[over], senders[over]))[0]
        slot = int(slots[over][first])
        sender = int(senders[over][first])
        receiver = int(np.searchsorted(plane.indptr, slot, "right")) - 1
        raise MessageTooLargeError(
            int(plane.local_ids[sender]),
            int(plane.local_ids[receiver]),
            int(bits[over][first]),
            int(budgets[plane.instance_of[sender]]),
        )
    return (
        np.bincount(inst, minlength=k_count),
        np.bincount(inst, weights=bits, minlength=k_count),
        wire_max,
    )


def _round_limits(
    max_rounds: Union[int, Sequence[int]], k_count: int
) -> List[int]:
    """Per-instance round limits from an int or a per-instance sequence."""
    if isinstance(max_rounds, (int, np.integer)):
        return [int(max_rounds)] * k_count
    limits = [int(r) for r in max_rounds]
    if len(limits) != k_count:
        raise BatchEligibilityError(
            f"got {len(limits)} round limits for {k_count} instances"
        )
    return limits


def _rounds(
    plane: StackedPlane,
    networks: Sequence[Network],
    limits: Sequence[int],
    kernel: VectorKernel,
    pending,
) -> Iterator[Tuple[int, SimulationResult]]:
    """The round loop: yields ``(k, result)`` as each instance finishes.

    Every tick follows the solo loops' order.  An instance over its round
    limit raises before the tick's traffic is charged.  The traffic is
    charged against each instance's budget, then the round executes, and
    an instance whose nodes all halted in it finishes, its queued traffic
    discarded uncharged.  Every node boots live, so no instance finishes
    before its first round.

    The ledger is per-instance: one history row per executed round for
    messages, bits and the largest message.  Instances finish in monotone
    order, so each unfinished instance has executed every round so far:
    the history *is* its per-round series.  A round in which instances
    finish stacks the three histories once into an int64
    ``(3, rounds, K)`` table, and each finished instance reads its column.
    """
    budgets = np.array(
        [_NO_BUDGET if net.bit_budget is None else net.bit_budget
         for net in networks],
        dtype=np.int64,
    )
    offsets = plane.node_offsets.tolist()
    #: Nodes whose sends reach a wire (see ``_accumulate_round``).
    charged = plane.degrees > 0
    open_limits = dict(enumerate(limits))
    next_limit = min(limits)
    hist_msgs: List[np.ndarray] = []
    hist_bits: List[np.ndarray] = []
    hist_max: List[np.ndarray] = []
    #: Kernel nodes only ever halt, so an instance's finish shows as a
    #: change of the plane's live count; the per-instance reduction waits
    #: for one.
    live_count = plane.n
    rounds = 0

    def finish(k: int, table: np.ndarray) -> Tuple[int, SimulationResult]:
        """Snapshot instance ``k``'s solo-equivalent result."""
        nonlocal next_limit
        lo, hi = offsets[k], offsets[k + 1]
        charged[lo:hi] = False
        del open_limits[k]
        next_limit = min(open_limits.values(), default=0)
        outputs = {}
        for key, (values, written) in kernel.output_columns.items():
            nodes = np.flatnonzero(written[lo:hi])
            if nodes.size:
                outputs[key] = (nodes.tolist(), values[lo + nodes].tolist())
        messages, bits, largest = table[:, :, k]
        return k, SimulationResult(
            rounds=rounds,
            total_messages=int(messages.sum()),
            total_bits=int(bits.sum()),
            max_message_bits=int(largest.max()),
            outputs=outputs,
            all_halted=True,
            messages_per_round=messages.tolist(),
            bits_per_round=bits.tolist(),
        )

    while True:
        if rounds >= next_limit:
            raise SimulationLimitError(
                f"simulation did not terminate within {next_limit} rounds"
            )
        msgs_k, bits_k, max_k = _accumulate_round(
            plane, pending, charged, budgets
        )
        hist_msgs.append(msgs_k)
        hist_bits.append(bits_k)
        hist_max.append(max_k)
        rounds += 1
        pending = kernel.step(rounds, pending)
        count = np.count_nonzero(kernel.live)
        if count == live_count:
            continue
        live_count = count
        alive = plane.live_per_instance(kernel.live)
        finished = [
            k for k in np.flatnonzero(alive == 0).tolist() if k in open_limits
        ]
        if finished:
            table = np.array([hist_msgs, hist_bits, hist_max], dtype=np.int64)
            for k in finished:
                yield finish(k, table)
        if not open_limits:
            return


def _iter_stacked(
    networks: Sequence[Network],
    program_factory: type,
    inputs: Sequence[Optional[Mapping[int, object]]],
    limits: Sequence[int],
) -> Iterator[Tuple[int, SimulationResult]]:
    """Generator body of :func:`iter_stacked` (arguments pre-validated)."""
    kernel_cls = kernel_for(program_factory)
    inputs = [node_inputs or {} for node_inputs in inputs]
    for net, node_inputs in zip(networks, inputs):
        if not kernel_cls.eligible(net, node_inputs):
            raise BatchEligibilityError(
                f"{kernel_cls.__name__} declined an instance of the group"
            )
    plane = StackedPlane(networks)
    kernel, pending = kernel_cls.stacked_setup(plane, inputs)
    yield from _rounds(plane, networks, limits, kernel, pending)


def iter_stacked(
    networks: Sequence[Network],
    program_factory: type,
    inputs: Optional[Sequence[Optional[Mapping[int, object]]]] = None,
    max_rounds: Union[int, Sequence[int]] = 10_000,
) -> Iterator[Tuple[int, SimulationResult]]:
    """Run K instances as one stacked plane, streaming finished instances.

    Yields ``(instance_index, result)`` **the moment the instance's
    termination mask flips** — a small instance that halts early surfaces
    long before its larger siblings finish — in completion order (ties
    broken by instance index).  Each yielded result is bit-for-bit equal
    to the instance's solo run of the same (network, inputs) pair on any
    engine; collect them all and you have exactly :func:`run_stacked`'s
    output.

    ``inputs`` is one optional ``{node: input}`` mapping per instance.
    ``max_rounds`` may be an int (shared limit) or one limit per instance
    (a ragged group's natural shape, e.g. size-derived limits).  An
    unfinished instance hitting its own limit aborts the whole group with
    the solo :class:`~repro.errors.SimulationLimitError`; callers such as
    the batch runner fall back to per-cell execution for the instances
    not yet yielded, which reproduces each solo outcome (including the
    solo error) exactly.

    Raises :class:`~repro.errors.BatchEligibilityError` when the
    instances cannot be stacked (see the module docstring for the rules).
    Static eligibility and argument shapes are validated eagerly — at the
    call, not on first iteration — so the error surfaces at the faulty
    call site even if the iterator is handed off or never consumed
    (run-time conditions such as a declining kernel gate still raise
    from the iterator).
    """
    k_count = len(networks)
    if k_count == 0:
        raise BatchEligibilityError("cannot stack zero instances")
    reason = stack_ineligibility(program_factory)
    if reason is not None:
        raise BatchEligibilityError(reason)
    limits = _round_limits(max_rounds, k_count)
    if inputs is None:
        inputs = [None] * k_count
    elif len(inputs) != k_count:
        raise BatchEligibilityError(
            f"got {len(inputs)} input mappings for {k_count} instances"
        )
    return _iter_stacked(list(networks), program_factory, inputs, limits)


def run_stacked(
    networks: Sequence[Network],
    program_factory: type,
    inputs: Optional[Sequence[Optional[Mapping[int, object]]]] = None,
    max_rounds: Union[int, Sequence[int]] = 10_000,
) -> List[SimulationResult]:
    """Run one program family on K instance networks as one stacked plane.

    Returns one :class:`SimulationResult` per instance (in instance
    order), bit-for-bit equal to K solo runs of the same (network, inputs)
    pairs; the streaming variant is :func:`iter_stacked`.  Raises
    :class:`~repro.errors.BatchEligibilityError` when the instances cannot
    be stacked (see the module docstring for the rules) — callers such as
    the batch runner fall back to per-cell execution.
    """
    results: List[Optional[SimulationResult]] = [None] * len(networks)
    for k, result in iter_stacked(
        networks, program_factory, inputs=inputs, max_rounds=max_rounds
    ):
        results[k] = result
    return results  # type: ignore[return-value]


def run_instance(
    network: Network,
    kernel_cls: type,
    inputs: Mapping[int, object],
    max_rounds: int,
) -> SimulationResult:
    """One solo ``vector`` run: the round loop on a one-instance plane.

    ``inputs`` maps nodes to their program inputs and has passed
    ``kernel_cls.eligible``; the kernel boots from them through
    ``stacked_setup``, as every instance of a stacked group does.
    """
    plane = StackedPlane([network])
    kernel, pending = kernel_cls.stacked_setup(plane, [inputs])
    return next(_rounds(plane, [network], [max_rounds], kernel, pending))[1]
