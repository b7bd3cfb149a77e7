"""Batched multi-instance execution: K instances as one stacked message plane.

Statistical sweeps — the Theorem 1.1/1.2 style experiments — are many
independent runs of the *same* program family over different seeded
topologies.  Solo, each run pays the vector engine's per-round fixed cost
(a few dozen numpy dispatches) on arrays that are tiny for suite-sized
graphs, so a 50-seed sweep pays that overhead 50 times over.  This module
stacks the K instances into **one** columnar message plane so each numpy
kernel invocation advances every instance at once:

* :class:`StackedPlane` — K per-instance CSR topologies concatenated
  block-diagonally in instance-major order.  The layout is **ragged**:
  instances may have *different* node counts, described by per-instance
  offset tables (``local_ns[k]`` is instance ``k``'s size,
  ``node_offsets[k]`` its first global node, ``slot_offsets[k]`` its first
  edge slot).  Because no row ever references another instance's slots,
  all of :class:`~repro.congest.engine.vector.CsrPlane`'s row reductions
  (``np.add.reduceat`` over the non-empty rows) are exactly the
  per-instance reductions, computed in one call; per-instance aggregates
  reduce the same way over the ``node_offsets`` segment boundaries.
* :func:`iter_stacked` / :func:`run_stacked` — the batched run loop.  It
  instantiates programs and contexts *per instance with local ids* (so
  every message field, bit length and packed comparison key is identical
  to a solo run), performs the scalar ``setup`` + handover per instance,
  then drives the registered
  :class:`~repro.congest.engine.vector.VectorKernel` over the union plane
  with **per-instance accounting**: each instance has its own round
  counter, per-round series, wire totals, bit budget, round limit and
  termination mask.  The moment an instance's termination mask flips,
  :func:`iter_stacked` yields its finished :class:`SimulationResult` —
  in-group per-record streaming — and the result is bit-for-bit what the
  instance's solo ``vector``-engine run would have produced (the parity
  suite in ``tests/test_batched_engine.py`` enforces this across the
  graph zoo, for uniform and mixed-size groups alike).

Instances need not enter the plane in lockstep.  When the kernel's
``takeover_round`` exceeds 1 for any instance, each instance runs its own
**scalar prologue** — exact ``FastEngine`` collect/charge/receive
mechanics, driven by the shared global round clock — and joins the plane
at its *own* takeover round: the runner collects the instance's handover
broadcast, scatters it into the plane's pending traffic, and asks the
kernel to :meth:`~repro.congest.engine.vector.VectorKernel.absorb_instance`
the scalar state into its slice of the plane (the kernel boots from
:meth:`~repro.congest.engine.vector.VectorKernel.stacked_blank`, all nodes
dead, and lights slices up as instances arrive).  Because every instance
executes round ``r`` at global tick ``r``, no round skew exists and every
ledger entry matches the solo run.  Kernels may additionally publish a
:attr:`~repro.congest.engine.vector.VectorKernel.prologue_oracle` that
names the nodes whose ``receive`` can act in a given prologue round, so
the scalar prologue costs O(actors) instead of O(n) per round — this is
how the Lemma 3.10 program stacks heterogeneous inputs: its takeover
round is ``2 + 3 * num_colors``, a per-instance quantity, its
color-class rounds run as sparse scalar prologues, and its execution
phase runs vectorized on the shared plane.  Canonical uniform Lemma 3.10
instances instead take over at round 1 and run the color-class rounds
*in-plane* (targeted alpha traffic and all), so an all-canonical group is
a pure lockstep run with no scalar prologue; a mixed group carries
in-plane and prologue instances side by side, and one plane round may
then hold several differently-tagged pending parts.

Eligibility is deliberately narrow and fails loudly
(:class:`~repro.errors.BatchEligibilityError`) so callers can fall back to
per-cell execution:

* the program class declares :attr:`NodeProgram.message_specs` and has a
  registered kernel whose :attr:`VectorKernel.stackable` flag is set —
  the kernel promises to use ``plane.local_n_of`` / ``plane.local_ids``
  and to never consult ``self.network``;
* a kernel whose ``takeover_round`` exceeds 1 for some instance must
  implement ``absorb_instance`` (late joins are refused otherwise);
* the traffic queued at every handover point — ``setup`` for round-1
  takeovers, the last prologue round otherwise — is a conforming
  single-tag broadcast per instance; lockstep (round-1) groups must share
  one tag, while late joiners merge into the plane round's matching-tag
  part or ride along as an extra part (a silent instance joins any tag).

Node counts, bit budgets and round limits are all per-instance — mixed
sizes (and hence the size-derived CONGEST budgets) stack fine.  Instances
terminate independently: a finished instance's nodes leave the kernel's
live mask, so its portion of every later broadcast mask is empty — zero
messages, zero bits, no leakage into the siblings' accounting — and its
per-round series simply stops growing while the others run on.
"""

from __future__ import annotations

from typing import (
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.congest.engine.base import SimulationResult
from repro.congest.engine.fast import _EMPTY_INBOX, FastEngine, Inboxes
from repro.congest.engine.vector import (
    _NONCONFORMING,
    CsrPlane,
    PendingBroadcast,
    PendingTargeted,
    VectorEngine,
    VectorKernel,
    _as_int64,
    kernel_for,
    pending_parts,
)
from repro.congest.network import Network
from repro.congest.node import Context, NodeProgram
from repro.errors import (
    BatchEligibilityError,
    MessageTooLargeError,
    SimulationLimitError,
)

__all__ = [
    "StackedPlane",
    "iter_stacked",
    "run_stacked",
    "stack_ineligibility",
]

#: Per-node budget stand-in for LOCAL-model instances (unbounded messages);
#: far above any bit length :func:`bit_length_array` accepts.
_NO_BUDGET = np.iinfo(np.int64).max


class StackedPlane(CsrPlane):
    """K instance topologies as one ragged block-diagonal CSR plane.

    Instance ``k`` owns the global node range
    ``node_offsets[k] .. node_offsets[k+1] - 1`` (its size is
    ``local_ns[k]``) and the edge-slot range
    ``slot_offsets[k] .. slot_offsets[k+1]``.  ``local_ids`` maps every
    global node back to its per-instance id, ``instance_of`` to its
    instance index, and ``local_n_of`` to its instance's node count — the
    ``n`` that node's program believes it is running on.  ``local_n`` is
    the shared size when the stack is uniform and ``None`` when it is
    ragged (kernels must use the per-node ``local_n_of`` either way).
    """

    __slots__ = (
        "instances",
        "slot_offsets",
        "instance_of",
        "slot_instance",
    )

    def __init__(self, networks: Sequence[Network]):
        if not networks:
            raise BatchEligibilityError("cannot stack zero instances")
        k_count = len(networks)
        local_ns = np.fromiter(
            (net.n for net in networks), dtype=np.int64, count=k_count
        )
        node_offsets = np.zeros(k_count + 1, dtype=np.int64)
        np.cumsum(local_ns, out=node_offsets[1:])
        indptr_parts: List[np.ndarray] = []
        indices_parts: List[np.ndarray] = []
        slot_offsets = np.zeros(k_count + 1, dtype=np.int64)
        for k, net in enumerate(networks):
            indptr, indices = net.csr()
            indptr = _as_int64(indptr)
            indices = _as_int64(indices)
            # Globalize: shift row starts by the slots already emitted and
            # neighbor ids into instance k's node range.
            start = indptr[1:] if k else indptr
            indptr_parts.append(start + slot_offsets[k])
            indices_parts.append(indices + node_offsets[k])
            slot_offsets[k + 1] = slot_offsets[k] + indices.shape[0]
        self._init_arrays(
            np.concatenate(indptr_parts), np.concatenate(indices_parts)
        )
        self.instances = k_count
        self.local_ns = local_ns
        self.node_offsets = node_offsets
        self.slot_offsets = slot_offsets
        uniform = bool((local_ns == local_ns[0]).all())
        self.local_n = int(local_ns[0]) if uniform else None
        self.local_ids = np.arange(self.n, dtype=np.int64) - np.repeat(
            node_offsets[:-1], local_ns
        )
        self.local_n_of = np.repeat(local_ns, local_ns)
        self.instance_of = np.repeat(
            np.arange(k_count, dtype=np.int64), local_ns
        )
        self.slot_instance = np.repeat(
            np.arange(k_count, dtype=np.int64), np.diff(slot_offsets)
        )

    def live_per_instance(self, live: np.ndarray) -> np.ndarray:
        """Per-instance count of set flags in a global node mask.

        ``reduceat`` over the ragged ``node_offsets`` segment boundaries —
        exact per-instance sums regardless of instance sizes.
        """
        return np.add.reduceat(
            live.astype(np.int64), self.node_offsets[:-1]
        )


def stack_ineligibility(program_cls: type) -> Optional[str]:
    """Why ``program_cls`` cannot run stacked, or ``None`` if it can.

    This is the *static* half of eligibility (specs declared, kernel
    registered and stackable); :func:`iter_stacked` additionally verifies
    the per-instance conditions (conforming handovers, and
    ``absorb_instance`` support when a takeover round exceeds 1) at run
    time.
    """
    if not getattr(program_cls, "message_specs", ()):
        return f"{program_cls.__name__} declares no message_specs"
    kernel_cls = kernel_for(program_cls)
    if kernel_cls is None:
        return f"{program_cls.__name__} has no registered vector kernel"
    if not kernel_cls.stackable:
        return f"{kernel_cls.__name__} is not stackable"
    return None


def _accumulate_round(
    plane: StackedPlane,
    pending,
    node_budget: Optional[np.ndarray],
    active_nodes: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-instance exact wire totals ``(messages, bits, max_bits)``.

    The instance-wise analogue of ``VectorEngine._account``, summed over
    every part of the round (a ragged plane can carry differently-tagged
    broadcast *and* targeted traffic side by side): a broadcast puts
    ``degree`` copies of the sender's message on the wire, so its
    per-instance counts are degree-weighted sums over that instance's
    senders; a targeted part puts exactly one message per masked slot on
    the wire, bucketed by ``slot_instance``.  ``active_nodes`` masks out
    finished instances — their bottom-of-loop queued traffic is discarded
    uncharged and unchecked, exactly as the solo loop never reaches
    another accounting pass.  ``node_budget`` holds every sender's own
    instance's bit budget (budgets are per-instance on a ragged plane);
    raises :class:`MessageTooLargeError` for the lowest-global-id
    over-budget sender (reported with its *local* ids, matching what the
    corresponding solo run would raise).
    """
    k_count = plane.instances
    messages = np.zeros(k_count, dtype=np.int64)
    bits_total = np.zeros(k_count, dtype=np.int64)
    wire_max = np.zeros(k_count, dtype=np.int64)
    for part in pending_parts(pending):
        if isinstance(part, PendingTargeted):
            _accumulate_targeted(
                plane, part, node_budget, active_nodes,
                messages, bits_total, wire_max,
            )
        else:
            _accumulate_broadcast(
                plane, part, node_budget, active_nodes,
                messages, bits_total, wire_max,
            )
    return messages, bits_total, wire_max


def _accumulate_broadcast(
    plane: StackedPlane,
    pending: PendingBroadcast,
    node_budget: Optional[np.ndarray],
    active_nodes: np.ndarray,
    messages: np.ndarray,
    bits_total: np.ndarray,
    wire_max: np.ndarray,
) -> None:
    senders = pending.sender_ids()
    degrees = plane.degrees[senders]
    on_wire = (degrees > 0) & active_nodes[senders]
    if not on_wire.any():
        return
    senders = senders[on_wire]
    degrees = degrees[on_wire]
    bits = pending.bits[senders]
    if node_budget is not None:
        over = bits > node_budget[senders]
        if over.any():
            sender = int(senders[np.argmax(over)])
            receiver = int(plane.indices[plane.indptr[sender]])
            raise MessageTooLargeError(
                int(plane.local_ids[sender]),
                int(plane.local_ids[receiver]),
                int(pending.bits[sender]),
                int(node_budget[sender]),
            )
    k_count = plane.instances
    inst = plane.instance_of[senders]
    # float64 bincount weights are exact here: per-round per-instance wire
    # totals are far below 2**53 for any CONGEST-budgeted workload.
    messages += np.bincount(inst, weights=degrees, minlength=k_count).astype(
        np.int64
    )
    bits_total += np.bincount(
        inst, weights=degrees * bits, minlength=k_count
    ).astype(np.int64)
    np.maximum.at(wire_max, inst, bits)


def _accumulate_targeted(
    plane: StackedPlane,
    pending: PendingTargeted,
    node_budget: Optional[np.ndarray],
    active_nodes: np.ndarray,
    messages: np.ndarray,
    bits_total: np.ndarray,
    wire_max: np.ndarray,
) -> None:
    senders = plane.indices
    on_wire = pending.slot_mask & active_nodes[senders]
    if not on_wire.any():
        return
    if node_budget is not None:
        over = on_wire & (pending.bits > node_budget[senders])
        if over.any():
            slots = np.flatnonzero(over)
            slot = int(slots[np.lexsort((slots, senders[slots]))[0]])
            sender = int(senders[slot])
            receiver = (
                int(np.searchsorted(plane.indptr, slot, "right")) - 1
            )
            raise MessageTooLargeError(
                int(plane.local_ids[sender]),
                int(plane.local_ids[receiver]),
                int(pending.bits[slot]),
                int(node_budget[sender]),
            )
    k_count = plane.instances
    inst = plane.slot_instance[on_wire]
    bits = pending.bits[on_wire]
    messages += np.bincount(inst, minlength=k_count).astype(np.int64)
    bits_total += np.bincount(
        inst, weights=bits.astype(np.float64), minlength=k_count
    ).astype(np.int64)
    np.maximum.at(wire_max, inst, bits)


def _stitch_handover(
    plane: StackedPlane,
    collected: Sequence[PendingBroadcast],
) -> Optional[PendingBroadcast]:
    """Combine per-instance handover traffic into one stacked broadcast."""
    specs = {p.spec.tag: p.spec for p in collected if p.mask.any()}
    if len(specs) > 1:
        raise BatchEligibilityError(
            f"instances handed over mixed tags: {sorted(specs)}"
        )
    spec = next(iter(specs.values())) if specs else collected[0].spec
    mask = np.concatenate([p.mask for p in collected])
    # A silent instance may have defaulted to a different spec; its column
    # values are never read (empty mask), only their shape must line up.
    per_instance_columns = [
        p.columns
        if p.spec.arity == spec.arity
        else tuple(np.zeros_like(p.bits) for _ in range(spec.arity))
        for p in collected
    ]
    columns = tuple(
        np.concatenate([cols[i] for cols in per_instance_columns])
        for i in range(spec.arity)
    )
    bits = np.concatenate([p.bits for p in collected])
    return PendingBroadcast(spec, mask, columns, bits)


class _PrologueInstance:
    """One instance still executing its scalar prologue inside a stacked run.

    Holds the exact solo-scalar machinery — per-node records, the active
    map, inbox planes, the drain set and the instance's own bit budget —
    so every prologue round runs :class:`FastEngine`'s collect/charge/
    receive mechanics bit for bit, just driven by the shared global clock.
    ``oracle`` (from :attr:`VectorKernel.prologue_oracle`) optionally
    names the nodes whose ``receive`` can act in a given round; skipped
    nodes are provably no-ops, so sparse prologues charge and deliver
    identically to the solo full scan.
    """

    __slots__ = (
        "index",
        "net",
        "n",
        "takeover",
        "programs",
        "contexts",
        "active",
        "drain",
        "inboxes",
        "budget",
        "oracle",
        "touched",
    )

    def __init__(
        self,
        index: int,
        net: Network,
        programs: Dict[int, NodeProgram],
        contexts: Dict[int, Context],
        records: List[tuple],
    ):
        self.index = index
        self.net = net
        self.n = net.n
        self.takeover = 1
        self.programs = programs
        self.contexts = contexts
        #: id -> record, insertion-ordered ascending (the solo active list).
        self.active = {
            rec[0]: rec for rec in records if not rec[1]._halted
        }
        self.drain: Sequence[tuple] = records
        self.inboxes: Inboxes = [None] * net.n
        self.budget = net.bit_budget
        self.oracle = None
        self.touched: List[int] = []

    def execute_round(self, round_no: int) -> None:
        """Deliver and run one scalar round (solo active-set semantics).

        With an oracle, only the named actors run — in ascending id order,
        a subsequence of the solo scan, so inbox insertion order and every
        per-node call sequence are preserved.  The executed set becomes
        the next round's drain (non-actors queue nothing, so draining only
        actors collects exactly the solo traffic).
        """
        actors = None if self.oracle is None else self.oracle(round_no)
        if actors is None:
            executed = list(self.active.values())
        else:
            get = self.active.get
            executed = [
                rec for a in actors if (rec := get(int(a))) is not None
            ]
        inboxes = self.inboxes
        for rec in executed:
            v, ctx, recv = rec
            ctx.round_number = round_no
            box = inboxes[v]
            if box is None:
                recv(ctx, _EMPTY_INBOX)
            else:
                inboxes[v] = None
                recv(ctx, box)
            if ctx._halted:
                del self.active[v]
        for to in self.touched:
            inboxes[to] = None
        self.touched = []
        self.drain = executed


def _boot_instances(
    plane: StackedPlane,
    networks: Sequence[Network],
    program_factory: type,
    inputs: Optional[Sequence[Optional[Mapping[int, object]]]],
    kernel_cls: type,
):
    """Object-level boot for kernels without a vectorized ``stacked_setup``.

    Instantiates programs and contexts per instance with *local* ids (so
    every message field and bit length matches the solo run), runs the
    scalar round 0 (``setup``) and computes each instance's takeover
    round.  Returns the per-instance prologue state plus the union
    program/context maps (global ids) the kernel and the finishers read.
    """
    booted: List[_PrologueInstance] = []
    union_programs: Dict[int, NodeProgram] = {}
    union_contexts: Dict[int, Context] = {}
    for k, net in enumerate(networks):
        node_inputs = inputs[k] if inputs and inputs[k] else {}
        base = int(plane.node_offsets[k])
        contexts: Dict[int, Context] = {}
        programs: Dict[int, NodeProgram] = {}
        records: List[tuple] = []
        for v in range(net.n):
            ctx = Context(v, net.neighbors(v), net.n)
            prog = program_factory(node_inputs.get(v))
            contexts[v] = ctx
            programs[v] = prog
            ctx.round_number = 0
            prog.setup(ctx)
            records.append((v, ctx, prog.receive))
            union_programs[base + v] = prog
            union_contexts[base + v] = ctx
        if not kernel_cls.eligible(net, programs):
            raise BatchEligibilityError(
                f"{kernel_cls.__name__} declined an instance of the group"
            )
        inst = _PrologueInstance(k, net, programs, contexts, records)
        inst.takeover = int(kernel_cls.takeover_round(net, programs))
        booted.append(inst)
    return booted, union_programs, union_contexts


def _merge_joiners(
    plane: StackedPlane,
    pending,
    joiners: Sequence[Tuple[int, PendingBroadcast]],
):
    """Scatter per-instance takeover broadcasts into the plane's traffic.

    ``pending`` is the kernel's own outbound traffic for this plane round
    (masks confined to already-absorbed instances; possibly several
    differently-tagged parts); each joiner contributes its local handover
    broadcast at its node-offset slice.  Joiners are grouped by tag: each
    group merges into the kernel part carrying the same tag when one
    exists, otherwise it becomes a new broadcast part — one plane round
    may legitimately carry mixed tags when instances are in different
    protocol phases.  Returns ``None`` / a single part / a tuple of
    parts, in kernel-part order with appended joiner tags last.
    """
    parts = list(pending_parts(pending))
    groups: Dict[str, List[Tuple[int, PendingBroadcast]]] = {}
    for k, joiner in joiners:
        if joiner.mask.any():
            groups.setdefault(joiner.spec.tag, []).append((k, joiner))
    for tag, group in groups.items():
        target: Optional[PendingBroadcast] = None
        for part in parts:
            if isinstance(part, PendingBroadcast) and part.spec.tag == tag:
                target = part
                break
        if target is None:
            spec = group[0][1].spec
            target = PendingBroadcast(
                spec,
                np.zeros(plane.n, dtype=bool),
                tuple(
                    np.zeros(plane.n, dtype=np.int64)
                    for _ in range(spec.arity)
                ),
                np.zeros(plane.n, dtype=np.int64),
            )
            parts.append(target)
        for k, joiner in group:
            lo = int(plane.node_offsets[k])
            hi = lo + int(plane.local_ns[k])
            # The kernel's own masks never cover a just-joining instance,
            # so slice assignment cannot clobber absorbed traffic.
            target.mask[lo:hi] = joiner.mask
            target.senders = None  # stale once the mask changed
            target.bits[lo:hi] = joiner.bits
            if joiner.spec.arity == target.spec.arity:
                for i in range(target.spec.arity):
                    target.columns[i][lo:hi] = joiner.columns[i]
    if not parts:
        return None
    return parts[0] if len(parts) == 1 else tuple(parts)


def _round_limits(
    max_rounds: Union[int, Sequence[int]], k_count: int
) -> np.ndarray:
    """Per-instance round limits from an int or a per-instance sequence."""
    if isinstance(max_rounds, (int, np.integer)):
        return np.full(k_count, int(max_rounds), dtype=np.int64)
    limits = np.asarray([int(r) for r in max_rounds], dtype=np.int64)
    if limits.shape[0] != k_count:
        raise BatchEligibilityError(
            f"got {limits.shape[0]} round limits for {k_count} instances"
        )
    return limits


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
    to the instance's solo ``vector``-engine run of the same
    (network, inputs) pair; collect them all and you have exactly
    :func:`run_stacked`'s output.

    ``max_rounds`` may be an int (shared limit) or one limit per instance
    (a ragged group's natural shape, e.g. size-derived limits).  An
    unfinished instance hitting its own limit aborts the whole group with
    :class:`~repro.errors.SimulationLimitError`; callers such as the batch
    runner fall back to per-cell execution for the instances not yet
    yielded, which reproduces each solo outcome (including the solo
    error) exactly.

    Raises :class:`~repro.errors.BatchEligibilityError` when the
    instances cannot be stacked (see the module docstring for the rules).
    Static eligibility and argument shapes are validated eagerly — at the
    call, not on first iteration — so the error surfaces at the faulty
    call site even if the iterator is handed off or never consumed
    (run-time conditions such as a non-conforming handover still raise
    from the iterator).
    """
    k_count = len(networks)
    if k_count == 0:
        raise BatchEligibilityError("cannot stack zero instances")
    reason = stack_ineligibility(program_factory)
    if reason is not None:
        raise BatchEligibilityError(reason)
    limits = _round_limits(max_rounds, k_count)
    return _iter_stacked(list(networks), program_factory, inputs, limits)


def _iter_stacked(
    networks: Sequence[Network],
    program_factory: type,
    inputs: Optional[Sequence[Optional[Mapping[int, object]]]],
    limits: np.ndarray,
) -> Iterator[Tuple[int, SimulationResult]]:
    """Generator body of :func:`iter_stacked` (arguments pre-validated)."""
    k_count = len(networks)
    kernel_cls = kernel_for(program_factory)

    plane = StackedPlane(networks)
    budgets = [net.bit_budget for net in networks]
    if all(b is None for b in budgets):
        node_budget = None
    else:
        node_budget = np.repeat(
            np.asarray(
                [_NO_BUDGET if b is None else int(b) for b in budgets],
                dtype=np.int64,
            ),
            plane.local_ns,
        )
    union_contexts: Optional[Dict[int, Context]] = None
    #: Instances still in their scalar prologue, keyed by instance index.
    prologue: Dict[int, _PrologueInstance] = {}
    absorbed = np.ones(k_count, dtype=bool)
    boot = None
    if kernel_cls.stacked_setup is not None:
        # Vectorized boot: no per-node program or context objects at all —
        # the kernel initializes its planes and the round-1 broadcast
        # directly from the instance inputs.  This is where batched sweeps
        # stop paying O(total nodes) Python object construction.
        # ``stacked_setup`` implies a round-1 takeover for every instance;
        # a kernel with *conditional* round-1 takeover (lemma310's
        # canonical gate) returns ``None`` to decline the group, sending
        # it through the object-level boot and its per-instance takeover
        # machinery below.
        boot = kernel_cls.stacked_setup(
            plane, list(inputs) if inputs else [None] * k_count
        )
    if boot is not None:
        kernel, pending = boot
    else:
        booted, union_programs, union_contexts = _boot_instances(
            plane, networks, program_factory, inputs, kernel_cls
        )
        specs = program_factory.message_specs
        if all(inst.takeover <= 1 for inst in booted):
            # Lockstep boot: every instance hands over at round 1, so the
            # kernel is constructed from the union state and the setup
            # traffic is stitched into one plane-wide broadcast.
            collected: List[PendingBroadcast] = []
            for inst in booted:
                handover = VectorEngine._collect_handover(
                    inst.drain, specs, inst.n
                )
                if handover is _NONCONFORMING:
                    raise BatchEligibilityError(
                        "an instance queued non-conforming traffic "
                        "during setup"
                    )
                collected.append(handover)
            # Stackable kernels never consult the network argument (there
            # is no single network to hand them) — part of the `stackable`
            # contract.
            kernel = kernel_cls(plane, None, union_programs, union_contexts)
            pending = _stitch_handover(plane, collected)
        else:
            # Per-instance takeover: boot the kernel dead and let each
            # instance join the plane at its own takeover round, running
            # exact scalar-prologue rounds until then.
            if kernel_cls.absorb_instance is VectorKernel.absorb_instance:
                raise BatchEligibilityError(
                    f"{kernel_cls.__name__} takes over after round 1 but "
                    "does not implement absorb_instance; instances cannot "
                    "join the plane late"
                )
            kernel = kernel_cls.stacked_blank(plane)
            pending = None
            absorbed = np.zeros(k_count, dtype=bool)
            oracle_factory = kernel_cls.prologue_oracle
            for inst in booted:
                if inst.takeover > 1 and oracle_factory is not None:
                    inst.oracle = oracle_factory(inst.net, inst.programs)
                prologue[inst.index] = inst

    # -- the stacked loop: VectorEngine._run_hybrid with K ledgers ----------
    #
    # Accounting is fully incremental so an instance's result can be built
    # the instant it finishes: running per-instance totals plus per-round
    # history rows (one int64 vector of length K per executed round).
    # ``finished`` is monotone, so each unfinished instance has executed
    # every round so far — its counted rounds form a prefix of the history,
    # exactly its solo per-round series.
    hist_msgs: List[np.ndarray] = []
    hist_bits: List[np.ndarray] = []
    total_messages = np.zeros(k_count, dtype=np.int64)
    total_bits = np.zeros(k_count, dtype=np.int64)
    wire_max = np.zeros(k_count, dtype=np.int64)
    inst_rounds = np.zeros(k_count, dtype=np.int64)
    finished = np.zeros(k_count, dtype=bool)
    #: Node-level expansion of ``~finished`` (masks discarded traffic).
    active_nodes = np.ones(plane.n, dtype=bool)

    def _finish(k: int) -> Tuple[int, SimulationResult]:
        """Snapshot instance ``k``'s solo-equivalent result at flip time."""
        base = int(plane.node_offsets[k])
        local_n = int(plane.local_ns[k])
        lo, hi = base, base + local_n
        active_nodes[lo:hi] = False
        outputs: Dict[int, Dict[str, object]] = {}
        for v in range(local_n):
            g = base + v
            values = (
                dict(union_contexts[g]._outputs)
                if union_contexts is not None
                else {}
            )
            values.update(kernel._outputs.get(g, {}))
            outputs[v] = values
        executed = int(inst_rounds[k])
        return k, SimulationResult(
            rounds=executed,
            total_messages=int(total_messages[k]),
            total_bits=int(total_bits[k]),
            max_message_bits=int(wire_max[k]),
            outputs=outputs,
            all_halted=True,
            messages_per_round=[int(row[k]) for row in hist_msgs[:executed]],
            bits_per_round=[int(row[k]) for row in hist_bits[:executed]],
        )

    specs = program_factory.message_specs
    rounds = 0
    live_k = plane.live_per_instance(kernel.live)
    while True:
        # Per-instance takeover: instances whose next round is their
        # takeover round hand their queued broadcast over and join the
        # plane — the stacked analogue of the solo loop's top-of-loop
        # takeover check, so handover traffic is charged *this* tick.
        if prologue:
            joiners: List[Tuple[int, PendingBroadcast]] = []
            for k in sorted(prologue):
                inst = prologue[k]
                if finished[k] or inst_rounds[k] + 1 < inst.takeover:
                    continue
                handover = VectorEngine._collect_handover(
                    inst.drain, specs, inst.n
                )
                if handover is _NONCONFORMING:
                    raise BatchEligibilityError(
                        "an instance queued non-conforming traffic at its "
                        "takeover round"
                    )
                lo = int(plane.node_offsets[k])
                kernel.absorb_instance(
                    lo, lo + inst.n, inst.programs, inst.contexts
                )
                absorbed[k] = True
                joiners.append((k, handover))
            if joiners:
                for k, _ in joiners:
                    del prologue[k]
                pending = _merge_joiners(plane, pending, joiners)
                live_k = plane.live_per_instance(kernel.live)

        msgs_k, bits_k, wmax_k = _accumulate_round(
            plane, pending, node_budget, active_nodes
        )
        # Scalar prologue instances: exact FastEngine collection and
        # charging against the instance's own budget and running maximum,
        # folded into this tick's per-instance ledger row.
        for k, inst in prologue.items():
            if finished[k]:
                continue
            touched, sizes, senders = FastEngine._collect_traffic(
                inst.drain, inst.inboxes
            )
            inst.touched = touched
            round_bits, new_max = FastEngine._charge(
                sizes, senders, inst.budget, int(wire_max[k])
            )
            msgs_k[k] += len(sizes)
            bits_k[k] += round_bits
            wire_max[k] = new_max
        total_bits += bits_k
        np.maximum(wire_max, wmax_k, out=wire_max)
        # Solo top-of-loop break: an instance with no live nodes has its
        # in-flight traffic charged but does not execute the round.  A
        # prologue instance's "no live nodes" is an empty active map.
        newly = ~finished & absorbed & (live_k == 0)
        for k, inst in prologue.items():
            if not finished[k] and not inst.active:
                newly[k] = True
        if newly.any():
            finished |= newly
            for k in np.flatnonzero(newly):
                prologue.pop(int(k), None)
                yield _finish(int(k))
        if finished.all():
            return
        exhausted = ~finished & (inst_rounds >= limits)
        if exhausted.any():
            raise SimulationLimitError(
                "stacked simulation did not terminate within "
                f"{int(limits[exhausted].min())} rounds"
            )

        counted = ~finished
        total_messages += np.where(counted, msgs_k, 0)
        inst_rounds += counted
        hist_msgs.append(msgs_k)
        hist_bits.append(bits_k)
        rounds += 1
        pending = kernel.step(rounds, pending) if absorbed.any() else None
        for k, inst in prologue.items():
            if not finished[k]:
                inst.execute_round(rounds)
        live_k = plane.live_per_instance(kernel.live)
        # Solo bottom-of-loop break: traffic an instance queued during its
        # final round is discarded *uncharged* (``active_nodes`` masks it
        # out of the next accumulation; a finished prologue instance is
        # simply never drained again).
        newly = ~finished & absorbed & (live_k == 0)
        for k, inst in prologue.items():
            if not finished[k] and not inst.active:
                newly[k] = True
        if newly.any():
            finished |= newly
            for k in np.flatnonzero(newly):
                prologue.pop(int(k), None)
                yield _finish(int(k))
        if finished.all():
            return


def run_stacked(
    networks: Sequence[Network],
    program_factory: type,
    inputs: Optional[Sequence[Optional[Mapping[int, object]]]] = None,
    max_rounds: Union[int, Sequence[int]] = 10_000,
) -> List[SimulationResult]:
    """Run one program family on K instance networks as one stacked plane.

    Returns one :class:`SimulationResult` per instance (in instance
    order), bit-for-bit equal to K solo ``vector``-engine runs of the same
    (network, inputs) pairs; the streaming variant is
    :func:`iter_stacked`.  Raises
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
