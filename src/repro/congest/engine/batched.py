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
  block-diagonally in instance-major order.  The layout is **ragged**:
  instances may have *different* node counts, described by per-instance
  offset tables (``local_ns[k]`` is instance ``k``'s size,
  ``node_offsets[k]`` its first global node, ``slot_offsets[k]`` its first
  edge slot).  Because no row ever references another instance's slots,
  all of :class:`~repro.congest.engine.vector.CsrPlane`'s row reductions
  (``np.add.reduceat`` over the non-empty rows) are exactly the
  per-instance reductions, computed in one call; per-instance aggregates
  reduce the same way over the ``node_offsets`` segment boundaries.
* :func:`iter_stacked` / :func:`run_stacked` — the batched entry points.
  They instantiate programs and contexts *per instance with local ids*
  (so every message field, bit length and packed comparison key is
  identical to a solo run), perform the scalar ``setup`` + handover per
  instance, then drive the registered
  :class:`~repro.congest.engine.vector.VectorKernel` over the union plane
  with **per-instance accounting**: each instance has its own round
  counter, per-round series, wire totals, bit budget, round limit and
  termination mask.  The moment an instance's termination mask flips,
  :func:`iter_stacked` yields its finished :class:`SimulationResult` —
  in-group per-record streaming — and the result is bit-for-bit what the
  instance's solo run on any engine produces (``tests/test_batched_engine.py``
  and ``tests/test_stacked_fuzz.py`` compare against ``fast``, which
  ``tests/test_engine_parity.py`` pins to ``reference``).

The handover follows one set of rules for every width.  Each instance runs
its own **scalar prologue** — exact ``FastEngine`` collect/charge/receive
mechanics, driven by the shared global round clock — until its kernel
``takeover_round``; at that round the loop collects the broadcast the
instance queued and the instance joins the plane:

* when every instance takes over at round 1 with a conforming broadcast,
  the kernel is constructed from the union state (the **lockstep boot**),
  unless the kernel's ``stacked_setup`` already built it straight from the
  inputs (batched entry points only);
* otherwise the kernel boots from
  :meth:`~repro.congest.engine.vector.VectorKernel.stacked_blank`, all
  nodes dead, and lights each instance's slice up through
  :meth:`~repro.congest.engine.vector.VectorKernel.absorb_instance` as it
  joins;
* an instance whose traffic at its takeover round is not one full
  broadcast with a declared tag never joins: it finishes on FastEngine
  mechanics, a scalar prologue that never ends.

Because every instance executes round ``r`` at global tick ``r``, no round
skew exists and every ledger entry matches the solo run.  Kernels may
additionally publish a
:attr:`~repro.congest.engine.vector.VectorKernel.prologue_oracle` that
names the nodes whose ``receive`` can act in a given prologue round, so
the scalar prologue costs O(actors) instead of O(n) per round — this is
how the Lemma 3.10 program runs heterogeneous inputs: its takeover round
is ``2 + 3 * num_colors``, a per-instance quantity, its color-class rounds
run as sparse scalar prologues, and its execution phase runs vectorized
on the plane.  Canonical uniform Lemma 3.10 instances instead take over
at round 1 and run the color-class rounds *in-plane* (targeted alpha
traffic and all), so an all-canonical group is a pure lockstep run with
no scalar prologue; a mixed group carries in-plane and prologue instances
side by side, and one plane round may then hold several
differently-tagged pending parts.

Eligibility is deliberately narrow and fails loudly
(:class:`~repro.errors.BatchEligibilityError`) so callers can fall back to
per-cell execution:

* the program class declares :attr:`NodeProgram.message_specs` and has a
  registered kernel;
* a group whose instances join the plane one by one (a takeover round
  above 1, or a sibling that stays scalar) needs a kernel that implements
  ``absorb_instance``;
* lockstep groups must hand over one tag, while late joiners merge into
  the plane round's matching-tag part or ride along as an extra part (a
  silent instance joins any tag).

Node counts, bit budgets and round limits are all per-instance — mixed
sizes (and hence the size-derived CONGEST budgets) stack fine.  Instances
terminate independently: a finished instance's nodes leave the kernel's
live mask and its slice leaves the accounting, so its traffic never leaks
into the siblings' ledgers, and its per-round series simply stops growing
while the others run on.
"""

from __future__ import annotations

from itertools import accumulate
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
    CsrPlane,
    MessageSpec,
    PendingBroadcast,
    PendingTargeted,
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
    "run_instance",
    "run_stacked",
    "stack_ineligibility",
]

#: Per-instance budget stand-in for LOCAL-model instances (unbounded
#: messages); far above any bit length :func:`bit_length_array` accepts.
_NO_BUDGET = np.iinfo(np.int64).max

#: Sentinel: the queued traffic at an instance's takeover round is not a
#: conforming single-tag full broadcast, so the instance stays scalar.
_NONCONFORMING = object()


class StackedPlane(CsrPlane):
    """K instance topologies as one ragged block-diagonal CSR plane.

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
    """

    __slots__ = (
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
        self._init_arrays(
            np.concatenate(indptr_parts), np.concatenate(indices_parts)
        )
        self.instances = k_count
        self.local_ns = np.array(sizes, dtype=np.int64)
        self.node_offsets = np.array([0, *accumulate(sizes)], dtype=np.int64)
        self.slot_offsets = self.indptr[self.node_offsets]
        self.local_n = sizes[0] if sizes.count(sizes[0]) == k_count else None
        self.instance_of = np.repeat(np.arange(k_count), self.local_ns)
        self.local_ids = np.arange(self.n) - self.node_offsets[self.instance_of]
        self.local_n_of = self.local_ns[self.instance_of]

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
    registered); :func:`iter_stacked` additionally verifies the
    per-instance conditions (the kernel's ``eligible`` gate, and
    ``absorb_instance`` support when instances join one by one) at run
    time.
    """
    if not getattr(program_cls, "message_specs", ()):
        return f"{program_cls.__name__} declares no message_specs"
    if kernel_for(program_cls) is None:
        return f"{program_cls.__name__} has no registered vector kernel"
    return None


def _collect_handover(
    drain: Sequence[tuple],
    specs: Sequence[MessageSpec],
    n: int,
):
    """Drain one instance's queued outboxes into a :class:`PendingBroadcast`.

    Returns the pending traffic (possibly with an all-false mask), or
    :data:`_NONCONFORMING` when any queued outbox is not a full
    single-message broadcast with a declared tag — partial sends,
    per-neighbor messages and unknown tags all disqualify the round, in
    which case no outbox is touched and scalar execution continues.
    """
    spec_by_tag = {spec.tag: spec for spec in specs}
    senders: List[tuple] = []
    spec: Optional[MessageSpec] = None
    for rec in drain:
        ctx = rec[1]
        out = ctx._outbox
        if not out:
            continue
        if len(out) != ctx.degree:
            return _NONCONFORMING
        messages = iter(out.values())
        first = next(messages)
        for msg in messages:
            if msg is not first and msg != first:
                return _NONCONFORMING
        if spec is None:
            spec = spec_by_tag.get(first.tag)
            if spec is None or len(first.fields) != spec.arity:
                return _NONCONFORMING
        elif first.tag != spec.tag or len(first.fields) != spec.arity:
            return _NONCONFORMING
        senders.append((rec[0], ctx, first))

    mask = np.zeros(n, dtype=bool)
    if spec is None:
        spec = specs[0]  # silent handover round: any spec will do
    columns = tuple(np.zeros(n, dtype=np.int64) for _ in range(spec.arity))
    bits = np.zeros(n, dtype=np.int64)
    for v, ctx, msg in senders:
        ctx._outbox = {}
        mask[v] = True
        for i, field in enumerate(msg.fields):
            columns[i][v] = field
        bits[v] = msg.bits
    return PendingBroadcast(spec, mask, columns, bits)


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
    masked slot on the wire, bucketed by its sender's instance.  ``charged``
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
    """Slot-addressed traffic: one message per masked slot."""
    slots = np.flatnonzero(part.slot_mask)
    senders = plane.indices[slots]
    on_wire = charged[senders]
    slots, senders = slots[on_wire], senders[on_wire]
    inst = plane.instance_of[senders]
    bits = part.bits[slots]
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
            int(part.bits[slot]),
            int(budgets[plane.instance_of[sender]]),
        )
    return (
        np.bincount(inst, minlength=k_count),
        np.bincount(inst, weights=bits, minlength=k_count),
        wire_max,
    )


class _PrologueInstance:
    """One instance executing scalar rounds inside the round loop.

    Holds the exact solo-scalar machinery — per-node records, the active
    map, inbox planes, the drain set and the instance's own bit budget —
    so every scalar round runs :class:`FastEngine`'s collect/charge/
    receive mechanics bit for bit, just driven by the shared global clock.
    ``takeover`` is the round the instance joins the plane at, or
    ``None`` once its handover was non-conforming: it then runs scalar to
    the end.  ``oracle`` (from :attr:`VectorKernel.prologue_oracle`)
    optionally names the nodes whose ``receive`` can act in a given
    round; skipped nodes are provably no-ops, so sparse prologues charge
    and deliver identically to the solo full scan.
    """

    __slots__ = (
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
        net: Network,
        programs: Mapping[int, NodeProgram],
        contexts: Mapping[int, Context],
        records: List[tuple],
        takeover: Optional[int],
    ):
        self.net = net
        self.n = net.n
        self.takeover = takeover
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


def _setup(
    net: Network,
    programs: Mapping[int, NodeProgram],
    contexts: Mapping[int, Context],
) -> List[tuple]:
    """Scalar round 0: every node's ``setup``; returns the node records."""
    records = [(v, contexts[v], programs[v].receive) for v in range(net.n)]
    for v, ctx, _ in records:
        ctx.round_number = 0
        programs[v].setup(ctx)
    return records


def _instantiate(
    net: Network,
    program_factory: type,
    node_inputs: Optional[Mapping[int, object]],
    kernel_cls: type,
):
    """One instance's programs and contexts (*local* ids), set up."""
    node_inputs = node_inputs or {}
    programs = {v: program_factory(node_inputs.get(v)) for v in range(net.n)}
    contexts = {v: Context(v, net.neighbors(v), net.n) for v in range(net.n)}
    records = _setup(net, programs, contexts)
    if not kernel_cls.eligible(net, programs):
        raise BatchEligibilityError(
            f"{kernel_cls.__name__} declined an instance of the group"
        )
    return programs, contexts, records


def _object_boot(
    plane: StackedPlane,
    networks: Sequence[Network],
    built: Sequence[tuple],
    kernel_cls: type,
):
    """The boot handover of instances whose ``setup`` has run.

    ``built`` holds each instance's programs, contexts (local ids) and
    node records.  Instances that take over at round 1 with a conforming
    broadcast join the plane at boot; the rest become
    :class:`_PrologueInstance` entries.  Returns ``(kernel, pending,
    prologue, in_plane)``, ``in_plane`` flagging the instances that
    joined.
    """
    specs = kernel_cls.program_class.message_specs
    joiners: List[Tuple[int, PendingBroadcast]] = []
    prologue: Dict[int, _PrologueInstance] = {}
    for k, (net, (programs, contexts, records)) in enumerate(
        zip(networks, built)
    ):
        takeover: Optional[int] = int(kernel_cls.takeover_round(net, programs))
        if takeover <= 1:
            handover = _collect_handover(records, specs, net.n)
            if handover is not _NONCONFORMING:
                joiners.append((k, handover))
                continue
            takeover = None
        prologue[k] = _PrologueInstance(net, programs, contexts, records, takeover)

    in_plane = np.zeros(len(networks), dtype=bool)
    in_plane[[k for k, _ in joiners]] = True
    if not prologue:
        # Lockstep boot: the kernel reads every instance's state at once,
        # indexed by global id.
        kernel = kernel_cls(
            plane,
            [box[v] for (box, _, _), net in zip(built, networks)
             for v in range(net.n)],
            [box[v] for (_, box, _), net in zip(built, networks)
             for v in range(net.n)],
        )
        pending = _merge_joiners(plane, None, joiners)
        if isinstance(pending, tuple):
            raise BatchEligibilityError(
                "instances handed over mixed tags: "
                f"{sorted(part.spec.tag for part in pending)}"
            )
        return kernel, pending, prologue, in_plane

    # Instances join one by one: boot the kernel dead and absorb each
    # instance's state at its own takeover round.
    late = any(inst.takeover is not None for inst in prologue.values())
    if (joiners or late) and (
        kernel_cls.absorb_instance is VectorKernel.absorb_instance
    ):
        raise BatchEligibilityError(
            f"{kernel_cls.__name__} does not implement absorb_instance; "
            "instances cannot join the plane one by one"
        )
    kernel = kernel_cls.stacked_blank(plane)
    for k, _ in joiners:
        lo = int(plane.node_offsets[k])
        programs, contexts, _ = built[k]
        kernel.absorb_instance(lo, lo + networks[k].n, programs, contexts)
    oracle_factory = kernel_cls.prologue_oracle
    if oracle_factory is not None:
        for inst in prologue.values():
            if inst.takeover is not None:
                inst.oracle = oracle_factory(inst.net, inst.programs)
    return kernel, _merge_joiners(plane, None, joiners), prologue, in_plane


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
    contexts: Optional[Sequence[Mapping[int, Context]]],
    kernel: VectorKernel,
    pending,
    prologue: Dict[int, _PrologueInstance],
    in_plane: np.ndarray,
) -> Iterator[Tuple[int, SimulationResult]]:
    """The round loop: yields ``(k, result)`` as each instance finishes.

    Every tick follows the solo loops' order.  An instance over its round
    limit raises before the tick's traffic is charged.  The traffic is
    charged against each instance's budget; an instance with no live
    node then finishes without executing the round (checked at boot and
    after a join, the only ticks where it can happen).  Otherwise the
    round executes, and an instance whose nodes all halted in it
    finishes, its queued traffic discarded uncharged.

    The ledger is per-instance: one history row per executed round for
    messages, bits and the largest message.  Instances finish in monotone
    order, so each unfinished instance has executed every round so far:
    the history *is* its per-round series.  ``contexts`` holds each
    instance's contexts (local ids), ``None`` after a vectorized boot.
    """
    budgets = np.array(
        [_NO_BUDGET if net.bit_budget is None else net.bit_budget
         for net in networks],
        dtype=np.int64,
    )
    offsets = plane.node_offsets.tolist()
    specs = kernel.program_class.message_specs
    #: Nodes whose sends reach a wire (see ``_accumulate_round``).
    charged = plane.degrees > 0
    open_limits = dict(enumerate(limits))
    next_limit = min(limits)
    hist_msgs: List[np.ndarray] = []
    hist_bits: List[np.ndarray] = []
    hist_max: List[np.ndarray] = []
    stepping = bool(in_plane.any())
    #: Kernel nodes halt only in ``step`` and revive only by joining, so
    #: an instance's finish shows as a change of the plane's live count
    #: (a join resets it to force a look); the per-instance reduction
    #: waits for one.  At boot a fully live plane has no empty instance.
    live_count = plane.n
    rounds = 0

    def finished(count: int) -> List[int]:
        """Instances with no live node left, ascending."""
        nonlocal live_count
        done = [k for k, inst in prologue.items() if not inst.active]
        if count != live_count:
            live_count = count
            alive = plane.live_per_instance(kernel.live)
            done += np.flatnonzero(in_plane & (alive == 0)).tolist()
            done.sort()
        return done

    def finish(k: int, dropped_bits, dropped_max) -> Tuple[int, SimulationResult]:
        """Snapshot instance ``k``'s solo-equivalent result.

        ``dropped_*`` charge the traffic of a tick the instance did not
        execute (it had no live node at that tick's start).
        """
        nonlocal next_limit
        lo, hi = offsets[k], offsets[k + 1]
        charged[lo:hi] = False
        in_plane[k] = False
        prologue.pop(k, None)
        del open_limits[k]
        next_limit = min(open_limits.values(), default=0)
        if contexts:
            outputs = {v: dict(c._outputs) for v, c in contexts[k].items()}
        else:
            outputs = {v: {} for v in range(hi - lo)}
        kernel_output = kernel._outputs.get
        for v, values in outputs.items():
            extra = kernel_output(lo + v)
            if extra:
                values.update(extra)
        messages = [int(row[k]) for row in hist_msgs]
        bits = [int(row[k]) for row in hist_bits]
        largest = max((int(row[k]) for row in hist_max), default=0)
        return k, SimulationResult(
            rounds=rounds,
            total_messages=sum(messages),
            total_bits=sum(bits) + int(dropped_bits),
            max_message_bits=max(largest, int(dropped_max)),
            outputs=outputs,
            all_halted=True,
            messages_per_round=messages,
            bits_per_round=bits,
        )

    check_top = True
    while True:
        if rounds >= next_limit:
            raise SimulationLimitError(
                f"simulation did not terminate within {next_limit} rounds"
            )
        # Instances whose next round is their takeover round hand their
        # queued broadcast over and join the plane, so the handover
        # traffic is charged this tick.
        joiners: List[Tuple[int, PendingBroadcast]] = []
        for k, inst in prologue.items():
            if inst.takeover is None or rounds + 1 < inst.takeover:
                continue
            handover = _collect_handover(inst.drain, specs, inst.n)
            if handover is _NONCONFORMING:
                inst.takeover = None
                continue
            lo = offsets[k]
            kernel.absorb_instance(lo, lo + inst.n, inst.programs, inst.contexts)
            joiners.append((k, handover))
        if joiners:
            for k, _ in joiners:
                del prologue[k]
                in_plane[k] = True
            pending = _merge_joiners(plane, pending, joiners)
            stepping = check_top = True
            live_count = -1

        msgs_k, bits_k, max_k = _accumulate_round(
            plane, pending, charged, budgets
        )
        # Scalar instances: exact FastEngine collection and charging
        # against the instance's own budget.
        for k, inst in prologue.items():
            touched, sizes, senders = FastEngine._collect_traffic(
                inst.drain, inst.inboxes
            )
            inst.touched = touched
            round_bits, max_k[k] = FastEngine._charge(
                sizes, senders, inst.budget, 0
            )
            msgs_k[k] += len(sizes)
            bits_k[k] += round_bits
        if check_top:
            check_top = False
            for k in finished(np.count_nonzero(kernel.live)):
                yield finish(k, bits_k[k], max_k[k])
            if not open_limits:
                return

        hist_msgs.append(msgs_k)
        hist_bits.append(bits_k)
        hist_max.append(max_k)
        rounds += 1
        pending = kernel.step(rounds, pending) if stepping else None
        for inst in prologue.values():
            inst.execute_round(rounds)
        count = np.count_nonzero(kernel.live)
        if prologue or count != live_count:
            for k in finished(count):
                yield finish(k, 0, 0)
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
    plane = StackedPlane(networks)
    # Vectorized boot: no per-node program or context objects at all —
    # the kernel initializes its planes and the round-1 broadcast directly
    # from the instance inputs.  This is where batched sweeps stop paying
    # O(total nodes) Python object construction.  ``stacked_setup``
    # implies a round-1 takeover for every instance; a kernel with
    # *conditional* round-1 takeover (lemma310's canonical gate) returns
    # ``None`` to decline the group, sending it through the object boot.
    boot = None
    if kernel_cls.stacked_setup is not None:
        boot = kernel_cls.stacked_setup(plane, list(inputs))
    if boot is not None:
        kernel, pending = boot
        in_plane = np.ones(len(networks), dtype=bool)
        yield from _rounds(
            plane, networks, limits, None, kernel, pending, {}, in_plane
        )
        return
    built = [
        _instantiate(net, program_factory, node_inputs, kernel_cls)
        for net, node_inputs in zip(networks, inputs)
    ]
    yield from _rounds(
        plane,
        networks,
        limits,
        [contexts for _, contexts, _ in built],
        *_object_boot(plane, networks, built, kernel_cls),
    )


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
    programs: Mapping[int, NodeProgram],
    contexts: Mapping[int, Context],
    max_rounds: int,
) -> SimulationResult:
    """One solo ``vector`` run: the round loop on a one-instance plane.

    Boots from the caller's programs and contexts (the Simulator's, not
    yet set up) exactly as :func:`iter_stacked` boots each instance of a
    group without a vectorized ``stacked_setup``.
    """
    plane = StackedPlane([network])
    built = [(programs, contexts, _setup(network, programs, contexts))]
    boot = _object_boot(plane, [network], built, kernel_cls)
    rounds = _rounds(plane, [network], [max_rounds], [contexts], *boot)
    return next(rounds)[1]
