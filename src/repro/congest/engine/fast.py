"""Flat-array fast path for the round loop.

Observationally identical to :class:`~repro.congest.engine.reference.
ReferenceEngine` (the parity suite proves it on every bundled program), but
engineered so per-round cost scales with the *active* part of the network
instead of with ``n``:

* **Flat, index-addressed planes.** ``Network`` validates ids ``0..n-1``
  and compiles its topology once into flat CSR arrays (``Network.csr()``,
  from which contexts' neighbor tuples derive); the engine exploits the
  same dense-id contract to keep contexts, bound ``receive`` methods and
  inbox buffers in list-indexed records instead of per-round dict lookups.
* **Active set.** The engine maintains the set of non-halted nodes
  incrementally.  Halted nodes are never scanned again — neither for outbox
  draining (only nodes that executed since the last drain can have queued
  traffic) nor for the all-halted termination check, both of which the
  reference engine pays O(n) for every round.
* **Inbox planes.** Delivery writes into a preallocated ``n``-slot buffer;
  only slots that actually received traffic are allocated and reset, so an
  idle node costs one ``None`` check, not a dict construction.
* **Batched accounting.** Per-round message/bit totals, the running
  maximum, and the CONGEST budget check are computed once per round with
  C-level ``sum``/``max`` over the collected sizes instead of branching on
  every message; the offender search for an oversized message only runs on
  the (exceptional) violation path.
* **Event-driven scheduling.** When every program sets
  :attr:`NodeProgram.event_driven` (empty-inbox ``receive`` is a no-op),
  rounds only visit the recipients of actual traffic — O(messages) per
  round, regardless of how many nodes are live but idle.

The semantics-critical steps — outbox draining with its halted-sender
rules, and wire accounting with its budget-check ordering — are shared by
both scheduling modes (:meth:`_collect_traffic`, :meth:`_charge`), so the
contract in :mod:`repro.congest.engine.base` is implemented exactly once.
Messages queued by a node that halts afterwards are still collected,
because the drain set is "everyone whose ``setup``/``receive`` ran since
the last collection", not the live set; messages addressed to halted nodes
are dropped after being charged to the wire totals.  Inboxes handed to
``receive`` must be treated as read-only snapshots (true for all bundled
programs); the engine reuses its delivery buffers across rounds.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.congest.engine.base import (
    Engine,
    SimulationResult,
    recorded_columns,
    register_engine,
)
from repro.congest.message import Message
from repro.congest.network import Network
from repro.congest.node import Context, NodeProgram
from repro.errors import MessageTooLargeError, SimulationLimitError

#: Shared inbox for nodes that received nothing this round.  Programs must
#: treat inboxes as read-only (see module docstring), which makes sharing
#: one empty dict safe and saves an allocation per idle live node per round.
_EMPTY_INBOX: Dict[int, Message] = {}

#: Inbox planes: per-node delivery buffer, ``None`` = no traffic.
Inboxes = List[Optional[Dict[int, Message]]]


@register_engine
class FastEngine(Engine):
    """Active-set round loop over flat arrays; the default engine."""

    name = "fast"

    def run(
        self,
        network: Network,
        programs: Dict[int, NodeProgram],
        contexts: Dict[int, Context],
        max_rounds: int,
    ) -> SimulationResult:
        for v in range(network.n):
            ctx = contexts[v]
            ctx.round_number = 0
            programs[v].setup(ctx)
        if all(p.event_driven for p in programs.values()):
            return self._run_event_driven(network, programs, contexts, max_rounds)
        return self._run_active_set(network, programs, contexts, max_rounds)

    # -- shared semantics ---------------------------------------------------

    @staticmethod
    def _collect_traffic(
        drain: Sequence[tuple], inboxes: Inboxes
    ) -> Tuple[List[int], List[int], List[tuple]]:
        """Deliver the outboxes of ``drain`` (records whose first two slots
        are ``(node id, context)``) into the inbox planes.

        Iterating ``drain`` in ascending id order keeps inbox insertion
        order — and hence dict iteration order inside programs — identical
        to the reference engine's full scan.  Returns the recipients that
        got traffic, the flat list of message sizes and the sending
        records.  The outboxes stay in place until :meth:`_charge` has
        checked them, so an oversized message is named in the reference's
        scan order.
        """
        touched: List[int] = []
        sizes: List[int] = []
        senders: List[tuple] = []
        for rec in drain:
            out = rec[1]._outbox
            if not out:
                continue
            senders.append(rec)
            v = rec[0]
            for to, msg in out.items():
                box = inboxes[to]
                if box is None:
                    inboxes[to] = {v: msg}
                    touched.append(to)
                else:
                    box[v] = msg
                sizes.append(msg.bits)
        return touched, sizes, senders

    @classmethod
    def _charge(
        cls,
        sizes: List[int],
        senders: List[tuple],
        budget: Optional[int],
        max_bits: int,
    ) -> Tuple[int, int]:
        """Batched wire accounting for one round's traffic.

        Returns ``(round_bits, max_bits)`` and empties the senders'
        outboxes; raises :class:`MessageTooLargeError` after charging,
        matching the reference engine's "validated and charged even if the
        round is later dropped" ordering.
        """
        if not sizes:
            return 0, max_bits
        round_bits = sum(sizes)
        round_max = max(sizes)
        if round_max > max_bits:
            max_bits = round_max
        if budget is not None and round_max > budget:
            cls._raise_oversized(senders, budget)
        for rec in senders:
            rec[1]._outbox = {}
        return round_bits, max_bits

    @staticmethod
    def _raise_oversized(senders: List[tuple], budget: int) -> None:
        """Slow path: raise for the reference engine's offender.

        The reference scans senders in ascending id order and each
        sender's outbox in send order, raising on the first oversized
        message; ``senders`` are in that order, outboxes still full.
        """
        for rec in senders:
            for to, msg in rec[1]._outbox.items():
                if msg.bits > budget:
                    raise MessageTooLargeError(rec[0], to, msg.bits, budget)
        raise AssertionError("oversized message vanished")  # pragma: no cover

    # -- scheduling modes ---------------------------------------------------

    def _run_active_set(
        self,
        network: Network,
        programs: Dict[int, NodeProgram],
        contexts: Dict[int, Context],
        max_rounds: int,
    ) -> SimulationResult:
        n = network.n
        budget = network.bit_budget
        # One flat record per node: (id, context, bound receive).  All hot
        # loops walk these records instead of re-indexing dicts per round.
        records = [
            (v, contexts[v], programs[v].receive) for v in range(n)
        ]
        active = [rec for rec in records if not rec[1]._halted]
        # Nodes whose setup/receive ran since the last collection — the only
        # ones that can hold queued traffic (includes nodes that halted
        # right after sending).
        drain: Sequence[tuple] = records
        inboxes: Inboxes = [None] * n

        total_messages = 0
        total_bits = 0
        max_bits = 0
        messages_per_round: list[int] = []
        bits_per_round: list[int] = []

        rounds = 0
        while rounds < max_rounds:
            touched, sizes, senders = self._collect_traffic(drain, inboxes)
            round_messages = len(sizes)
            round_bits, max_bits = self._charge(sizes, senders, budget, max_bits)
            total_bits += round_bits

            if not active:
                # Everyone has halted: in-flight traffic is dropped (charged
                # to the wire totals above, but the round is not counted).
                for to in touched:
                    inboxes[to] = None
                break

            rounds += 1
            total_messages += round_messages
            messages_per_round.append(round_messages)
            bits_per_round.append(round_bits)

            # Single pass: deliver, run receive, and build next round's
            # active set as halts happen.
            still_active = []
            keep = still_active.append
            for rec in active:
                v, ctx, recv = rec
                ctx.round_number = rounds
                box = inboxes[v]
                if box is None:
                    recv(ctx, _EMPTY_INBOX)
                else:
                    inboxes[v] = None
                    recv(ctx, box)
                if not ctx._halted:
                    keep(rec)
            # Reset planes of recipients that did not consume their traffic
            # (halted nodes: the drop semantics above).
            for to in touched:
                inboxes[to] = None

            drain = active
            active = still_active
            if not active:
                break
        else:
            raise SimulationLimitError(
                f"simulation did not terminate within {max_rounds} rounds"
            )

        return SimulationResult(
            rounds=rounds,
            total_messages=total_messages,
            total_bits=total_bits,
            max_message_bits=max_bits,
            outputs=recorded_columns(contexts),
            all_halted=not active,
            messages_per_round=messages_per_round,
            bits_per_round=bits_per_round,
        )

    def _run_event_driven(
        self,
        network: Network,
        programs: Dict[int, NodeProgram],
        contexts: Dict[int, Context],
        max_rounds: int,
    ) -> SimulationResult:
        """Traffic-proportional loop for all-``event_driven`` programs.

        When every program guarantees that an empty-inbox ``receive`` is a
        no-op (see :attr:`NodeProgram.event_driven`), idle live nodes need
        not be visited at all: each round only the recipients of actual
        traffic run, so round cost is O(messages) instead of O(live nodes).
        ``ctx.round_number`` is refreshed lazily right before a node runs —
        unobservable, since skipped invocations would have been no-ops.
        """
        n = network.n
        budget = network.bit_budget
        ctxs = [contexts[v] for v in range(n)]
        recvs = [programs[v].receive for v in range(n)]
        live = sum(1 for ctx in ctxs if not ctx._halted)
        drain: Sequence[tuple] = [(v, ctxs[v]) for v in range(n)]
        inboxes: Inboxes = [None] * n

        total_messages = 0
        total_bits = 0
        max_bits = 0
        messages_per_round: list[int] = []
        bits_per_round: list[int] = []

        rounds = 0
        while rounds < max_rounds:
            touched, sizes, senders = self._collect_traffic(drain, inboxes)
            round_messages = len(sizes)
            round_bits, max_bits = self._charge(sizes, senders, budget, max_bits)
            total_bits += round_bits

            if not live:
                for to in touched:
                    inboxes[to] = None
                break

            rounds += 1
            total_messages += round_messages
            messages_per_round.append(round_messages)
            bits_per_round.append(round_bits)

            ran: List[int] = []
            for to in touched:
                box = inboxes[to]
                inboxes[to] = None
                ctx = ctxs[to]
                if ctx._halted:
                    continue  # drop semantics: halted recipients lose traffic
                ctx.round_number = rounds
                recvs[to](ctx, box)
                ran.append(to)
                if ctx._halted:
                    live -= 1
            # Ascending drain order (see _collect_traffic).
            ran.sort()
            drain = [(v, ctxs[v]) for v in ran]
            if not live:
                break
        else:
            raise SimulationLimitError(
                f"simulation did not terminate within {max_rounds} rounds"
            )

        return SimulationResult(
            rounds=rounds,
            total_messages=total_messages,
            total_bits=total_bits,
            max_message_bits=max_bits,
            outputs=recorded_columns(contexts),
            all_halted=not live,
            messages_per_round=messages_per_round,
            bits_per_round=bits_per_round,
        )
