"""Distributed locally-maximal greedy dominating set.

The classic CONGEST baseline predating the paper's techniques: in each
phase every node computes its *span* (uncovered nodes in its inclusive
neighborhood) and joins the dominating set iff its ``(span, -id)`` pair is
maximal within its 2-hop neighborhood.  At least the globally best node
always joins, so the process terminates; quality empirically tracks
sequential greedy (E7/E10 report it), though the phase count can be
``Theta(n)`` in the worst case — exactly the behaviour that motivated the
LP-rounding approach the paper derandomizes.

Each phase costs four CONGEST rounds:

1. nodes announce their covered bit (so neighbors can compute spans),
2. nodes announce ``(span, id)``,
3. nodes forward the best pair seen in their inclusive neighborhood
   (making the 2-hop maximum visible),
4. locally-maximal nodes join and announce it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Set, Tuple

import numpy as np

from repro.congest.engine import (
    EngineSpec,
    MessageSpec,
    PendingBroadcast,
    VectorKernel,
    register_kernel,
)
from repro.congest.engine.vector import bit_length_array
from repro.congest.message import FIELD_FRAMING_BITS, MESSAGE_HEADER_BITS, Message
from repro.congest.network import Network
from repro.congest.node import Context, NodeProgram
from repro.congest.simulator import SimulationResult, Simulator

if TYPE_CHECKING:
    import networkx as nx


class DistributedGreedyProgram(NodeProgram):
    """Output per node: ``in_ds`` (0/1).  No per-node input needed."""

    #: All four phase steps are fixed-shape broadcasts, so the whole
    #: program runs on the vector engine's message plane.
    message_specs = (
        MessageSpec("cov", "covered"),
        MessageSpec("span", "span", "node"),
        MessageSpec("best", "span", "node"),
        MessageSpec("join", "joined"),
    )

    def __init__(self, input_value: object = None):
        super().__init__(input_value)
        self.covered = False
        self.in_ds = False
        self.neighbor_covered: Dict[int, bool] = {}
        self.neighbor_pairs: Dict[int, Tuple[int, int]] = {}
        self.best_seen: Tuple[int, int] | None = None

    def _span(self, ctx: Context) -> int:
        span = 0 if self.covered else 1
        span += sum(
            1 for u in ctx.neighbors if not self.neighbor_covered.get(u, False)
        )
        return span

    def _own_pair(self, ctx: Context) -> Tuple[int, int]:
        return (self._span(ctx), -ctx.node)

    def setup(self, ctx: Context) -> None:
        ctx.broadcast(Message("cov", 0))

    def receive(self, ctx: Context, inbox: Dict[int, Message]) -> None:
        step = (ctx.round_number - 1) % 4
        if step == 0:
            # Covered bits arrive; announce span.
            for sender, msg in inbox.items():
                if msg.tag == "cov":
                    self.neighbor_covered[sender] = bool(msg.fields[0])
            span, _ = self._own_pair(ctx)
            if self.covered and span == 0:
                # Nothing left to contribute or learn.
                ctx.output("in_ds", int(self.in_ds))
                ctx.halt()
                return
            ctx.broadcast(Message("span", span, ctx.node))
        elif step == 1:
            # Spans arrive; forward the best pair in the inclusive
            # neighborhood (2-hop max construction).
            self.neighbor_pairs = {}
            for sender, msg in inbox.items():
                if msg.tag == "span":
                    self.neighbor_pairs[sender] = (msg.fields[0], -msg.fields[1])
            best = max(
                list(self.neighbor_pairs.values()) + [self._own_pair(ctx)]
            )
            self.best_seen = best
            ctx.broadcast(Message("best", best[0], -best[1]))
        elif step == 2:
            # 1-hop maxima arrive; decide membership.
            two_hop_best = self.best_seen or self._own_pair(ctx)
            for msg in inbox.values():
                if msg.tag == "best":
                    pair = (msg.fields[0], -msg.fields[1])
                    if pair > two_hop_best:
                        two_hop_best = pair
            mine = self._own_pair(ctx)
            if mine[0] > 0 and mine >= two_hop_best:
                self.in_ds = True
                self.covered = True
            ctx.broadcast(Message("join", int(self.in_ds)))
        else:
            # Joins arrive; update coverage and start the next phase.
            for sender, msg in inbox.items():
                if msg.tag == "join" and msg.fields[0]:
                    self.neighbor_covered[sender] = True
                    self.covered = True
            ctx.broadcast(Message("cov", int(self.covered)))


@register_kernel(DistributedGreedyProgram)
class DistributedGreedyKernel(VectorKernel):
    """Vector transcription of the four-step greedy phase.

    Per-node dicts become flat planes.  The ``neighbor_covered`` maps are
    two per-node arrays: ``known[u]`` says u's neighbors have heard that u
    is covered, and ``heard[v]`` counts the neighbors v has heard are
    covered.  This is exact because covered bits only go 0→1 and every
    ``cov`` or ``join`` message reaches all of the sender's neighbors in
    the same round, so all of them hold the same bit for it.  A node that
    becomes known adds 1 to each neighbor's ``heard`` once, O(nnz) over
    the whole run, and a span is ``(~covered) + degree - heard``.  The
    2-hop maximum runs on a packed integer key that orders exactly like
    the scalar ``(span, -id)`` pair: ``key = span * n + (n - 1 - id)``,
    packed once per sender and gathered once per slot.

    All id arithmetic uses ``plane.local_ids`` / ``plane.local_n_of``
    (equal to the global ids / ``n`` on a solo plane), which is what makes
    the kernel *stackable*: on a stacked plane — uniform or ragged — every
    instance broadcasts and compares its own local ids against its own
    packed-key base ``n``, bit-for-bit like a solo run.  Key comparisons
    never cross instances (the 2-hop max is a CSR row reduction and rows
    stay inside their instance), so per-instance bases are sound.
    """

    _SPEC = {spec.tag: spec for spec in DistributedGreedyProgram.message_specs}
    #: Wire size of a ``cov`` or ``join`` message: one 0/1 field, and a
    #: zero is charged one bit like a one.
    _FLAG_BITS = MESSAGE_HEADER_BITS + FIELD_FRAMING_BITS + 1
    #: Wire size of a ``span`` or ``best`` message beyond its two fields.
    _PAIR_BITS = MESSAGE_HEADER_BITS + 2 * FIELD_FRAMING_BITS

    @classmethod
    def stacked_setup(cls, plane, inputs):
        """Vectorized boot: the scalar ``setup`` is one fixed broadcast.

        Every node starts uncovered and broadcasts ``Message("cov", 0)``
        to its neighbors, so the round-1 traffic is exactly "all nodes
        with at least one neighbor send a zero covered-bit" — no program
        objects needed.  ``inputs`` is unused (the program takes none).
        """
        kernel = cls(plane)
        n = plane.n
        kernel.ids = plane.local_ids
        kernel.covered = np.zeros(n, dtype=bool)
        kernel.in_ds = np.zeros(n, dtype=bool)
        # Unheard counts as uncovered, like ``neighbor_covered.get(u, False)``.
        kernel.known = np.zeros(n, dtype=bool)
        kernel.heard = np.zeros(n, dtype=np.int64)
        kernel.span = np.zeros(n, dtype=np.int64)
        kernel.best_key = np.zeros(n, dtype=np.int64)
        # The ``span`` and ``best`` fields are spans (at most degree + 1)
        # and local ids, all below the end of this bit-length table.
        top = int(plane.local_ns.max()) + int(plane.degrees.max(initial=0)) + 2
        kernel._field_bits = bit_length_array(np.arange(top))
        spec = cls._SPEC["cov"]
        column = np.zeros(n, dtype=np.int64)
        pending = PendingBroadcast(
            spec, plane.degrees > 0, (column,), spec.bits_array((column,))
        )
        return kernel, pending

    def _own_key(self) -> np.ndarray:
        base = self.plane.local_n_of
        return self.span * base + (base - 1 - self.ids)

    def _received_key_max(
        self, inbound: Optional[PendingBroadcast]
    ) -> np.ndarray:
        """Per-node max packed key over this round's (span, id) messages."""
        plane = self.plane
        if inbound is None:
            return np.full(plane.n, -1, dtype=np.int64)
        # A slot and its peer live in the same instance, so the sender's
        # base is also the receiving row's.
        base = plane.local_n_of
        span, ids = inbound.columns
        key = np.where(inbound.mask, span * base + (base - 1 - ids), -1)
        return plane.row_max(key[plane.indices], empty=-1)

    def _hear_covered(self, senders: np.ndarray) -> None:
        """The neighbors of ``senders`` hear that they are covered."""
        plane = self.plane
        senders = senders[~self.known[senders]]
        self.known[senders] = True
        receivers = plane.indices[plane.row_slots(senders)]
        self.heard += np.bincount(receivers, minlength=plane.n)

    def _broadcast(self, tag: str, *columns: np.ndarray) -> PendingBroadcast:
        """Every live node broadcasts ``columns``, charged from tables.

        A one-field message is a 0/1 flag.  A two-field one looks its
        fields up in ``_field_bits``: spans are never negative, since a
        node hears at most its degree of covered neighbours, and ids are
        local, so every index lies in the table (a negative one would
        wrap around silently).
        """
        if len(columns) == 1:
            bits = np.full(self.plane.n, self._FLAG_BITS, dtype=np.int64)
        else:
            span, node = columns
            bits = self._field_bits[span] + self._field_bits[node] + self._PAIR_BITS
        return PendingBroadcast(self._SPEC[tag], self.live.copy(), columns, bits)

    def step(
        self, round_no: int, inbound: Optional[PendingBroadcast]
    ) -> Optional[PendingBroadcast]:
        plane = self.plane
        step = (round_no - 1) % 4
        if step == 0:
            # Covered bits arrive; halt exhausted nodes, announce spans.
            if inbound is not None:
                self._hear_covered(
                    np.flatnonzero(inbound.mask & (inbound.columns[0] == 1))
                )
            self.span = (
                (~self.covered).astype(np.int64) + plane.degrees - self.heard
            )
            halting = self.live & self.covered & (self.span == 0)
            if halting.any():
                nodes = np.flatnonzero(halting)
                self.output(nodes, "in_ds", self.in_ds[nodes])
                self.live &= ~halting
            if not self.live.any():
                return None
            return self._broadcast("span", self.span, self.ids)
        if step == 1:
            # Spans arrive; forward the inclusive-neighborhood maximum.
            self.best_key = np.maximum(
                self._received_key_max(inbound), self._own_key()
            )
            base = plane.local_n_of
            return self._broadcast(
                "best", self.best_key // base, base - 1 - self.best_key % base
            )
        if step == 2:
            # 1-hop maxima arrive; locally maximal uncovered-span nodes join.
            two_hop = np.maximum(self._received_key_max(inbound), self.best_key)
            joining = self.live & (self.span > 0) & (self._own_key() >= two_hop)
            self.in_ds |= joining
            self.covered |= joining
            return self._broadcast("join", self.in_ds.astype(np.int64))
        # Joins arrive; fold coverage and start the next phase.
        if inbound is not None:
            joined = np.flatnonzero(inbound.mask & (inbound.columns[0] == 1))
            self._hear_covered(joined)
            receivers = plane.indices[plane.row_slots(joined)]
            self.covered[receivers[self.live[receivers]]] = True
        return self._broadcast("cov", self.covered.astype(np.int64))


def run_distributed_greedy(
    graph: nx.Graph | None,
    network: Network | None = None,
    engine: EngineSpec = None,
) -> Tuple[Set[int], SimulationResult]:
    """Run the program; returns the dominating set and simulator metrics.

    ``graph`` may be ``None`` when ``network`` is given.
    """
    network = network or Network.congest(graph)
    sim = Simulator(network, DistributedGreedyProgram, engine=engine)
    result = sim.run(max_rounds=8 * network.n + 16)
    ds = {v for v, in_ds in zip(*result.column("in_ds")) if in_ds}
    return ds, result


# -- experiment-surface registration ------------------------------------------

from repro.analysis.bounds import greedy_bound  # noqa: E402
from repro.api.registry import ProgramSpec, register_program  # noqa: E402


def _drive(network: Network, engine: str) -> SimulationResult:
    return run_distributed_greedy(None, network=network, engine=engine)[-1]


def _summary(sim: SimulationResult) -> Dict[str, object]:
    return {"ds_size": sum(map(bool, sim.column("in_ds")[1]))}


register_program(
    ProgramSpec(
        name="greedy",
        description="locally-maximal greedy dominating set (4-round phases)",
        program=DistributedGreedyProgram,
        drive=_drive,
        summarize=_summary,
        batch_factory=DistributedGreedyProgram,
        batch_max_rounds=lambda net: 8 * net.n + 16,
        quality_metric="ds_size",
        quality_bound=greedy_bound,
    )
)
