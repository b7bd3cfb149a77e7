"""Distributed iterative color reduction as a node program.

The message-passing realization of :func:`repro.coloring.reduction.
reduce_coloring`: starting from unique IDs (a proper ``n``-coloring), color
classes are eliminated top-down, one class per round — the [BEK15]-style
final stage the paper's Lemma 3.12 builds on.  Node with color ``c`` acts
in round ``n - c``: it picks the smallest color unused in its neighborhood
and announces it.  After ``n`` rounds at most ``Delta + 1`` colors remain.

Every message is a single color value (``O(log n)`` bits).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import networkx as nx
import numpy as np

from repro.congest.engine import (
    EngineSpec,
    MessageSpec,
    PendingBroadcast,
    VectorKernel,
    register_kernel,
)
from repro.congest.engine.vector import _MAX_EXACT_FIELD
from repro.congest.message import Message, message_bits
from repro.congest.network import Network
from repro.congest.node import Context, NodeProgram
from repro.congest.simulator import SimulationResult, Simulator
from repro.errors import ColoringError


class ColorReductionProgram(NodeProgram):
    """Input per node: its initial color (defaults to its id).

    Output: ``color`` — the final color, at most ``Delta + 1`` distinct
    values across the network.
    """

    #: Every message is a one-field color broadcast.
    message_specs = (MessageSpec("color", "color"),)

    def __init__(self, input_value: object = None):
        super().__init__(input_value)
        self.color: int | None = (
            int(input_value) if input_value is not None else None
        )
        self.neighbor_colors: Dict[int, int] = {}

    def setup(self, ctx: Context) -> None:
        if self.color is None:
            self.color = ctx.node
        ctx.broadcast(Message("color", self.color))

    def receive(self, ctx: Context, inbox: Dict[int, Message]) -> None:
        for sender, msg in inbox.items():
            if msg.tag == "color":
                self.neighbor_colors[sender] = msg.fields[0]

        # Round r eliminates color class n - r; nodes of that color recolor.
        acting_color = ctx.n - ctx.round_number
        assert self.color is not None
        if self.color == acting_color and acting_color > 0:
            taken = set(self.neighbor_colors.values())
            new_color = 0
            while new_color in taken:
                new_color += 1
            if new_color in taken:  # pragma: no cover - defensive
                raise ColoringError("no free color found")
            self.color = new_color
            ctx.broadcast(Message("color", self.color))

        if acting_color <= 0:
            ctx.output("color", self.color)
            ctx.halt()


@register_kernel(ColorReductionProgram)
class ColorReductionKernel(VectorKernel):
    """Vector transcription of the top-down class-elimination rounds.

    Only the acting class does work, so a round costs O(sum of acting
    degrees), not O(n + nnz): boot buckets every node by the round its
    color acts in (``n_k - color``), and a recolored node is re-queued
    when its new class comes up later.  Delivery reads the senders'
    slots through :meth:`CsrPlane.out_slots`, accounting reads the
    broadcast's ``senders`` list, bit lengths are computed for senders
    only, and the mex is a short Python loop over each acting row.  An
    instance finishes once, at round ``n_k``, in O(n_k).  Boot is
    O(n + nnz), as is the first delivery (every node announces its
    color) and building the plane's reverse-slot map.

    The schedule comes from ``plane.local_n_of`` (the per-node view of
    the ``n`` each node program believes it runs on), so the kernel is
    *stackable on ragged planes*: in global round ``r`` a node of an
    ``n_k``-node instance acts iff its color is ``n_k - r`` and the whole
    instance halts at round ``n_k`` — smaller instances eliminate lower
    classes and terminate earlier while their larger siblings run on,
    exactly as each solo run schedules itself.
    """

    _SPEC = ColorReductionProgram.message_specs[0]

    def __init__(self, plane, programs, contexts):
        super().__init__(plane, programs, contexts)
        n = plane.n
        self._boot(
            np.fromiter(
                (programs[v].color for v in range(n)), dtype=np.int64, count=n
            )
        )

    @classmethod
    def eligible(cls, network, programs) -> bool:
        """Initial colors must lie in the plane's exact range [0, 2**53)."""
        return all(
            p.color is None or 0 <= p.color < _MAX_EXACT_FIELD
            for p in programs.values()
        )

    @classmethod
    def stacked_setup(cls, plane, inputs):
        """Vectorized boot: every node announces its initial color.

        Colors default to the node's *local* id (a proper n-coloring per
        instance, exactly what the scalar ``setup`` picks); explicit
        initial colors from ``inputs`` overwrite their entries.  Declines
        (``None``) a group with a color outside :meth:`eligible`'s range,
        so the object boot raises or declines exactly as ``setup`` would.
        """
        color = plane.local_ids.copy()
        for k, mapping in enumerate(inputs):
            if not mapping:
                continue
            base = int(plane.node_offsets[k])
            for v, c in mapping.items():
                if c is not None:
                    if not 0 <= int(c) < _MAX_EXACT_FIELD:
                        return None
                    color[base + int(v)] = int(c)
        kernel = cls._blank(plane)
        kernel._boot(color)
        pending = PendingBroadcast(
            cls._SPEC,
            plane.degrees > 0,
            (color,),
            cls._SPEC.bits_array((color,)),
        )
        return kernel, pending

    def _boot(self, color: np.ndarray) -> None:
        """Bucket nodes by acting round; schedule every instance's finish."""
        plane = self.plane
        self.color = color
        #: Last-heard color per edge slot; -1 = never heard (the missing
        #: ``neighbor_colors`` entry, which the mex must ignore).
        self.ncolor = np.full(plane.nnz, -1, dtype=np.int64)
        self._bits = np.zeros(plane.n, dtype=np.int64)
        # Round r recolors class n_k - r, so classes 1 .. n_k - 1 act.
        act = plane.local_n_of - color
        nodes = np.flatnonzero((color > 0) & (act > 0))
        self._queue: Dict[int, List[int]] = {}
        for v, r in zip(nodes.tolist(), act[nodes].tolist()):
            self._queue.setdefault(r, []).append(v)
        self._finish: Dict[int, List[int]] = {}
        for k, n_k in enumerate(plane.local_ns.tolist()):
            self._finish.setdefault(n_k, []).append(k)

    def step(
        self, round_no: int, inbound: Optional[PendingBroadcast]
    ) -> Optional[PendingBroadcast]:
        plane = self.plane
        if inbound is not None:
            slots = plane.out_slots(inbound.sender_ids())
            self.ncolor[slots] = inbound.columns[0][plane.indices[slots]]

        # Instance k is done once its acting class hits 0 (round n_k),
        # independently of any larger siblings on the plane.
        offsets = plane.node_offsets
        for k in self._finish.pop(round_no, ()):
            lo, hi = int(offsets[k]), int(offsets[k + 1])
            for v, c in enumerate(self.color[lo:hi].tolist(), lo):
                self.output(v, "color", c)
            self.live[lo:hi] = False

        actors = self._queue.pop(round_no, None)
        if actors is None:
            return None
        actors.sort()  # re-queued nodes join their bucket out of order
        senders = np.array(actors, dtype=np.int64)
        starts = plane.indptr[senders].tolist()
        ends = plane.indptr[senders + 1].tolist()
        ncolor = self.ncolor
        new_colors = []
        for v, c, a, b in zip(actors, self.color[senders].tolist(), starts, ends):
            taken = set(ncolor[a:b].tolist())
            new = 0
            while new in taken:
                new += 1
            new_colors.append(new)
            if 0 < new < c:  # class n_k - new acts in a later round
                self._queue.setdefault(round_no + c - new, []).append(v)
        self.color[senders] = new_colors
        self._bits[senders] = [message_bits((c,)) for c in new_colors]
        mask = np.zeros(plane.n, dtype=bool)
        mask[senders] = True
        # The column aliases ``color`` and ``bits`` is reused: non-sender
        # entries are never read, and a sender's entries stay put until it
        # acts again, after this broadcast has been charged and delivered.
        return PendingBroadcast(
            self._SPEC, mask, (self.color,), self._bits, senders
        )


def run_color_reduction(
    graph: nx.Graph | None,
    initial: Dict[int, int] | None = None,
    network: Network | None = None,
    engine: EngineSpec = None,
) -> Tuple[Dict[int, int], SimulationResult]:
    """Run distributed color reduction; returns (colors, metrics).

    ``graph`` may be ``None`` when ``network`` is given.
    """
    network = network or Network.congest(graph)
    inputs = dict(initial) if initial is not None else {}
    sim = Simulator(network, ColorReductionProgram, inputs=inputs, engine=engine)
    result = sim.run(max_rounds=network.n + 4)
    return result.output_map("color"), result


# -- experiment-surface registration ------------------------------------------

from repro.api.registry import ProgramSpec, register_program  # noqa: E402


def _drive(network: Network, engine: str) -> SimulationResult:
    return run_color_reduction(None, network=network, engine=engine)[-1]


def _summary(sim: SimulationResult) -> Dict[str, object]:
    return {"colors": len(set(sim.output_map("color").values()))}


register_program(
    ProgramSpec(
        name="color-reduction",
        description="[BEK15]-style reduction to at most Delta+1 colors",
        program=ColorReductionProgram,
        drive=_drive,
        summarize=_summary,
        batch_factory=ColorReductionProgram,
        batch_max_rounds=lambda net: net.n + 4,
    )
)
