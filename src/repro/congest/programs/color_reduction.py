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

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

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

if TYPE_CHECKING:
    import networkx as nx


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
    degrees), not O(n + nnz): boot sorts every node by the round its
    color acts in (``n_k - color``), and a recolored node is re-queued
    when its new class comes up later.  Nothing is delivered into the
    plane: an actor reads its neighbours' *current* colors when it acts
    (see :meth:`_mex`), and accounting reads the broadcast's ``senders``
    list.  The mex is array work: the acting rows' colors mark a boolean
    table of actors x (max degree + 2), whose first unmarked column per
    row is the new color, and the new colors' bit lengths come from a
    table over those columns.  An instance finishes once, at round
    ``n_k``, in O(n_k).  Boot is O(n + nnz).

    The schedule comes from ``plane.local_n_of`` (the per-node view of
    the ``n`` each node program believes it runs on), so the kernel is
    *stackable on ragged planes*: in global round ``r`` a node of an
    ``n_k``-node instance acts iff its color is ``n_k - r`` and the whole
    instance halts at round ``n_k`` — smaller instances eliminate lower
    classes and terminate earlier while their larger siblings run on,
    exactly as each solo run schedules itself.
    """

    _SPEC = ColorReductionProgram.message_specs[0]

    @classmethod
    def eligible(cls, network, inputs) -> bool:
        """Initial colors must lie below the plane's exact range, 2**53.

        Only the colors given for nodes ``0 .. n - 1`` are read.  A
        negative color is no limit of the plane: ``setup`` raises for it
        on every engine, and so does :meth:`stacked_setup`.
        """
        return all(
            int(color) < _MAX_EXACT_FIELD
            for _, color in _given_colors(inputs, network.n)
        )

    @classmethod
    def stacked_setup(cls, plane, inputs):
        """Vectorized boot: every node announces its initial color.

        Colors default to the node's *local* id (a proper n-coloring per
        instance, exactly what the scalar ``setup`` picks); the initial
        colors of an instance's nodes ``0 .. n_k - 1`` overwrite their
        entries, and any other key is ignored, as the scalar engines
        ignore it.
        """
        color = plane.local_ids.copy()
        for k, mapping in enumerate(inputs):
            base = int(plane.node_offsets[k])
            for v, c in _given_colors(mapping, int(plane.local_ns[k])):
                color[base + int(v)] = int(c)
        if color.min() < 0:
            # The first negative color in setup order: raise setup's error.
            message_bits((int(color[color < 0][0]),))
        kernel = cls(plane)
        kernel._boot(color)
        pending = PendingBroadcast(
            cls._SPEC,
            plane.degrees > 0,
            (color,),
            cls._SPEC.bits_array((color,)),
        )
        return kernel, pending

    def _boot(self, color: np.ndarray) -> None:
        """Sort nodes by acting round; schedule every instance's finish."""
        plane = self.plane
        self.color = color
        self._bits = np.zeros(plane.n, dtype=np.int64)
        # A mex is at most the actor's degree, so the table's last column
        # never holds one: larger colors are marked there.
        self._width = int(plane.degrees.max(initial=0)) + 2
        self._color_bits = self._SPEC.bits_array((np.arange(self._width),))
        # Round r recolors class n_k - r, so classes 1 .. n_k - 1 act.
        act = plane.local_n_of - color
        nodes = np.flatnonzero((color > 0) & (act > 0))
        order = np.argsort(act[nodes], kind="stable")
        #: Nodes in order of their first acting round, ascending within
        #: one round; round r's are ``_actors[_bounds[r]]``.
        self._actors = nodes[order]
        rounds = act[self._actors]
        starts = np.flatnonzero(np.diff(rounds, prepend=0)).tolist()
        self._bounds = {
            r: slice(a, b)
            for r, a, b in zip(
                rounds[starts].tolist(), starts, [*starts[1:], rounds.size]
            )
        }
        #: Round -> nodes whose recolor moved them into that round's class.
        self._requeued: Dict[int, List[int]] = {}
        self._finish: Dict[int, List[int]] = {}
        for k, n_k in enumerate(plane.local_ns.tolist()):
            self._finish.setdefault(n_k, []).append(k)

    def step(
        self, round_no: int, inbound: Optional[PendingBroadcast]
    ) -> Optional[PendingBroadcast]:
        plane = self.plane
        # Instance k is done once its acting class hits 0 (round n_k),
        # independently of any larger siblings on the plane.
        finishing = self._finish.pop(round_no, None)
        if finishing is not None:
            offsets = plane.node_offsets
            nodes = np.concatenate(
                [np.arange(offsets[k], offsets[k + 1]) for k in finishing]
            )
            self.output(nodes, "color", self.color[nodes])
            self.live[nodes] = False

        bound = self._bounds.get(round_no)
        requeued = self._requeued.pop(round_no, None)
        if bound is None and requeued is None:
            return None
        senders = self._actors[bound] if bound is not None else self._actors[:0]
        if requeued is not None:
            # Re-queued nodes join their round out of order.
            senders = np.sort(np.concatenate((senders, requeued)))
        new = self._mex(senders)
        old = self.color[senders]
        later = (new > 0) & (new < old)  # class n_k - new acts in a later round
        for v, r in zip(
            senders[later].tolist(), (round_no + old - new)[later].tolist()
        ):
            self._requeued.setdefault(r, []).append(v)
        self.color[senders] = new
        self._bits[senders] = self._color_bits[new]
        mask = np.zeros(plane.n, dtype=bool)
        mask[senders] = True
        # The column aliases ``color`` and ``bits`` is reused: non-sender
        # entries are never read, and a sender's entries stay put until it
        # acts again, after this broadcast has been charged.
        return PendingBroadcast(
            self._SPEC, mask, (self.color,), self._bits, senders
        )

    def _mex(self, senders: np.ndarray) -> np.ndarray:
        """Smallest color each sender has not heard from a neighbor.

        The heard colors are the neighbours' current ones, read before
        this round's writes.  That is exact: every node with a neighbour
        broadcasts at boot and again whenever it recolors, so a
        neighbour's last broadcast is its current color, except for a
        neighbour recoloring in this same round, whose broadcast arrives
        next round; reading before the writes sees its old color, as the
        scalar program does.  This holds for improper initial colorings
        too.

        Row ``i`` of a boolean table of senders x (max degree + 2) marks
        sender ``i``'s heard colors, and its first unmarked column is the
        mex.  A row of degree d hears at most d colors, so its mex is at
        most d: colors beyond the table are marked in the last column
        without changing it.
        """
        plane = self.plane
        width = self._width
        heard = self.color[plane.indices[plane.row_slots(senders)]]
        rows = np.repeat(np.arange(senders.size), plane.degrees[senders])
        taken = np.zeros((senders.size, width), dtype=bool)
        taken[rows, np.minimum(heard, width - 1)] = True
        return taken.argmin(axis=1)


def _given_colors(inputs, n: int):
    """The ``(node, color)`` pairs of ``inputs`` with a node in ``0 .. n-1``
    and a color given (a missing or ``None`` color defaults to the id)."""
    return [
        (v, color)
        for v, color in inputs.items()
        if color is not None and v in range(n)
    ]


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
    return {"colors": len(set(sim.column("color")[1]))}


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
