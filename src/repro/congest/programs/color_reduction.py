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

from itertools import chain
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.coloring.distance2 import _smallest_missing
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

    Instance ``k`` with max degree ``D_k`` splits its rounds in two.  A
    class ``c > D_k`` acts in round ``n_k - c < n_k - D_k``, and every
    recolor takes a mex, at most the actor's degree, so a re-queued node
    acts in round ``n_k - new >= n_k - D_k``.  Each of these *early*
    classes therefore acts once, before anything else happens in its
    instance, and boot computes its outcome: the early nodes take their
    colors in priority levels (:meth:`_recolor_early`, the
    Jones-Plassmann rounds of :func:`repro.coloring.distance2._first_fit`
    with the class as the priority).

    The rounds from ``n_k - D_k`` on run one :meth:`step` each, as the
    node program does: the acting class and the re-queued nodes take the
    mex of their neighbours' current colors (:meth:`_mex`), and a node
    whose new class acts later is re-queued.  Between two such rounds
    (or an instance's finish) the rounds only carry early broadcasts, so
    a step hands the round loop all of them as one span
    (:attr:`PendingBroadcast.span`): a sweep of 1,000 rounds takes a few
    dozen steps.  Nothing is delivered into the plane, and accounting
    reads the broadcast's ``senders``.  An instance finishes once, at
    round ``n_k``, in O(n_k).  Boot is O(n + nnz) plus a few numpy calls
    per level.

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

    def _boot(self, initial: np.ndarray) -> None:
        """Recolor the early classes, schedule the first late action of
        every other acting node and every instance's finish.  ``initial``
        is left as it is."""
        plane = self.plane
        self.color = initial.copy()
        self._bits = np.zeros(plane.n, dtype=np.int64)
        self._color_bits = self._SPEC.bits_array(
            (np.arange(int(plane.degrees.max(initial=0)) + 1),)
        )
        # Round r recolors class n_k - r, so classes 1 .. n_k - 1 act.
        n_of = plane.local_n_of
        acting = (initial > 0) & (initial < n_of)
        max_degree = np.maximum.reduceat(plane.degrees, plane.node_offsets[:-1])
        early = acting & (initial > max_degree[plane.instance_of])
        nodes = np.flatnonzero(early)
        self._recolor_early(nodes, initial, early)
        new = self.color[nodes]
        self._bits[nodes] = self._color_bits[new]
        rounds = (n_of - initial)[nodes]
        order = np.argsort(rounds, kind="stable")
        #: Early nodes by acting round, ascending within a round, and
        #: their rounds.
        self._early = nodes[order]
        self._early_rounds = rounds[order]
        #: Round -> ascending node arrays whose late action falls in it.
        self._late: Dict[int, List[np.ndarray]] = {}
        late = np.flatnonzero(acting & ~early)
        moved = new > 0
        self._requeue(
            np.concatenate((late, nodes[moved])),
            np.concatenate(((n_of - initial)[late], (n_of[nodes] - new)[moved])),
        )
        self._finish: Dict[int, List[int]] = {}
        for k, n_k in enumerate(plane.local_ns.tolist()):
            self._finish.setdefault(n_k, []).append(k)

    def _recolor_early(
        self, nodes: np.ndarray, initial: np.ndarray, early: np.ndarray
    ) -> None:
        """Give every early node the color its class's round gives it.

        Node ``v`` acts after every early neighbour of a higher class, so
        it waits on them (Kahn's algorithm: per node the count still
        uncolored, one ``np.subtract.at`` per level).  Once ready it hears
        their new colors, a same-class neighbour's old one (it recolors
        in the same round; only an improper coloring has one) and every
        other neighbour's initial color, which is still its current one.
        """
        plane = self.plane
        color = self.color
        peers = plane.indices[plane.row_slots(nodes)]
        rows = np.repeat(nodes, plane.degrees[nodes])
        waits = early[peers] & (initial[peers] > initial[rows])
        pending = np.bincount(rows[waits], minlength=plane.n)
        ready = nodes[pending[nodes] == 0]
        while ready.size:
            degrees = plane.degrees[ready]
            peers = plane.indices[plane.row_slots(ready)]
            owner = np.repeat(np.arange(ready.size), degrees)
            own = initial[ready][owner]
            heard = np.where(initial[peers] == own, own, color[peers])
            color[ready] = _smallest_missing(
                heard, owner, ready.size, int(degrees.max(initial=0)) + 1
            )
            later = peers[early[peers] & (initial[peers] < own)]
            np.subtract.at(pending, later, 1)
            # A node is listed once per neighbour colored now: dedupe.
            freed = np.sort(later[pending[later] == 0])
            ready = freed[np.diff(freed, prepend=-1) != 0]

    def _requeue(self, nodes: np.ndarray, rounds: np.ndarray) -> None:
        """Schedule each of ``nodes`` to act in its entry of ``rounds``."""
        if not nodes.size:
            return
        order = np.lexsort((nodes, rounds))
        nodes, rounds = nodes[order], rounds[order]
        starts = np.flatnonzero(np.diff(rounds, prepend=-1)).tolist()
        for r, a, b in zip(
            rounds[starts].tolist(), starts, [*starts[1:], rounds.size]
        ):
            self._late.setdefault(r, []).append(nodes[a:b])

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

        late = self._late.pop(round_no, None)
        if late is not None:
            late = late[0] if len(late) == 1 else np.sort(np.concatenate(late))
            self._recolor(round_no, late)
        # Up to the next round with a late actor or a finish, the rounds
        # only carry early broadcasts: one span.
        end = min(chain(self._late, self._finish), default=round_no + 1)
        bounds = np.searchsorted(self._early_rounds, np.arange(round_no, end + 1))
        senders = self._early[bounds[0] : bounds[-1]]
        if late is not None:
            # This round's late actors and early ones (of other instances).
            now = bounds[1] - bounds[0]
            senders = np.concatenate(
                (np.sort(np.concatenate((senders[:now], late))), senders[now:])
            )
            bounds[1:] += late.size
        span = bounds - bounds[0] if end > round_no + 1 else None
        if span is None and senders.size == 0:
            return None
        mask = np.zeros(plane.n, dtype=bool)
        mask[senders] = True
        # The column aliases ``color`` and ``bits`` is reused: non-sender
        # entries are never read, and a sender's entries stay put until it
        # acts again, after this broadcast has been charged.
        return PendingBroadcast(
            self._SPEC, mask, (self.color,), self._bits, senders, span
        )

    def _recolor(self, round_no: int, acting: np.ndarray) -> None:
        """Round ``round_no``'s late actors recolor; those whose new class
        acts later are re-queued."""
        new = self._mex(acting)
        old = self.color[acting]
        later = (new > 0) & (new < old)  # class n_k - new acts in a later round
        self._requeue(acting[later], (round_no + old - new)[later])
        self.color[acting] = new
        self._bits[acting] = self._color_bits[new]

    def _mex(self, senders: np.ndarray) -> np.ndarray:
        """Smallest color each sender has not heard from a neighbor.

        The heard colors are the neighbours' current ones, read before
        this round's writes.  That is exact: every node with a neighbour
        broadcasts at boot and again whenever it recolors, so a
        neighbour's last broadcast is its current color, except for a
        neighbour recoloring in this same round, whose broadcast arrives
        next round; reading before the writes sees its old color, as the
        scalar program does.  This holds for improper initial colorings
        too.  A row of degree d hears at most d colors, so its mex is at
        most d.
        """
        plane = self.plane
        degrees = plane.degrees[senders]
        heard = self.color[plane.indices[plane.row_slots(senders)]]
        owner = np.repeat(np.arange(senders.size), degrees)
        return _smallest_missing(
            heard, owner, senders.size, int(degrees.max(initial=0)) + 1
        )


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
