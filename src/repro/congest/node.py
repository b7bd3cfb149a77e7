"""Node program API: the code that runs at every node of the network.

A :class:`NodeProgram` is instantiated once per node by the simulator.  The
simulator drives it through :meth:`NodeProgram.setup` (before round 1) and
:meth:`NodeProgram.receive` (once per round, with the messages that arrived).
Programs communicate *only* through :class:`Context` — they never see the
graph, other programs, or any global state.  This keeps simulated algorithms
honest about what a distributed node could actually know.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.congest.message import Message
from repro.errors import CongestError


class Context:
    """Per-node, per-round interface handed to a node program.

    Attributes
    ----------
    node:
        This node's unique identifier (also its ``O(log n)``-bit ID).
    neighbors:
        Sorted tuple of neighbor identifiers (port numbering).
    n:
        Number of nodes in the network (known to all nodes, as in the paper).
    round_number:
        Current round, starting at 1 (0 during :meth:`NodeProgram.setup`).
    """

    __slots__ = (
        "node",
        "neighbors",
        "n",
        "round_number",
        "_neighbor_set",
        "_outbox",
        "_recorded",
        "_halted",
    )

    def __init__(self, node: int, neighbors: Tuple[int, ...], n: int):
        self.node = node
        self.neighbors = neighbors
        self.n = n
        self.round_number = 0
        self._neighbor_set = frozenset(neighbors)
        self._outbox: Dict[int, Message] = {}
        self._recorded: Dict[str, object] = {}
        self._halted = False

    @property
    def degree(self) -> int:
        return len(self.neighbors)

    def send(self, to: int, message: Message) -> None:
        """Queue ``message`` for delivery to neighbor ``to`` next round.

        At most one message per neighbor per round (the CONGEST contract);
        sending twice to the same port in one round is a protocol error.
        """
        if to not in self._neighbor_set:
            raise CongestError(f"node {self.node} cannot send to non-neighbor {to}")
        if to in self._outbox:
            raise CongestError(
                f"node {self.node} already sent to {to} this round "
                "(one message per neighbor per round)"
            )
        self._outbox[to] = message

    def broadcast(self, message: Message) -> None:
        """Send the same message to every neighbor."""
        for u in self.neighbors:
            self.send(u, message)

    def output(self, key: str, value: object) -> None:
        """Record part of this node's local output."""
        self._recorded[key] = value

    def halt(self) -> None:
        """Mark this node as locally terminated.

        A halted node still receives messages (its program's ``receive`` is
        no longer called); the simulation stops when all nodes have halted.
        """
        self._halted = True

    # -- simulator-side accessors ------------------------------------------

    def _drain_outbox(self) -> Dict[int, Message]:
        out, self._outbox = self._outbox, {}
        return out


class NodeProgram:
    """Base class for distributed algorithms run on the simulator.

    Subclasses override :meth:`setup` and :meth:`receive`.  The same program
    class is instantiated at every node; per-node *input* is supplied through
    the ``inputs`` mapping passed to the simulator and made available as
    ``self.input`` (an arbitrary object, ``None`` if absent).
    """

    #: Event-driven contract: set to ``True`` iff ``receive`` with an empty
    #: inbox is a guaranteed no-op (no sends, outputs, halts, or state
    #: changes — including defensive round-count cutoffs).  Engines may then
    #: skip idle nodes entirely and only run recipients of actual traffic,
    #: making round cost proportional to messages instead of live nodes.
    event_driven = False

    #: Vectorization contract: the
    #: :class:`~repro.congest.engine.vector.MessageSpec` shapes of the
    #: broadcast phases this program runs on the numpy message plane — a
    #: fixed tag plus named small-int fields, sent identically to all
    #: neighbors; they are the wire formats of its kernel.  Non-empty only
    #: makes the program *eligible*; the vector engine also needs a
    #: registered :class:`~repro.congest.engine.vector.VectorKernel` for
    #: the class, which boots the whole run from the nodes' inputs (no
    #: ``setup`` call), and inputs its ``eligible`` gate declines run on
    #: FastEngine instead.
    message_specs: tuple = ()

    def __init__(self, input_value: object = None):
        self.input = input_value

    def setup(self, ctx: Context) -> None:
        """Round-0 hook: initialize state, optionally send first messages."""

    def receive(self, ctx: Context, inbox: Dict[int, Message]) -> None:
        """Per-round hook: ``inbox`` maps sender id to the received message."""
        raise NotImplementedError


OptionalMessage = Optional[Message]
