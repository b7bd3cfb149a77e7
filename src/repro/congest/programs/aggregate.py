"""Tree convergecast (sum) and broadcast.

Given a rooted spanning forest (``parent`` pointers, as produced by
:mod:`repro.congest.programs.bfs`), each node contributes an integer vector;
leaves send up first, internal nodes add their children's vectors to their
own and forward, and finally the root broadcasts the totals back down.  This
is the O(depth)-round aggregation the paper uses inside clusters in
Lemma 3.4 ("we can aggregate their respective sums at l in O(d) rounds using
the spanning tree of the cluster").

Vector entries are grid numerators (non-negative ints), so one entry fits a
CONGEST message; a vector of ``w`` entries is sent as ``w`` consecutive
messages, faithfully costing ``w`` rounds of pipelining in the bit ledger.
For simplicity each message here carries the whole vector and the simulator's
bit meter reports the true size; callers that need strict O(log n) messages
use vectors of width 1 or 2 (which is all the paper's algorithms need:
``sum(alpha_0), sum(alpha_1)``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Mapping, Sequence, Tuple

from repro.congest.engine import EngineSpec
from repro.congest.message import Message
from repro.congest.network import Network
from repro.congest.node import Context, NodeProgram
from repro.congest.simulator import SimulationResult, Simulator

if TYPE_CHECKING:
    import networkx as nx


class TreeAggregationProgram(NodeProgram):
    """Per-node input: ``(parent, children_count, vector)``.

    ``parent == -1`` marks the root.  Output per node: ``total`` — the
    root's summed vector after the downward broadcast (every node in the
    tree learns it, mirroring the paper's seed-bit decision broadcast).
    Nodes outside any tree (``parent is None``) halt immediately.
    """

    #: An empty-inbox ``receive`` is a no-op here: leaves/roots act in
    #: ``setup``, everyone else only reacts to ``up``/``down`` traffic —
    #: so engines may run this program event-driven (skip idle nodes).
    event_driven = True

    def __init__(self, input_value: object = None):
        super().__init__(input_value)
        if input_value is None:
            self.parent = None
            self.pending_children = 0
            self.acc: Tuple[int, ...] = ()
        else:
            parent, children_count, vector = input_value
            self.parent = parent
            self.pending_children = children_count
            self.acc = tuple(int(x) for x in vector)
        self._sent_up = False
        self._done = False

    def _try_send_up(self, ctx: Context) -> None:
        if self._sent_up or self.pending_children > 0 or self.parent is None:
            return
        if self.parent == -1:
            # Root: aggregation complete, start the downward broadcast.
            ctx.output("total", self.acc)
            ctx.broadcast(Message("down", *self.acc))
            self._done = True
            ctx.halt()
        else:
            ctx.send(self.parent, Message("up", *self.acc))
            self._sent_up = True

    def setup(self, ctx: Context) -> None:
        if self.parent is None:
            ctx.halt()
            return
        self._try_send_up(ctx)

    def receive(self, ctx: Context, inbox: Dict[int, Message]) -> None:
        for sender, msg in sorted(inbox.items()):
            if msg.tag == "up":
                self.acc = tuple(a + b for a, b in zip(self.acc, msg.fields))
                self.pending_children -= 1
            elif msg.tag == "down" and not self._done:
                ctx.output("total", tuple(msg.fields))
                # Forward downwards to everyone except the sender (children
                # ignore duplicates anyway; avoiding the sender respects the
                # one-message-per-port rule).
                for u in ctx.neighbors:
                    if u != sender:
                        ctx.send(u, Message("down", *msg.fields))
                self._done = True
                ctx.halt()
                return
        self._try_send_up(ctx)
        # No defensive round cutoff here: it would violate the event_driven
        # contract (a halt on an empty-inbox call).  Malformed forests
        # (parent cycles) surface as SimulationLimitError via the
        # simulator's max_rounds bound instead, identically on any engine.


def run_tree_sum(
    graph: nx.Graph | None,
    parent_of: Mapping[int, int],
    vectors: Mapping[int, Sequence[int]],
    network: Network | None = None,
    engine: EngineSpec = None,
) -> Tuple[Dict[int, Tuple[int, ...]], SimulationResult]:
    """Sum per-node integer vectors up a rooted forest and broadcast back.

    ``parent_of`` maps node -> parent (``-1`` for roots); nodes absent from
    the mapping take no part.  Returns ``(totals_by_node, result)`` where
    each participating node reports the total of *its* tree.  ``graph``
    may be ``None`` when ``network`` is given (e.g. a shared-memory CSR
    reconstruction).
    """
    network = network or Network.congest(graph)
    children_count: Dict[int, int] = {v: 0 for v in parent_of}
    for v, p in parent_of.items():
        if p is not None and p >= 0:
            children_count[p] = children_count.get(p, 0) + 1
    width = max((len(vec) for vec in vectors.values()), default=1)
    inputs = {}
    for v in graph.nodes() if graph is not None else range(network.n):
        if v in parent_of:
            vec = list(vectors.get(v, ())) + [0] * width
            inputs[v] = (parent_of[v], children_count.get(v, 0), vec[:width])
        else:
            inputs[v] = None
    sim = Simulator(network, TreeAggregationProgram, inputs=inputs, engine=engine)
    result = sim.run(max_rounds=6 * network.n + 12)
    return result.output_map("total"), result


# -- experiment-surface registration ------------------------------------------

from repro.api.registry import ProgramSpec, register_program  # noqa: E402
from repro.congest.programs.bfs import run_bfs_forest  # noqa: E402


def _drive(network: Network, engine: str) -> SimulationResult:
    """Canonical tree-sum workload: count the BFS tree rooted at node 0.

    The BFS forest is built first (on the same engine); the metered result
    is the aggregation itself — every node in the tree contributes the
    vector ``(1,)``, so the broadcast total equals the tree size.
    """
    root_of, _dist, parent_of, _ = run_bfs_forest(
        None, roots=[0], network=network, engine=engine
    )
    parents = {
        v: parent_of[v] for v in range(network.n) if root_of.get(v, -1) != -1
    }
    vectors = {v: (1,) for v in parents}
    _totals, sim = run_tree_sum(
        None, parents, vectors, network=network, engine=engine
    )
    return sim


def _summary(sim: SimulationResult) -> Dict[str, object]:
    totals = sim.output_map("total")
    return {
        "reached": len(totals),
        "tree_total": max((int(t[0]) for t in totals.values()), default=0),
    }


register_program(
    ProgramSpec(
        name="tree-sum",
        description="convergecast + broadcast over the BFS tree of node 0",
        program=TreeAggregationProgram,
        drive=_drive,
        summarize=_summary,
        # No batch recipe: the aggregation uses targeted per-port sends,
        # which the stacked broadcast plane does not model.
    )
)
