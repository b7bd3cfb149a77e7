"""Distributed BFS forest construction.

Every root floods a ``(root, dist)`` wave; each node adopts the first wave it
hears (ties broken towards the smallest root id, then the smallest parent id
— a deterministic rule so repeated runs agree).  This is the standard
O(diameter)-round, O(log n)-bit-per-message BFS used throughout the paper for
cluster trees and aggregation.

Outputs per node: ``root``, ``dist``, ``parent`` (``-1`` for roots and
unreached nodes).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, Tuple

from repro.congest.engine import EngineSpec
from repro.congest.message import Message
from repro.congest.network import Network
from repro.congest.node import Context, NodeProgram
from repro.congest.simulator import SimulationResult, Simulator

if TYPE_CHECKING:
    import networkx as nx


class BFSTreeProgram(NodeProgram):
    """Per-node input: ``True`` if this node is a root, else falsy.

    A node halts once its adopted wave is one round old and it has forwarded
    it; the forest is complete after ``eccentricity + 1`` rounds.
    """

    def __init__(self, input_value: object = None):
        super().__init__(input_value)
        self.root: int | None = None
        self.dist: int | None = None
        self.parent: int = -1
        self._announced = False
        self._idle_rounds = 0

    def _adopt(self, root: int, dist: int, parent: int) -> bool:
        better = (
            self.dist is None
            or dist < self.dist
            or (dist == self.dist and (root, parent) < (self.root, self.parent))
        )
        if better:
            self.root, self.dist, self.parent = root, dist, parent
            self._announced = False
        return better

    def setup(self, ctx: Context) -> None:
        if self.input:
            self._adopt(ctx.node, 0, -1)
            self._flush(ctx)

    def _flush(self, ctx: Context) -> None:
        if not self._announced and self.dist is not None:
            ctx.broadcast(Message("bfs", self.root, self.dist))
            self._announced = True
            self._idle_rounds = 0

    def receive(self, ctx: Context, inbox: Dict[int, Message]) -> None:
        if inbox:
            for sender, msg in sorted(inbox.items()):
                if msg.tag != "bfs":
                    continue
                root, dist = msg.fields
                self._adopt(root, dist + 1, sender)
        self._flush(ctx)
        self._idle_rounds += 1
        # Two quiet rounds after announcing => no improvement can still be in
        # flight from a strictly closer wave (BFS waves advance one hop per
        # round), so the local state is final.
        if self._announced and self._idle_rounds >= 2:
            ctx.output("root", self.root if self.root is not None else -1)
            ctx.output("dist", self.dist if self.dist is not None else -1)
            ctx.output("parent", self.parent)
            ctx.halt()
        elif ctx.round_number > 2 * ctx.n + 2:
            # Unreachable from any root (different component).
            ctx.output("root", -1)
            ctx.output("dist", -1)
            ctx.output("parent", -1)
            ctx.halt()


def run_bfs_forest(
    graph: nx.Graph | None,
    roots: Iterable[int],
    network: Network | None = None,
    engine: EngineSpec = None,
) -> Tuple[Dict[int, int], Dict[int, int], Dict[int, int], SimulationResult]:
    """Build a BFS forest from ``roots`` on the simulator.

    Returns ``(root_of, dist_of, parent_of, result)`` where unreached nodes
    map to ``-1`` / ``-1`` / ``-1``.  ``graph`` may be ``None`` when
    ``network`` is given (e.g. a shared-memory CSR reconstruction).
    """
    network = network or Network.congest(graph)
    root_set = set(roots)
    sim = Simulator(
        network,
        BFSTreeProgram,
        inputs={v: (v in root_set) for v in range(network.n)},
        engine=engine,
    )
    result = sim.run(max_rounds=4 * network.n + 10)
    return (
        result.output_map("root"),
        result.output_map("dist"),
        result.output_map("parent"),
        result,
    )


# -- experiment-surface registration ------------------------------------------

from repro.api.registry import ProgramSpec, register_program  # noqa: E402


def _drive(network: Network, engine: str) -> SimulationResult:
    return run_bfs_forest(None, roots=[0], network=network, engine=engine)[-1]


def _summary(sim: SimulationResult) -> Dict[str, object]:
    roots = sim.column("root")[1]
    return {"reached": len(roots) - roots.count(-1)}


register_program(
    ProgramSpec(
        name="bfs",
        description="BFS forest flood from node 0 (O(diameter) rounds)",
        program=BFSTreeProgram,
        drive=_drive,
        summarize=_summary,
        # No batch recipe: BFS has no vector kernel to stack.
    )
)
