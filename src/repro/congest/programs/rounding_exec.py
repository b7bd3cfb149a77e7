"""Execution of the abstract rounding process (Section 3.1) on the simulator.

Phase one of the process is a purely local coin flip / coin lookup: node
``v``'s value becomes ``X_v`` (either ``x(v)/p(v)`` or ``0``).  Phase two
requires one communication round: every node broadcasts ``X_v``, and a node
whose constraint ``sum_{u in N(v)} X_u >= c(v)`` is violated joins the
dominating set (sets its value to 1).

The program takes the already-resolved phase-one value as input (the coins —
random, k-wise pseudo-random, or deterministically fixed — are produced by
:mod:`repro.rounding` / :mod:`repro.derand`), so the same program executes
both the randomized and the derandomized variants, exactly as in the paper
where "the third step can be executed in O(1) rounds".

Values travel as grid numerators; one value per message.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.congest.engine import (
    EngineSpec,
    MessageSpec,
    PendingBroadcast,
    VectorKernel,
    register_kernel,
)
from repro.congest.engine.vector import _MAX_EXACT_FIELD
from repro.congest.message import Message
from repro.congest.network import Network
from repro.congest.node import Context, NodeProgram
from repro.congest.simulator import SimulationResult, Simulator
from repro.util.transmittable import TransmittableGrid

if TYPE_CHECKING:
    import networkx as nx

_INT64_MAX = int(np.iinfo(np.int64).max)


class RoundingExecutionProgram(NodeProgram):
    """Per-node input: ``(x_num, c_num, scale)`` grid numerators.

    ``x_num`` is the phase-one value numerator, ``c_num`` the constraint
    numerator, ``scale`` the grid denominator (``2**iota``).  Output:
    ``value`` — the final numerator after phase two (``scale`` if the node
    joined the dominating set).
    """

    #: One broadcast phase: every node announces its phase-one numerator.
    message_specs = (MessageSpec("val", "value"),)

    def __init__(self, input_value: object = None):
        super().__init__(input_value)
        self.x_num, self.c_num, self.scale = input_value  # type: ignore[misc]

    def setup(self, ctx: Context) -> None:
        ctx.broadcast(Message("val", self.x_num))

    def receive(self, ctx: Context, inbox: Dict[int, Message]) -> None:
        covered = self.x_num  # inclusive neighborhood: own value counts
        for msg in inbox.values():
            covered += msg.fields[0]
        if covered < self.c_num:
            final = self.scale  # join: value 1
        else:
            final = self.x_num
        ctx.output("value", final)
        ctx.halt()


@register_kernel(RoundingExecutionProgram)
class RoundingExecutionKernel(VectorKernel):
    """Vector transcription of the single constraint-check round.

    Phase two is one broadcast round: sum the delivered numerators over
    each inclusive neighborhood (an exact int64 CSR row reduction) and
    compare against the constraint — every live node outputs and halts in
    the same round, exactly like the scalar ``receive``.
    """

    @classmethod
    def eligible(cls, network, inputs) -> bool:
        """Every node needs its ``(x_num, c_num, scale)`` input, in range.

        ``x_num`` travels on the wire as given, so it must lie in the
        plane's exact range ``[0, 2**53)`` (a negative one raises in
        ``setup`` on ``fast``), and no coverage sum nor ``c_num`` or
        ``scale`` may leave int64.
        """
        x_top = min(_MAX_EXACT_FIELD, _INT64_MAX // (network.max_degree + 1) + 1)
        for v in range(network.n):
            triple = inputs.get(v)
            if triple is None:
                return False
            x_num, c_num, scale = triple
            if not (0 <= x_num < x_top and max(abs(c_num), abs(scale)) <= _INT64_MAX):
                return False
        return True

    @classmethod
    def stacked_setup(cls, plane, inputs):
        """Vectorized boot: every node announces its phase-one numerator."""
        kernel = cls(plane)
        triples = [
            mapping[v]
            for mapping, n_k in zip(inputs, plane.local_ns.tolist())
            for v in range(n_k)
        ]
        x_num, c_num, scale = np.array(triples, dtype=np.int64).T
        kernel.x_num = x_num
        kernel.c_num = c_num
        kernel.scale = scale
        spec = RoundingExecutionProgram.message_specs[0]
        pending = PendingBroadcast(
            spec, plane.degrees > 0, (x_num,), spec.bits_array((x_num,))
        )
        return kernel, pending

    def step(
        self, round_no: int, inbound: Optional[PendingBroadcast]
    ) -> Optional[PendingBroadcast]:
        plane = self.plane
        sent = plane.sent_slots(inbound)
        received = (
            plane.row_sum(np.where(sent, plane.gather(self.x_num), 0))
            if inbound is not None
            else np.zeros(plane.n, dtype=np.int64)
        )
        covered = self.x_num + received
        final = np.where(covered < self.c_num, self.scale, self.x_num)
        nodes = np.flatnonzero(self.live)
        self.output(nodes, "value", final[nodes])
        self.live[:] = False
        return None


def run_rounding_execution(
    graph: nx.Graph | None,
    phase_one_values: Mapping[int, float],
    constraints: Mapping[int, float],
    grid: TransmittableGrid | None = None,
    network: Network | None = None,
    engine: EngineSpec = None,
) -> Tuple[Dict[int, float], SimulationResult]:
    """Run phase two of the abstract rounding process distributedly.

    Returns ``(final_values, result)`` with final values mapped back to
    floats on the grid.  ``graph`` may be ``None`` when ``network`` is
    given (e.g. a shared-memory CSR reconstruction).
    """
    network = network or Network.congest(graph)
    grid = grid or TransmittableGrid.for_n(network.n)
    scale = 1 << grid.iota
    inputs = {
        v: (
            grid.to_int(phase_one_values.get(v, 0.0)),
            grid.to_int(constraints.get(v, 1.0)),
            scale,
        )
        for v in (graph.nodes() if graph is not None else range(network.n))
    }
    sim = Simulator(network, RoundingExecutionProgram, inputs=inputs, engine=engine)
    result = sim.run(max_rounds=4)
    values = {
        v: grid.from_int(num) for v, num in result.output_map("value").items()
    }
    return values, result


# -- experiment-surface registration ------------------------------------------

from repro.api.registry import ProgramSpec, register_program  # noqa: E402


def default_rounding_inputs(
    network: Network, grid: TransmittableGrid | None = None
) -> Dict[int, Tuple[int, int, int]]:
    """The spec's canonical workload: ``x(v) = 1/(deg(v)+1)`` against ``c = 1``.

    The uniform fractional relaxation — every node spreads one unit of
    coverage over its inclusive neighborhood — so the constraint check is
    non-trivial on every topology and fully determined by the topology
    (identical for per-cell and stacked executions).
    """
    grid = grid or TransmittableGrid.for_n(network.n)
    scale = 1 << grid.iota
    return {
        v: (
            grid.to_int(1.0 / (network.degree(v) + 1)),
            grid.to_int(1.0),
            scale,
        )
        for v in range(network.n)
    }


def _batch_inputs(networks: Sequence[Network]) -> List[Dict[int, Tuple[int, int, int]]]:
    """:func:`default_rounding_inputs` of each network of a stacked group."""
    return [default_rounding_inputs(network) for network in networks]


def _drive(network: Network, engine: str) -> SimulationResult:
    sim = Simulator(
        network,
        RoundingExecutionProgram,
        inputs=default_rounding_inputs(network),
        engine=engine,
    )
    return sim.run(max_rounds=4)


def _summary(sim: SimulationResult) -> Dict[str, object]:
    # Every node outputs its value, so the value column's length is n.
    nodes, values = sim.column("value")
    scale = 1 << TransmittableGrid.for_n(len(nodes)).iota
    return {"joined": values.count(scale)}


register_program(
    ProgramSpec(
        name="rounding-exec",
        description="Section 3.1 rounding phase two: one constraint-check round",
        program=RoundingExecutionProgram,
        drive=_drive,
        summarize=_summary,
        batch_factory=RoundingExecutionProgram,
        batch_max_rounds=lambda net: 4,
        batch_inputs=_batch_inputs,
    )
)
