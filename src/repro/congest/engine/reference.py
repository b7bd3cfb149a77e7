"""The original dict-of-dicts round loop, kept as the readable baseline.

This is the implementation the simulator shipped with: a direct transcription
of the synchronous model — per round, scan every context for outgoing
traffic, deliver into a fresh dict-of-dicts, and call ``receive`` on every
live node.  It is O(n) per round even when almost every node has halted,
which is exactly the cost profile :class:`~repro.congest.engine.fast.
FastEngine` removes; it stays around as the semantic reference that the
parity suite checks the fast path against, and as the engine of choice when
debugging a node program (plain data structures, obvious control flow).
"""

from __future__ import annotations

from typing import Dict

from repro.congest.engine.base import Engine, SimulationResult, register_engine
from repro.congest.message import Message
from repro.congest.network import Network
from repro.congest.node import Context, NodeProgram
from repro.errors import MessageTooLargeError, SimulationLimitError


@register_engine
class ReferenceEngine(Engine):
    """Straightforward per-node, per-message round loop (the seed semantics).

    See :mod:`repro.congest.engine.base` for the shared contract, including
    the halted-node message-drop rules this engine defines.
    """

    name = "reference"

    def run(
        self,
        network: Network,
        programs: Dict[int, NodeProgram],
        contexts: Dict[int, Context],
        max_rounds: int,
    ) -> SimulationResult:
        budget = network.bit_budget
        total_messages = 0
        total_bits = 0
        max_bits = 0
        messages_per_round: list[int] = []
        bits_per_round: list[int] = []

        for v, program in programs.items():
            ctx = contexts[v]
            ctx.round_number = 0
            program.setup(ctx)

        rounds = 0
        while rounds < max_rounds:
            # Collect and validate this round's traffic.
            in_transit: Dict[int, Dict[int, Message]] = {}
            round_messages = 0
            round_bits = 0
            for v, ctx in contexts.items():
                for to, msg in ctx._drain_outbox().items():
                    if budget is not None and msg.bits > budget:
                        raise MessageTooLargeError(v, to, msg.bits, budget)
                    in_transit.setdefault(to, {})[v] = msg
                    round_messages += 1
                    round_bits += msg.bits
                    if msg.bits > max_bits:
                        max_bits = msg.bits
            total_bits += round_bits

            live = [v for v, ctx in contexts.items() if not ctx._halted]
            if not live:
                # Everyone has halted: any in-flight messages are addressed
                # to halted nodes and are dropped; nothing can change any
                # more, and the aborted round is not counted.
                break

            rounds += 1
            total_messages += round_messages
            messages_per_round.append(round_messages)
            bits_per_round.append(round_bits)

            for v in live:
                ctx = contexts[v]
                ctx.round_number = rounds
                inbox = in_transit.get(v, {})
                programs[v].receive(ctx, inbox)

            if all(ctx._halted for ctx in contexts.values()):
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
            outputs={v: dict(ctx._recorded) for v, ctx in contexts.items()},
            all_halted=all(ctx._halted for ctx in contexts.values()),
            messages_per_round=messages_per_round,
            bits_per_round=bits_per_round,
        )
