"""Engine interface: the pluggable round loop behind :class:`Simulator`.

An :class:`Engine` owns the synchronous round loop of the textbook model of
Peleg [Pel00]: each round it (1) collects every node's outbox, (2) validates
message sizes against the CONGEST budget, (3) delivers all messages
simultaneously, and (4) invokes ``receive`` on every non-halted node.
Implementations differ only in *how* they schedule that loop (see
:class:`~repro.congest.engine.reference.ReferenceEngine` and
:class:`~repro.congest.engine.fast.FastEngine`); they must be
observationally identical — same :class:`SimulationResult` for the same
network, programs and inputs — which ``tests/test_engine_parity.py``
enforces across the whole bundled program suite.

Shared semantics every engine must implement
--------------------------------------------
* ``setup`` runs on every node with ``round_number == 0`` before round 1;
  messages sent during ``setup`` are delivered in round 1.
* A halted node's ``receive`` is never called again, but messages it queued
  *before* halting are still collected and delivered.
* **Halted-node message drops:** messages addressed to a halted node are
  silently dropped — they are validated against the bit budget and charged
  to ``total_bits`` / ``max_message_bits`` (they were put on the wire), and
  they count towards ``total_messages`` if the round executes.  If *all*
  nodes have halted, the round does not execute at all: in-flight traffic
  is dropped, ``rounds`` is not incremented and the dropped messages appear
  in ``total_bits`` but not in ``total_messages`` or the per-round series.
* The simulation ends when every node has halted (``all_halted=True``) or
  when ``max_rounds`` is exceeded, which raises
  :class:`~repro.errors.SimulationLimitError`.

Engines are stateless between runs; one instance can be shared freely.
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Tuple, Type, Union

from repro.congest.network import Network
from repro.congest.node import Context, NodeProgram
from repro.errors import CongestError, UnknownEngineError


#: Output key -> ``(nodes, values)``: the nodes that wrote the key, in
#: ascending order, and the value each one wrote last.
OutputColumns = Dict[str, Tuple[List[int], List[object]]]


@dataclass
class SimulationResult:
    """Outcome and metrics of one simulated execution.

    ``outputs`` holds one column per output key (:data:`OutputColumns`); a
    key no node wrote is absent, and so is a node from every column it did
    not write.  Values are the Python objects the nodes output.
    """

    rounds: int
    total_messages: int
    total_bits: int
    max_message_bits: int
    outputs: OutputColumns
    all_halted: bool
    #: messages sent per executed round, for congestion profiles
    messages_per_round: List[int] = field(default_factory=list)
    #: bits sent per executed round, aligned with ``messages_per_round``
    bits_per_round: List[int] = field(default_factory=list)

    def column(self, key: str) -> Tuple[List[int], List[object]]:
        """Output ``key``'s ``(nodes, values)``; empty if no node wrote it."""
        return self.outputs.get(key, ([], []))

    def output_map(self, key: str) -> Dict[int, object]:
        """Collect output ``key`` from each node that produced it."""
        return dict(zip(*self.column(key)))


def recorded_columns(contexts: Mapping[int, Context]) -> OutputColumns:
    """The outputs the scalar engines' contexts recorded, as columns."""
    columns: OutputColumns = {}
    for v in sorted(contexts):
        for key, value in contexts[v]._recorded.items():
            column = columns.get(key)
            if column is None:
                column = columns[key] = ([], [])
            column[0].append(v)
            column[1].append(value)
    return columns


class Engine(ABC):
    """Abstract round-loop scheduler (see module docstring for semantics)."""

    #: Registry key; subclasses override.
    name: str = "abstract"

    @abstractmethod
    def run(
        self,
        network: Network,
        programs: Dict[int, NodeProgram],
        contexts: Dict[int, Context],
        max_rounds: int,
    ) -> SimulationResult:
        """Drive ``programs`` on ``network`` until all halt or the limit."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


#: Anything :func:`resolve_engine` accepts.
EngineSpec = Union[None, str, Engine, Type[Engine]]

_REGISTRY: Dict[str, Type[Engine]] = {}


def register_engine(cls: Type[Engine]) -> Type[Engine]:
    """Class decorator: make ``cls`` selectable by its ``name``."""
    if not cls.name or cls.name == Engine.name:
        raise ValueError(f"engine class {cls.__name__} needs a unique name")
    _REGISTRY[cls.name] = cls
    return cls


def available_engines() -> List[str]:
    """Sorted names of all registered engines."""
    return sorted(_REGISTRY)


#: Name of the engine used when a Simulator is built without an explicit
#: one.  ``REPRO_ENGINE`` overrides the shipped default at import time;
#: :func:`set_default_engine` overrides it at runtime (e.g. from ``--engine``
#: CLI flags, so whole pipelines switch engine without threading a parameter
#: through every call site).
_DEFAULT_ENGINE = os.environ.get("REPRO_ENGINE", "fast")


def set_default_engine(spec: Union[str, Engine, Type[Engine]]) -> None:
    """Set the process-wide default engine (by name, instance, or class)."""
    global _DEFAULT_ENGINE
    if isinstance(spec, str):
        if spec not in _REGISTRY:
            raise UnknownEngineError(spec, available_engines())
        _DEFAULT_ENGINE = spec
    elif isinstance(spec, Engine):
        _DEFAULT_ENGINE = spec.name
    elif isinstance(spec, type) and issubclass(spec, Engine):
        _DEFAULT_ENGINE = spec.name
    else:
        raise CongestError(f"cannot interpret {spec!r} as an engine")


def default_engine_name() -> str:
    """Name of the current process-wide default engine."""
    return _DEFAULT_ENGINE


def resolve_engine(spec: EngineSpec = None) -> Engine:
    """Turn an engine spec into a ready instance.

    ``None`` resolves to the process default (``fast`` unless overridden by
    ``REPRO_ENGINE`` or :func:`set_default_engine`); a string looks up the
    registry; instances pass through; classes are instantiated.
    """
    if spec is None:
        spec = _DEFAULT_ENGINE
    if isinstance(spec, Engine):
        return spec
    if isinstance(spec, type) and issubclass(spec, Engine):
        return spec()
    if isinstance(spec, str):
        try:
            return _REGISTRY[spec]()
        except KeyError:
            raise UnknownEngineError(spec, available_engines()) from None
    raise CongestError(f"cannot interpret {spec!r} as an engine")
