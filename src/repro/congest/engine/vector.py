"""Vectorized numpy message-plane engine.

The paper's algorithms are dominated by *fixed-shape broadcast rounds*:
every sending node broadcasts the same small message — one tag plus a few
bounded integer fields — to all of its neighbors.  For that traffic pattern
the round loop does not need per-message ``dict`` work at all: a round is
fully described by a **sender mask** plus one numpy column per declared
field, and both delivery (gather through the CSR topology) and wire
accounting (bit lengths, per-round totals, the CONGEST budget check) become
O(1) array operations over the edge slots.  A broadcast may also list its
senders (:attr:`PendingBroadcast.senders`), so that a round in which few
nodes act costs O(sum of their degrees) instead of O(n + nnz).

Three pieces cooperate:

* :class:`MessageSpec` — a program's declaration that one of its phases
  broadcasts a fixed ``tag`` with named small-int fields.  The spec can
  compute the *exact* wire size of a whole column of messages at once
  (:meth:`MessageSpec.bits_array` replicates
  :func:`repro.congest.message.message_bits` bit for bit), which is what
  keeps ``bits_per_round`` / ``messages_per_round`` identical to the
  reference engine.
* :class:`VectorKernel` — a per-program-class state machine over flat numpy
  arrays.  A kernel boots straight from the per-node inputs
  (:meth:`VectorKernel.stacked_setup`) and re-expresses the program's
  ``receive`` transition as scatter/gather over the
  :class:`~repro.congest.engine.batched.StackedPlane`; program modules
  register their kernel with :func:`register_kernel`.
* :class:`VectorEngine` — the engine.  A run whose programs declare no
  :attr:`~repro.congest.node.NodeProgram.message_specs`, have no
  registered kernel, mix program classes or fail the kernel's
  :meth:`VectorKernel.eligible` gate runs on
  :class:`~repro.congest.engine.fast.FastEngine`.  Every other run is the
  one-instance case of the round loop in
  :mod:`repro.congest.engine.batched`: the kernel boots from the
  programs' inputs, no ``setup`` runs, and the plane carries the run from
  round 1.  The parity suite (``tests/test_engine_parity.py``) proves all
  engines observationally identical either way.

The Lemma 3.10 kernel's gate admits its canonical uniform inputs, whose
color-class rounds run *in-plane*, with the targeted ``alpha`` sends
expressed as :class:`PendingTargeted` listed slots and a round optionally
carrying several differently-tagged parts at once; other inputs run on
``fast``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Dict, Mapping, Optional, Sequence, Tuple, Type, Union

import numpy as np

from repro.congest.engine.base import Engine, SimulationResult, register_engine
from repro.congest.engine.fast import FastEngine
from repro.congest.message import (
    FIELD_FRAMING_BITS,
    MESSAGE_HEADER_BITS,
)
from repro.congest.network import Network
from repro.congest.node import Context, NodeProgram
from repro.errors import CongestError

if TYPE_CHECKING:
    from repro.congest.engine.batched import StackedPlane

__all__ = [
    "MessageSpec",
    "PendingBroadcast",
    "VectorEngine",
    "VectorKernel",
    "kernel_for",
    "register_kernel",
]

#: Largest field value whose bit length the float64 ``frexp`` trick recovers
#: exactly.  CONGEST fields are O(log n)-bit by design, so this guards
#: against kernel bugs; a kernel whose inputs travel on the wire as given
#: (color reduction's initial colors) declines values outside it.
_MAX_EXACT_FIELD = 1 << 53


def bit_length_array(values: np.ndarray) -> np.ndarray:
    """Vectorized :func:`repro.congest.message.bits_of_int`.

    ``frexp`` returns the binary exponent of each value, which for positive
    integers below 2**53 is exactly the bit length; zeros are charged one
    bit, matching the scalar accounting.
    """
    values = np.asarray(values, dtype=np.int64)
    if values.size and int(values.min()) < 0:
        raise CongestError("message fields must be non-negative")
    if values.size and int(values.max()) >= _MAX_EXACT_FIELD:
        raise CongestError("message field too large for vectorized accounting")
    _, exponents = np.frexp(values.astype(np.float64))
    return np.where(values > 0, exponents, 1).astype(np.int64)


class MessageSpec:
    """Shape declaration for one fixed-form broadcast message family.

    ``tag`` is the message tag; ``fields`` are the names of its integer
    fields, in wire order.  A program lists the specs of its vector-eligible
    broadcast phases in :attr:`NodeProgram.message_specs`; kernels use them
    to build outbound columns and to account wire bits exactly.
    """

    __slots__ = ("tag", "fields")

    def __init__(self, tag: str, *fields: str):
        self.tag = tag
        self.fields = fields

    @property
    def arity(self) -> int:
        return len(self.fields)

    def bits_array(self, columns: Sequence[np.ndarray]) -> np.ndarray:
        """Exact per-sender wire size for one column of messages.

        Replicates ``MESSAGE_HEADER_BITS + sum(FIELD_FRAMING_BITS +
        bit_length(field))`` over whole arrays.
        """
        if len(columns) != self.arity:
            raise CongestError(
                f"spec {self.tag!r} expects {self.arity} fields, "
                f"got {len(columns)} columns"
            )
        if not columns:
            raise CongestError(f"spec {self.tag!r} declares no fields")
        base = MESSAGE_HEADER_BITS + FIELD_FRAMING_BITS * self.arity
        total = np.full(columns[0].shape, base, dtype=np.int64)
        for column in columns:
            total += bit_length_array(column)
        return total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MessageSpec({self.tag!r}, fields={self.fields!r})"


class PendingBroadcast:
    """One round's in-flight broadcast traffic, in columnar form.

    ``mask[v]`` says whether node ``v`` broadcast this round; ``columns``
    holds one full-length int64 array per spec field and ``bits`` the
    exact per-sender message size (entries of non-senders are ignored in
    both).  Messages physically exist only on the wires of senders with
    at least one neighbor — accounting and delivery both respect that.

    ``senders`` optionally lists the ascending ids of the set ``mask``
    entries, so a sparse round is accounted and delivered in O(sum of
    sender degrees) rather than O(plane).  It must match ``mask``: code
    that edits ``mask`` in place must clear it (``None`` means "derive
    from the mask").
    """

    __slots__ = ("spec", "mask", "columns", "bits", "senders")

    def __init__(
        self,
        spec: MessageSpec,
        mask: np.ndarray,
        columns: Tuple[np.ndarray, ...],
        bits: np.ndarray,
        senders: Optional[np.ndarray] = None,
    ):
        self.spec = spec
        self.mask = mask
        self.columns = columns
        self.bits = bits
        self.senders = senders

    def sender_ids(self) -> np.ndarray:
        """Ascending ids of this round's senders."""
        if self.senders is None:
            return np.flatnonzero(self.mask)
        return self.senders


class PendingTargeted:
    """One round's in-flight *targeted* traffic, addressed per CSR slot.

    The broadcast plane cannot express a round where each sender picks one
    recipient (``ctx.send``), so targeted phases — Lemma 3.10's alpha
    quotes — ride in receiver-side slot form: slot ``s`` of row ``v``
    (``indptr[v] <= s < indptr[v+1]``) carries a message from ``v``'s
    peer ``indices[s]`` to ``v``.  ``slots`` lists the carrying slots in
    ascending order; ``columns`` holds one int64 array per field and
    ``bits`` the exact per-message wire size, both aligned to ``slots``.
    Exactly one message per listed slot travels on the wire, so a round
    costs O(number of messages), not O(plane).
    """

    __slots__ = ("spec", "slots", "columns", "bits")

    def __init__(
        self,
        spec: MessageSpec,
        slots: np.ndarray,
        columns: Tuple[np.ndarray, ...],
        bits: np.ndarray,
    ):
        self.spec = spec
        self.slots = slots
        self.columns = columns
        self.bits = bits


#: What a kernel may hand the round loop: nothing, one broadcast, one
#: targeted batch, or several of them at once (a ragged stacked plane can
#: have instances in different protocol phases, so one plane round may
#: carry differently-tagged traffic side by side).
PendingTraffic = Union[
    None, PendingBroadcast, PendingTargeted, Tuple[object, ...]
]


def pending_parts(pending: PendingTraffic) -> Tuple[object, ...]:
    """Normalize a kernel's outbound traffic to a tuple of parts."""
    if pending is None:
        return ()
    if isinstance(pending, tuple):
        return pending
    return (pending,)


class VectorKernel(ABC):
    """Vectorized state machine for one node-program class.

    The contract has three hooks: :meth:`eligible` decides from a run's
    inputs whether the kernel can run it; :meth:`stacked_setup` builds
    the kernel and the round-1 traffic straight from those inputs; and
    from then on :meth:`step` is the whole round: consume the inbound
    traffic, update state, record outputs/halts, and return the next
    round's outbound traffic (or ``None`` for a silent round).  The round
    loop owns accounting and termination; the kernel owns semantics.
    Outputs are columns: :meth:`output` records one key for an array of
    nodes, and the round loop slices each finished instance's outputs
    from the columns.

    Every plane may hold K instances (:mod:`repro.congest.engine.batched`;
    a solo run is the case K = 1), so per-node transitions consult only
    intra-instance data: ``plane.local_n_of`` / ``plane.local_ids``
    instead of global ids and the global ``plane.n``.  Planes may be
    *ragged* — instances of different sizes — so per-instance quantities
    (packed-key bases, round schedules) come from the per-node
    ``local_n_of`` array, never from a single scalar ``n``.
    """

    #: Filled in by :func:`register_kernel`.
    program_class: Type[NodeProgram]

    def __init__(self, plane: "StackedPlane"):
        """Bare kernel over ``plane``: every node live, no outputs yet."""
        self.plane = plane
        self.live = np.ones(plane.n, dtype=bool)
        #: Output key -> ``(values, written)``: an int64 column over the
        #: plane and the mask of the nodes that wrote it, in first-write
        #: order of the keys.
        self.output_columns: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}

    @classmethod
    def eligible(cls, network: Network, inputs: Mapping[int, object]) -> bool:
        """Whether the kernel can run one instance with these inputs.

        ``inputs`` maps local node ids to their program inputs, a missing
        node meaning ``None`` (what :attr:`NodeProgram.input` holds).  It
        is the kernel's only gate: a declined solo run executes on
        :class:`FastEngine`, and a declined instance makes its stacked
        group raise :class:`~repro.errors.BatchEligibilityError`.
        """
        return True

    @classmethod
    @abstractmethod
    def stacked_setup(
        cls, plane: "StackedPlane", inputs: Sequence[Mapping[int, object]]
    ) -> Tuple["VectorKernel", PendingTraffic]:
        """Boot: the kernel at round 1 and the traffic ``setup`` queues.

        ``inputs`` is one ``{node: input}`` mapping per instance (local
        ids; a missing node has input ``None``), and every instance has
        passed :meth:`eligible`.  Implementations translate local to
        global ids through the plane's ragged offset tables
        (``plane.node_offsets[k]`` is instance ``k``'s first global node,
        ``plane.local_ns[k]`` its size), read exactly nodes
        ``0 .. local_ns[k] - 1`` of each mapping, and start from
        ``cls(plane)``.  Every node boots live.  The boot stands in for
        every node's ``setup`` bit for bit: same state, and the same
        round-1 messages, bit lengths and raised errors.
        """

    def output(self, nodes: np.ndarray, key: str, values: np.ndarray) -> None:
        """Record output ``key`` of ``nodes`` (global ids) as ``values``.

        One call covers every node that outputs ``key`` in a round; a
        later write overwrites an earlier one, as ``Context.output`` does.
        Values are integers.
        """
        column = self.output_columns.get(key)
        if column is None:
            n = self.plane.n
            column = self.output_columns[key] = (
                np.zeros(n, dtype=np.int64),
                np.zeros(n, dtype=bool),
            )
        column[0][nodes] = values
        column[1][nodes] = True

    @abstractmethod
    def step(
        self, round_no: int, inbound: Optional[PendingBroadcast]
    ) -> Optional[PendingBroadcast]:
        """Execute one delivered round; return next round's sends."""


_KERNELS: Dict[Type[NodeProgram], Type[VectorKernel]] = {}


def register_kernel(program_cls: Type[NodeProgram]):
    """Class decorator: attach a kernel to a node-program class."""

    def decorate(kernel_cls: Type[VectorKernel]) -> Type[VectorKernel]:
        missing = sorted(kernel_cls.__abstractmethods__)
        if missing:
            raise TypeError(
                f"{kernel_cls.__name__} does not implement {', '.join(missing)}"
            )
        kernel_cls.program_class = program_cls
        _KERNELS[program_cls] = kernel_cls
        return kernel_cls

    return decorate


def kernel_for(program_cls: Type[NodeProgram]) -> Optional[Type[VectorKernel]]:
    """The registered kernel for a program class, if any."""
    return _KERNELS.get(program_cls)


@register_engine
class VectorEngine(Engine):
    """Numpy message-plane engine with scalar fallback (see module doc)."""

    name = "vector"

    def __init__(self) -> None:
        self._scalar = FastEngine()

    def run(
        self,
        network: Network,
        programs: Dict[int, NodeProgram],
        contexts: Dict[int, Context],
        max_rounds: int,
    ) -> SimulationResult:
        kernel_cls = self._kernel_class(programs)
        if kernel_cls is not None:
            inputs = {v: p.input for v, p in programs.items()}
            if kernel_cls.eligible(network, inputs):
                # The round loop builds on this module: imported here.
                from repro.congest.engine.batched import run_instance

                return run_instance(network, kernel_cls, inputs, max_rounds)
        return self._scalar.run(network, programs, contexts, max_rounds)

    @staticmethod
    def _kernel_class(
        programs: Dict[int, NodeProgram],
    ) -> Optional[Type[VectorKernel]]:
        """The kernel to use, or ``None`` when the run must stay scalar.

        Requires a homogeneous program population whose class both declares
        :attr:`NodeProgram.message_specs` (the per-phase opt-in) and has a
        registered kernel.
        """
        if not programs:
            return None
        cls = type(programs[0])
        if not getattr(cls, "message_specs", ()):
            return None
        kernel_cls = _KERNELS.get(cls)
        if kernel_cls is None:
            return None
        if any(type(p) is not cls for p in programs.values()):
            return None
        return kernel_cls
