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
  arrays.  A kernel re-expresses the program's ``receive`` transition as
  scatter/gather over the :class:`CsrPlane`; program modules register their
  kernel with :func:`register_kernel`.
* :class:`VectorEngine` — the engine.  A run whose programs declare no
  :attr:`~repro.congest.node.NodeProgram.message_specs`, have no
  registered kernel, mix program classes or fail the kernel's
  :meth:`VectorKernel.eligible` gate runs on
  :class:`~repro.congest.engine.fast.FastEngine`.  Every other run is the
  one-instance case of the round loop in
  :mod:`repro.congest.engine.batched`: the loop runs ``setup`` and any
  scalar prefix of rounds through FastEngine mechanics, hands the live
  state to the kernel at its declared ``takeover_round`` and finishes the
  run with vectorized rounds.  The parity suite
  (``tests/test_engine_parity.py``) proves all engines observationally
  identical either way.

Fully-broadcast programs (greedy MDS, rounding execution, color reduction)
take over at round 1, and so does the Lemma 3.10 loop on its canonical
uniform inputs — its color-class rounds run *in-plane*, with the targeted
``alpha`` sends expressed as :class:`PendingTargeted` slot traffic and a
round optionally carrying several differently-tagged parts at once.  On
heterogeneous inputs the loop instead runs those rounds under scalar
semantics and vectorizes the final execution-phase broadcasts (takeover
at ``2 + 3*num_colors``; the takeover round is per-instance,
input-dependent state).  The handover follows one set of rules whether
the plane holds one instance or K (see
:mod:`repro.congest.engine.batched`): an instance joins the plane at its
own takeover round, through :meth:`VectorKernel.absorb_instance` when that
round is late, and an instance whose traffic at that round is not one
conforming broadcast finishes on FastEngine mechanics.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from array import array
from typing import Dict, Optional, Sequence, Tuple, Type, Union

import numpy as np

from repro.congest.engine.base import Engine, SimulationResult, register_engine
from repro.congest.engine.fast import FastEngine
from repro.congest.message import (
    FIELD_FRAMING_BITS,
    MESSAGE_HEADER_BITS,
)
from repro.congest.network import Network
from repro.congest.node import Context, NodeProgram
from repro.errors import BatchEligibilityError, CongestError, GraphError

__all__ = [
    "CsrPlane",
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
    peer ``indices[s]`` to ``v`` iff ``slot_mask[s]``.  ``columns`` holds
    one slot-length int64 array per field and ``bits`` the exact
    per-message wire size; unmasked entries are ignored.  Exactly one
    message per masked slot travels on the wire, so accounting is a
    masked sum instead of the broadcast's degree weighting.
    """

    __slots__ = ("spec", "slot_mask", "columns", "bits")

    def __init__(
        self,
        spec: MessageSpec,
        slot_mask: np.ndarray,
        columns: Tuple[np.ndarray, ...],
        bits: np.ndarray,
    ):
        self.spec = spec
        self.slot_mask = slot_mask
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


class CsrPlane:
    """Array view of a network's CSR topology plus exact row reductions.

    ``indices[indptr[v]:indptr[v+1]]`` are the neighbors of ``v`` (the
    *slots* of row ``v``).  Row reductions use ``ufunc.reduceat`` over the
    non-empty rows only, so isolated nodes are handled without branching
    and all arithmetic stays in int64 (bit-exact, unlike float matvecs).
    Kernels run on its subclass
    :class:`~repro.congest.engine.batched.StackedPlane`, which adds the
    per-instance tables.
    """

    __slots__ = (
        "n",
        "nnz",
        "indptr",
        "indices",
        "degrees",
        "_nonempty",
        "_starts",
        "_reverse",
    )

    def __init__(self, network: Network):
        indptr, indices = network.csr()
        self._init_arrays(_as_int64(indptr), _as_int64(indices))

    def _init_arrays(self, indptr: np.ndarray, indices: np.ndarray) -> None:
        self.indptr = indptr
        self.indices = indices
        self.n = int(indptr.shape[0]) - 1
        self.nnz = int(indices.shape[0])
        self.degrees = self.indptr[1:] - self.indptr[:-1]
        self._reverse = None
        self._nonempty = self.degrees > 0
        self._starts = self.indptr[:-1][self._nonempty]

    def row_sum(self, slot_values: np.ndarray) -> np.ndarray:
        """Per-node sum of ``slot_values`` over each node's slots."""
        out = np.zeros(self.n, dtype=np.int64)
        if self._starts.size:
            values = np.asarray(slot_values).astype(np.int64, copy=False)
            out[self._nonempty] = np.add.reduceat(values, self._starts)
        return out

    def row_max(self, slot_values: np.ndarray, empty: int) -> np.ndarray:
        """Per-node max of ``slot_values``; ``empty`` for isolated nodes."""
        out = np.full(self.n, empty, dtype=np.int64)
        if self._starts.size:
            values = np.asarray(slot_values).astype(np.int64, copy=False)
            out[self._nonempty] = np.maximum.reduceat(values, self._starts)
        return out

    def row_any(self, slot_flags: np.ndarray) -> np.ndarray:
        """Per-node "any slot true" as a boolean array."""
        return self.row_sum(slot_flags) > 0

    def sent_slots(self, pending: Optional[PendingBroadcast]) -> np.ndarray:
        """Slot-level sender flags for one round of broadcast traffic."""
        if pending is None:
            return np.zeros(self.nnz, dtype=bool)
        return pending.mask[self.indices]

    def gather(self, per_node: np.ndarray) -> np.ndarray:
        """Slot-level view of a per-node array (value of each slot's peer)."""
        return per_node[self.indices]

    def out_slots(self, senders: np.ndarray) -> np.ndarray:
        """Receiving slots of the broadcasts of ``senders``, sender-major.

        The slots ``s`` with ``indices[s]`` in ``senders`` — the set
        :meth:`sent_slots` flags — found in O(sum of sender degrees)
        through the reverse-slot map.
        """
        if self._reverse is None:
            self._reverse = self._reverse_slots()
        degrees = self.degrees[senders]
        # Concatenate the senders' own slot ranges [indptr[u], indptr[u+1]).
        shift = self.indptr[senders] - (np.cumsum(degrees) - degrees)
        slots = np.arange(int(degrees.sum())) + np.repeat(shift, degrees)
        return self._reverse[slots]

    def _reverse_slots(self) -> np.ndarray:
        """Map the slot of ``v`` in row ``u`` to the slot of ``u`` in row ``v``.

        With sorted rows, the slots naming ``v`` in ascending slot order
        are ``v``'s own row in order, so a stable sort by neighbor id lays
        them out exactly at ``indptr[v] .. indptr[v+1]``.
        """
        reverse = np.empty(self.nnz, dtype=np.int64)
        reverse[np.argsort(self.indices, kind="stable")] = np.arange(self.nnz)
        rows = np.repeat(np.arange(self.n, dtype=np.int64), self.degrees)
        if not (
            np.array_equal(self.indices[reverse], rows)
            and np.array_equal(rows[reverse], self.indices)
        ):
            raise GraphError("CSR topology is not symmetric with sorted rows")
        return reverse


def _as_int64(values) -> np.ndarray:
    if isinstance(values, array) and values.itemsize == 8:
        return np.frombuffer(values, dtype=np.int64)
    return np.asarray(values, dtype=np.int64)


class VectorKernel(ABC):
    """Vectorized state machine for one node-program class.

    A kernel is constructed at handover time with the plane and the live
    per-node program/context state; from then on :meth:`step` is the whole
    round: consume the inbound :class:`PendingBroadcast`, update state,
    record outputs/halts, and return the next round's outbound broadcast
    (or ``None`` for a silent round).  The round loop owns accounting and
    termination; the kernel owns semantics.

    Every plane may hold K instances (:mod:`repro.congest.engine.batched`;
    a solo run is the case K = 1), so per-node transitions consult only
    intra-instance data: ``plane.local_n_of`` / ``plane.local_ids``
    instead of global ids and the global ``plane.n``.  Planes may be
    *ragged* — instances of different sizes — so per-instance quantities
    (packed-key bases, round schedules) come from the per-node
    ``local_n_of`` array, never from a single scalar ``n``.  Instances
    need not enter the plane in lockstep: a kernel whose
    ``takeover_round`` exceeds 1 must implement :meth:`absorb_instance`
    (usually together with :attr:`prologue_oracle`), and the round loop
    executes each instance's scalar prologue against the shared global
    clock before absorbing its state into the plane at its own takeover
    round.
    """

    #: Filled in by :func:`register_kernel`.
    program_class: Type[NodeProgram]

    @classmethod
    def _blank(cls, plane: "CsrPlane") -> "VectorKernel":
        """Bare kernel shell for :meth:`stacked_setup` implementations.

        Bypasses ``__init__`` (there are no per-node program objects to
        read state from); every node starts live with no outputs, exactly
        the state after a setup phase that neither outputs nor halts.
        """
        self = cls.__new__(cls)
        self.plane = plane
        self.live = np.ones(plane.n, dtype=bool)
        self._outputs = {}
        return self

    #: Vectorized boot (optional, stacked runs only): subclasses may bind a
    #: classmethod ``stacked_setup(plane, inputs) -> (kernel, pending)``
    #: that replaces per-node program instantiation, scalar ``setup`` and
    #: handover collection with direct array initialization.  ``inputs`` is
    #: one optional ``{node: input}`` mapping per instance (local ids);
    #: implementations translate local to global ids through the plane's
    #: ragged offset tables (``plane.node_offsets[k]`` is instance ``k``'s
    #: first global node, ``plane.local_ns[k]`` its size — instances need
    #: not share one size).  The implementation must reproduce the scalar
    #: boot bit for bit: same initial state, same round-1 broadcast
    #: mask/columns/bits.  A ``None`` *attribute* means the round loop
    #: always boots through the scalar path; an implementation may also
    #: *return* ``None`` to decline one particular group (a kernel whose
    #: round-1 takeover is conditional on the inputs, e.g. lemma310's
    #: canonical gate), which sends that group through the scalar boot
    #: and the per-instance takeover machinery.
    stacked_setup = None

    #: Scalar-prologue actor oracle (optional): a classmethod
    #: ``prologue_oracle(network, programs) ->
    #: Callable[[int], Optional[np.ndarray]]`` mapping a *local* round
    #: number to the sorted array of local node ids whose ``receive`` can
    #: act that round (``None`` = every active node must run).  The round
    #: loop uses it to skip provably no-op ``receive`` calls while an
    #: instance is still in its scalar prologue; skipping a node must be
    #: observationally identical to delivering its (empty) inbox that
    #: round.  ``None`` disables the optimization.
    prologue_oracle = None

    @classmethod
    def stacked_blank(cls, plane: "CsrPlane") -> "VectorKernel":
        """Kernel shell for runs with per-instance takeover rounds.

        Like :meth:`_blank` but every node starts *dead*: instances light
        up their slice of the plane only when :meth:`absorb_instance`
        hands their scalar-prologue state over.  Subclasses with extra
        per-node state arrays override this to allocate them (zeroed) at
        full plane width.
        """
        kernel = cls._blank(plane)
        kernel.live = np.zeros(plane.n, dtype=bool)
        return kernel

    def absorb_instance(
        self,
        lo: int,
        hi: int,
        programs: Dict[int, NodeProgram],
        contexts: Dict[int, Context],
    ) -> None:
        """Load one instance's scalar state into plane slice ``[lo, hi)``.

        Called by the round loop at the instance's takeover round with
        that instance's per-node programs and contexts (*local* ids;
        global id = local id + ``lo``).  Implementations must set
        ``self.live[lo:hi]`` from the contexts' halted flags and fill
        every per-node state array exactly as ``__init__`` would for a
        lockstep plane.  The default refuses — kernels that always take
        over at round 1 never need it, and the batch runner treats the
        refusal as a signal to fall back per cell.
        """
        raise BatchEligibilityError(
            f"{type(self).__name__} cannot absorb a scalar prologue; "
            "kernels with takeover_round > 1 must implement absorb_instance"
        )

    def __init__(
        self,
        plane: CsrPlane,
        programs: Sequence[NodeProgram],
        contexts: Sequence[Context],
    ):
        """Lockstep boot: every instance of the plane takes over at round 1.

        ``programs`` / ``contexts`` hold every node of the plane, indexed
        by global id, as the scalar ``setup`` left them.
        """
        self.plane = plane
        self.live = np.fromiter(
            (not contexts[v]._halted for v in range(plane.n)),
            dtype=bool,
            count=plane.n,
        )
        self._outputs: Dict[int, Dict[str, object]] = {}

    @classmethod
    def eligible(
        cls, network: Network, programs: Dict[int, NodeProgram]
    ) -> bool:
        """Whether this run's inputs fit the vectorized implementation."""
        return True

    @classmethod
    def takeover_round(
        cls, network: Network, programs: Dict[int, NodeProgram]
    ) -> int:
        """First round to execute vectorized (rounds before it run scalar)."""
        return 1

    def output(self, node: int, key: str, value: object) -> None:
        """Record one node's local output (mirrors ``Context.output``)."""
        self._outputs.setdefault(node, {})[key] = value

    @abstractmethod
    def step(
        self, round_no: int, inbound: Optional[PendingBroadcast]
    ) -> Optional[PendingBroadcast]:
        """Execute one delivered round; return next round's sends."""


_KERNELS: Dict[Type[NodeProgram], Type[VectorKernel]] = {}


def register_kernel(program_cls: Type[NodeProgram]):
    """Class decorator: attach a kernel to a node-program class."""

    def decorate(kernel_cls: Type[VectorKernel]) -> Type[VectorKernel]:
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
        if kernel_cls is None or not kernel_cls.eligible(network, programs):
            return self._scalar.run(network, programs, contexts, max_rounds)
        # The round loop builds on this module, so it is imported here.
        from repro.congest.engine.batched import run_instance

        return run_instance(network, kernel_cls, programs, contexts, max_rounds)

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
