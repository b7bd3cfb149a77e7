"""Distributed execution of the Lemma 3.10 derandomization on the simulator.

This node program runs the color-class conditional-expectation loop as
actual CONGEST message passing on the graph itself (the ``B = B_G`` case
where every node hosts one value variable and one constraint over its
inclusive neighborhood):

* round 0 — every node broadcasts its ``(x, p)`` (transmittable numerators),
  so each node can instantiate the estimator for its own constraint;
* per color class ``i`` (3 rounds):
  announce — participating nodes of color ``i`` declare they are deciding;
  alphas — every neighbor ``u`` of a decider ``v`` sends
  ``(alpha_{u,0}, alpha_{u,1})``, its expected final value conditioned on
  ``v``'s coin (distance-2 coloring guarantees at most one deciding
  neighbor);
  decide — ``v`` picks the smaller sum, fixes its coin, and broadcasts the
  decision so neighbors update their estimator state;
* finally two rounds execute the rounding phases (value exchange,
  constraint check).

Each node keeps its constraint's estimator as a one-row
:class:`repro.derand.estimators.PessimisticEstimator`, the class the
centralized engine keeps over all rows, so the distributed run mirrors the
engine up to the paper's alpha quantization; tests compare the two end to
end.

On the ``vector`` engine, :class:`Lemma310ExecutionKernel` runs the whole
protocol in-plane from round 1 for the canonical uniform inputs the
registered ``lemma310`` spec produces; its ``eligible`` gate routes every
other input to ``fast``.
"""

from __future__ import annotations

import math
import weakref
from collections.abc import Iterator, Mapping
from typing import TYPE_CHECKING, Dict, Tuple

import numpy as np

from repro.congest.engine import (
    EngineSpec,
    MessageSpec,
    PendingBroadcast,
    PendingTargeted,
    VectorKernel,
    pending_parts,
    register_kernel,
)
from repro.congest.engine.vector import _MAX_EXACT_FIELD
from repro.congest.message import MESSAGE_HEADER_BITS, Message
from repro.congest.network import Network
from repro.congest.node import Context, NodeProgram
from repro.congest.simulator import SimulationResult, Simulator
from repro.derand.estimators import EstimatorConfig, PessimisticEstimator
from repro.errors import CongestError
from repro.util.transmittable import TransmittableGrid

if TYPE_CHECKING:
    import networkx as nx


class Lemma310Program(NodeProgram):
    """Input per node: dict with keys ``x_num``, ``p_num``, ``c_num``,
    ``color`` (-1 = not participating), ``num_colors``, ``iota``, ``mode``.

    Output per node: ``value`` (final grid numerator after phase two) and,
    for participants, ``coin`` (0/1).
    """

    #: The broadcast-shaped phases (value exchange, coin announcements and
    #: the execution rounds).  The color-class rounds additionally use
    #: ``announce`` broadcasts and targeted ``alpha`` sends, which ride on
    #: kernel-internal specs not listed here.  The vector kernel runs the
    #: *whole* protocol in-plane from round 1 for canonical uniform inputs
    #: (see :class:`Lemma310ExecutionKernel`).
    message_specs = (
        MessageSpec("xp", "x_num", "p_num"),
        MessageSpec("fixed", "coin"),
        MessageSpec("exec", "value"),
    )

    def __init__(self, input_value: object = None):
        super().__init__(input_value)
        spec = dict(input_value)  # type: ignore[arg-type]
        self.iota: int = spec["iota"]
        self.scale: int = 1 << self.iota
        self.x_num: int = spec["x_num"]
        self.p_num: int = spec["p_num"]
        self.c_num: int = spec["c_num"]
        self.color: int = spec["color"]
        self.num_colors: int = spec["num_colors"]
        self.mode: str = spec["mode"]
        #: neighbor id -> (x_num, p_num); filled in round 1
        self.nbr: Dict[int, Tuple[int, int]] = {}
        self.estimator: PessimisticEstimator | None = None
        #: node id (-1 for this node) -> its entry in the estimator's row
        self._entry: Dict[int, int] = {}
        self.coin: int | None = None
        self._final_x: int | None = None

    # -- local math ---------------------------------------------------------

    def _f(self, num: int) -> float:
        return num / self.scale

    def _participates(self, x_num: int, p_num: int) -> bool:
        return 0 < x_num and 0 < p_num < self.scale

    def _build_estimator(self) -> None:
        """One row over the neighbors as received, then this node (id -1
        locally); only variables with ``x > 0`` enter it."""
        entries = dict(self.nbr)
        entries[-1] = (self.x_num, self.p_num)
        held = [(u, x, p) for u, (x, p) in entries.items() if x > 0]
        self._entry = {u: i for i, (u, _, _) in enumerate(held)}
        self.estimator = PessimisticEstimator(
            indptr=np.array([0, len(held)]),
            members=np.arange(len(held)),
            c=np.array([self._f(self.c_num)]),
            x=np.array([self._f(x) for _, x, _ in held], dtype=float),
            p=np.array([self._f(p) for _, _, p in held], dtype=float),
            coin=np.array([self._participates(x, p) for _, x, p in held], dtype=bool),
            config=EstimatorConfig(mode=self.mode),
            cids=np.zeros(1, dtype=np.int64),
            ids=np.array(list(self._entry), dtype=np.int64),
        )

    def _involves(self, node_id: int) -> bool:
        """The coin of ``node_id`` is still free in this node's row."""
        entry = self._entry.get(node_id)
        return entry is not None and bool(self.estimator.free[entry])

    def _fix(self, node_id: int, success: bool) -> None:
        self.estimator.commit(np.array([self._entry[node_id]]), np.array([success]))

    def _own_success_value(self) -> float:
        return self._f(self.x_num) / self._f(self.p_num)

    def _alpha_pair(self, decider: int) -> Tuple[float, float]:
        """(alpha_{u,0}, alpha_{u,1}): this node's expected final value given
        the decider's coin outcome."""
        assert self.estimator is not None
        key = -1 if decider == -2 else decider
        # Expected own phase-one value.
        if self.coin is not None:
            ex = self._own_success_value() if self.coin else 0.0
            ex0 = ex1 = ex
        elif self._participates(self.x_num, self.p_num):
            ex0 = ex1 = self._f(self.x_num)  # p * (x/p)
        else:
            ex0 = ex1 = self._f(self.x_num)
        if key == -1:  # the decider is this node itself
            ex0, ex1 = 0.0, self._own_success_value()
        entry = self._entry[key]
        phi0, phi1 = self.estimator.phi_if(
            np.array([entry, entry]), np.array([False, True])
        ).tolist()
        return ex0 + phi0, ex1 + phi1

    # -- protocol ------------------------------------------------------------

    def setup(self, ctx: Context) -> None:
        ctx.broadcast(Message("xp", self.x_num, self.p_num))

    def receive(self, ctx: Context, inbox: Dict[int, Message]) -> None:
        round_no = ctx.round_number
        if round_no == 1:
            for sender, msg in inbox.items():
                if msg.tag != "xp":
                    raise CongestError(f"unexpected {msg.tag} in exchange round")
                self.nbr[sender] = (msg.fields[0], msg.fields[1])
            self._build_estimator()
            self._maybe_announce(ctx, class_index=0)
            return

        # Rounds are grouped in threes per color class, offset by the
        # exchange round: class i occupies rounds 2+3i .. 4+3i.
        class_index = (round_no - 2) // 3
        step = (round_no - 2) % 3

        if class_index >= self.num_colors:
            self._execute_phases(ctx, inbox, round_no)
            return

        if step == 0:
            # "announce" messages arrive; neighbors of a decider quote alphas.
            deciders = [s for s, m in inbox.items() if m.tag == "announce"]
            if len(deciders) > 1:
                raise CongestError(
                    f"node {ctx.node} saw {len(deciders)} simultaneous "
                    "deciders; the coloring is not distance-2"
                )
            if deciders:
                v = deciders[0]
                a0, a1 = self._alpha_pair(v)
                ctx.send(
                    v,
                    Message(
                        "alpha",
                        min(self.scale * 4, round(a0 * self.scale)),
                        min(self.scale * 4, round(a1 * self.scale)),
                    ),
                )
        elif step == 1:
            # Deciders collect alphas and decide.
            if self.color == class_index and self.coin is None and \
                    self._participates(self.x_num, self.p_num):
                total0 = total1 = 0
                for msg in inbox.values():
                    if msg.tag == "alpha":
                        total0 += msg.fields[0]
                        total1 += msg.fields[1]
                own0, own1 = self._alpha_pair(-2)
                total0 += round(own0 * self.scale)
                total1 += round(own1 * self.scale)
                self.coin = 1 if total1 < total0 else 0
                ctx.broadcast(Message("fixed", self.coin))
                self._fix(-1, bool(self.coin))
        else:
            # Neighbors fold the decision into their estimators; the next
            # class announces.
            for sender, msg in inbox.items():
                if msg.tag == "fixed" and self._involves(sender):
                    self._fix(sender, bool(msg.fields[0]))
            self._maybe_announce(ctx, class_index + 1)

    def _maybe_announce(self, ctx: Context, class_index: int) -> None:
        if class_index >= self.num_colors:
            # Move straight to execution: broadcast the phase-one value.
            self._broadcast_final_x(ctx)
            return
        if (
            self.color == class_index
            and self.coin is None
            and self._participates(self.x_num, self.p_num)
        ):
            ctx.broadcast(Message("announce"))

    def _phase_one_value_num(self) -> int:
        if self.x_num <= 0:
            return 0
        if not self._participates(self.x_num, self.p_num):
            return self.x_num
        if self.coin is None:
            raise CongestError("participating node reached execution undecided")
        if not self.coin:
            return 0
        return min(self.scale, round(self._own_success_value() * self.scale))

    def _broadcast_final_x(self, ctx: Context) -> None:
        if self._final_x is None:
            self._final_x = self._phase_one_value_num()
            ctx.broadcast(Message("exec", self._final_x))

    def _execute_phases(self, ctx: Context, inbox: Dict[int, Message], round_no: int) -> None:
        self._broadcast_final_x(ctx)
        exec_msgs = {s: m for s, m in inbox.items() if m.tag == "exec"}
        if len(exec_msgs) == ctx.degree:
            covered = (self._final_x or 0) + sum(
                m.fields[0] for m in exec_msgs.values()
            )
            final = self.scale if covered < self.c_num else (self._final_x or 0)
            ctx.output("value", final)
            if self.coin is not None:
                ctx.output("coin", self.coin)
            ctx.halt()


#: Kernel-internal wire specs for the color-class rounds.  ``announce``
#: is a field-less broadcast (header bits only); ``alpha`` is a targeted
#: two-field quote.  Neither is a broadcast-shaped phase, so neither is
#: part of :attr:`Lemma310Program.message_specs`.
_ANNOUNCE_SPEC = MessageSpec("announce")
_ALPHA_SPEC = MessageSpec("alpha", "alpha0", "alpha1")
_XP_SPEC, _FIXED_SPEC, _EXEC_SPEC = Lemma310Program.message_specs

#: Element-wise ``math.exp`` — NOT ``np.exp``.  The node program's estimator
#: calls libm's ``exp`` per node and its exact float results are part of the
#: observable contract (alpha quotes round to wire integers); numpy's
#: vectorized exp may differ by an ULP, which is enough to flip a
#: rounded quote.  ``frompyfunc`` applies the very same libm call
#: element-wise; it only ever runs on the few quoting slots of a class
#: round, so the python-level dispatch cost is noise.
_VEC_EXP = np.frompyfunc(math.exp, 1, 1)


def _exp_exact(values: np.ndarray) -> np.ndarray:
    return _VEC_EXP(values).astype(np.float64)


@register_kernel(Lemma310Program)
class Lemma310ExecutionKernel(VectorKernel):
    """Vectorized Lemma 3.10 loop for the canonical uniform workload.

    :meth:`eligible` admits the **canonical uniform inputs** — every node
    participating with the same ``x = p`` on one grid of scale below
    ``2**51``, ``c = 1``, mode ``auto``, a color in ``[0, num_colors)``
    and max degree + 1 below 512 — and the kernel takes over at round 1
    and runs the color-class conditional-expectation rounds themselves
    inside the plane: announce broadcasts, targeted alpha quotes
    (:class:`PendingTargeted`), decide/fix, and estimator folds, all as
    flat array updates.  Under
    these inputs every coin weight is exactly ``1.0`` and the estimator
    resolves to exact-product mode, so its float operation *sequence*
    collapses to IEEE-identical array arithmetic: the log-product starts
    as a left-fold of equal ``log1p(-p)`` terms (replayed via a
    partial-sum table), updates are single subtractions, and ``phi``
    bounds call libm's ``exp`` per element (see :data:`_VEC_EXP`).
    Results stay bit-for-bit equal to the scalar engines.

    Other inputs never reach the plane: a solo ``vector`` run executes on
    ``fast``, and a stacked group containing one raises
    :class:`~repro.errors.BatchEligibilityError`, so the batch runner
    reruns its cells one by one.
    """

    @classmethod
    def eligible(cls, network, inputs) -> bool:
        """The canonical gate: can the whole protocol run in-plane?

        It pins down exactly the regime where the scalar float sequence is
        replayable as array math: every node participates with the
        *same* ``x_num == p_num`` (uniformity makes every coin weight
        exactly ``1.0``, resolves ``mode='auto'`` to exact-product, and —
        critically — makes every free coin contribute the same
        ``log1p(-p)`` term, so the initial log-product is a function of
        degree alone), ``c_num == scale`` (``c == 1.0``, making
        ``satisfied`` an integer count), a color in ``[0, num_colors)``
        on a uniform grid whose alpha quotes (at most ``4 * scale``) stay
        below the plane's exact field range, and degrees small enough
        that the estimator's 512-update refresh never fires (the
        vectorized log-product replays the scalar *subtraction* sequence,
        not the refresh recompute; a node commits at most ``degree + 1``
        coins).  :class:`CanonicalInputs` are checked in O(1) plus two
        range checks on their colors; a plain mapping is walked node by
        node (:func:`_canonical_columns`).
        """
        if network.max_degree + 1 >= 512:
            return False
        return _canonical_columns(network.n, inputs) is not None

    @classmethod
    def stacked_setup(cls, plane, inputs):
        """Vectorized boot straight from the canonical inputs.

        The protocol state and the setup round's ``xp`` broadcast, bit
        for bit, without O(total nodes) program/context construction and
        scalar ``setup`` calls: every connected node broadcasts
        ``Message("xp", x_num, x_num)`` (a degree-0 node's broadcast
        queues no message, so the mask leaves it out).
        """
        kernel = cls(plane)
        sizes = plane.local_ns.tolist()
        columns = [
            _canonical_columns(n_k, mapping) for mapping, n_k in zip(inputs, sizes)
        ]
        params = [(num_colors, scale, x_num) for _, num_colors, scale, x_num in columns]
        kernel._boot(np.concatenate([colors for colors, *_ in columns]), params)
        x_col = np.repeat([x_num for _, _, x_num in params], sizes)
        pending = PendingBroadcast(
            _XP_SPEC,
            plane.degrees > 0,
            (x_col, x_col),
            _XP_SPEC.bits_array((x_col, x_col)),
        )
        return kernel, pending

    def _boot(self, colors: np.ndarray, params) -> None:
        """Per-node protocol state at round 1, from canonical inputs.

        ``colors`` is every node's color in plane order; ``params`` holds
        each instance's ``(num_colors, scale, x_num)``.  Replays the
        node program's estimator constructor exactly: each node's initial
        ``log_prod`` is a *left-fold* of ``degree + 1`` equal
        ``log1p(-p)`` terms, reproduced by indexing a partial-sum table
        built with the same sequential additions (``np.cumsum`` pairwise
        summation would NOT match the scalar fold bit-for-bit).
        """
        plane = self.plane
        n = plane.n
        self.color = colors
        self.coin = np.full(n, -1, dtype=np.int64)
        #: the phase-one value each node broadcasts in its execution round
        self.final_x = np.zeros(n, dtype=np.int64)
        self.num_colors = np.empty(n, dtype=np.int64)
        #: the grid denominator, and ``c_num`` too (the gate pins ``c = 1``)
        self.scale = np.empty(n, dtype=np.int64)
        #: exact per-instance ``log1p(-p)`` coin factor
        self.t = np.empty(n, dtype=np.float64)
        #: ``f(x_num)`` — the undecided neighbor's expected phase-one value
        self.x_f = np.empty(n, dtype=np.float64)
        #: the estimator's ``log_prod`` over still-free coins
        self.log_prod = np.empty(n, dtype=np.float64)
        #: integer count of successfully-fixed coins; under the gate the
        #: estimator's ``fixed`` sum is exactly ``1.0 * fixed_success``, so the
        #: ``satisfied`` test is the exact integer comparison ``>= 1``
        self.fixed_success = np.zeros(n, dtype=np.int64)
        offsets = plane.node_offsets.tolist()
        for k, (num_colors, scale, x_num) in enumerate(params):
            lo, hi = offsets[k], offsets[k + 1]
            p_f = x_num / scale
            t = math.log1p(-p_f)
            degrees = plane.degrees[lo:hi]
            partial = [0.0]
            for _ in range(int(degrees.max()) + 1):
                partial.append(partial[-1] + t)
            self.num_colors[lo:hi] = num_colors
            self.scale[lo:hi] = scale
            self.t[lo:hi] = t
            self.x_f[lo:hi] = p_f
            self.log_prod[lo:hi] = np.asarray(partial)[degrees + 1]
        self.scale_f = self.scale.astype(np.float64)

    # -- in-plane color-class rounds ------------------------------------------

    def step(self, round_no: int, inbound):
        parts = {
            part.spec.tag: part for part in pending_parts(inbound)
        }
        outbound: list = []
        live = self.live
        if round_no == 1:
            # Exchange round: estimator state was precomputed at boot
            # (uniform inputs make the xp payloads known); class 0's
            # deciders announce.
            self._emit_announce(live, 0, outbound)
        else:
            class_index, phase = divmod(round_no - 2, 3)
            in_class = live & (self.num_colors > class_index)
            if phase == 0 and in_class.any():
                self._alpha_round(class_index, live, outbound)
            elif phase == 1 and in_class.any():
                self._decide_round(class_index, in_class, parts, outbound)
            elif phase == 2:
                if in_class.any():
                    self._fold_round(class_index, live)
                    self._emit_announce(live, class_index + 1, outbound)
                # Instances whose last class just closed broadcast the
                # phase-one value (the scalar ``_maybe_announce`` at
                # ``class_index == num_colors``).
                entering = live & (self.num_colors == class_index + 1)
                if entering.any():
                    self._emit_exec(entering, outbound)
        self._finish_execution(round_no, parts.get("exec"))
        if not outbound:
            return None
        return outbound[0] if len(outbound) == 1 else tuple(outbound)

    def _emit_announce(self, acting, class_index, outbound) -> None:
        mask = acting & (self.color == class_index)
        if not mask.any():
            return
        bits = np.where(mask, MESSAGE_HEADER_BITS, 0).astype(np.int64)
        outbound.append(PendingBroadcast(_ANNOUNCE_SPEC, mask, (), bits))

    def _alpha_round(self, class_index, acting, outbound) -> None:
        """Deliver announces: every neighbor of a decider quotes alphas.

        The scalar path raises on any node that hears two simultaneous
        announces; decider sets are state-derived here, so the same check
        counts each node's appearances in the deciders' rows.
        """
        plane = self.plane
        deciders = np.flatnonzero(acting & (self.color == class_index))
        if deciders.size == 0:
            return
        # The slots of decider rows each carry one alpha quote (sender =
        # the slot's peer), listed in ascending slot order.
        slots = plane.row_slots(deciders)
        quoting = plane.indices[slots]
        decider_neighbors = np.bincount(quoting, minlength=plane.n)
        bad = acting & (decider_neighbors > 1)
        if bad.any():
            node = int(np.flatnonzero(bad)[0])
            raise CongestError(
                f"node {int(plane.local_ids[node])} saw "
                f"{int(decider_neighbors[node])} simultaneous "
                "deciders; the coloring is not distance-2"
            )
        if slots.size == 0:
            return
        coin = self.coin[quoting]
        # Expected own phase-one value: f(x) while undecided (p * x/p),
        # else the committed outcome (own_success is exactly 1.0 here).
        expected = np.where(coin < 0, self.x_f[quoting], coin.astype(np.float64))
        phi0 = np.where(
            self.fixed_success[quoting] > 0,
            0.0,
            _exp_exact(
                np.minimum(0.0, self.log_prod[quoting] - self.t[quoting])
            ),
        )
        scale_f = self.scale_f[quoting]
        cap = self.scale[quoting] * 4
        wire0 = np.minimum(cap, np.rint((expected + phi0) * scale_f).astype(np.int64))
        wire1 = np.minimum(cap, np.rint(expected * scale_f).astype(np.int64))
        wires = (wire0, wire1)
        outbound.append(
            PendingTargeted(_ALPHA_SPEC, slots, wires, _ALPHA_SPEC.bits_array(wires))
        )

    def _decide_round(self, class_index, in_class, parts, outbound) -> None:
        """Deciders sum the quoted alphas plus their own pair and commit."""
        plane = self.plane
        deciders_mask = in_class & (self.color == class_index)
        deciders = np.flatnonzero(deciders_mask)
        if deciders.size == 0:
            return
        alpha = parts.get("alpha")
        if alpha is not None:
            # The alpha round quoted on exactly these deciders' slots: it is
            # the same class, and no node finishes in between.
            sum0, sum1 = _segment_sums(
                np.stack(alpha.columns), plane.degrees[deciders]
            )
        else:
            sum0 = sum1 = np.zeros(deciders.size, dtype=np.int64)
        # Own pair: (phi_if(own, fail), own_success + 0.0) — the success
        # branch covers c exactly, so alpha_1 is exactly scale.
        own_phi0 = np.where(
            self.fixed_success[deciders] > 0,
            0.0,
            _exp_exact(
                np.minimum(0.0, self.log_prod[deciders] - self.t[deciders])
            ),
        )
        total0 = sum0 + np.rint(own_phi0 * self.scale_f[deciders]).astype(np.int64)
        total1 = sum1 + self.scale[deciders]
        coin = np.where(total1 < total0, 1, 0).astype(np.int64)
        self.coin[deciders] = coin
        # The node program's own commit: its factor leaves the free set.
        self.fixed_success[deciders] += coin
        self.log_prod[deciders] -= self.t[deciders]
        n = plane.n
        column = np.zeros(n, dtype=np.int64)
        column[deciders] = coin
        bits = _FIXED_SPEC.bits_array((column,))
        outbound.append(
            PendingBroadcast(_FIXED_SPEC, deciders_mask, (column,), bits)
        )

    def _fold_round(self, class_index, acting) -> None:
        """Neighbors fold the delivered decisions into estimator state.

        The receivers are the decider rows' peers: live, since an instance
        finishes all at once, and distinct, since the alpha round raised
        for a node with two decider neighbors.
        """
        plane = self.plane
        deciders = np.flatnonzero(acting & (self.color == class_index))
        if deciders.size == 0:
            return
        receivers = plane.indices[plane.row_slots(deciders)]
        decided = np.repeat(self.coin[deciders], plane.degrees[deciders])
        np.add.at(self.fixed_success, receivers, decided)
        self.log_prod[receivers] -= self.t[receivers]

    def _emit_exec(self, entering, outbound) -> None:
        """The scalar ``_broadcast_final_x``: commit and announce the
        phase-one value (``own_success`` is exactly 1.0, so a success coin
        contributes exactly ``scale``)."""
        phase_one = np.where(self.coin > 0, self.scale, 0)
        self.final_x = np.where(entering, phase_one, self.final_x)
        column = np.where(entering, self.final_x, 0)
        bits = _EXEC_SPEC.bits_array((column,))
        outbound.append(PendingBroadcast(_EXEC_SPEC, entering, (column,), bits))

    def _finish_execution(self, round_no: int, exec_part) -> None:
        """Finish the nodes in their execution phase that heard their
        whole neighborhood's phase-one value in this round.

        Every node of an instance, isolated ones included, broadcasts
        ``exec`` in the round its instance's last class closes and
        finishes when that broadcast is delivered, so a round without
        ``exec`` traffic finishes no node.
        """
        if exec_part is None:
            return
        plane = self.plane
        senders = np.flatnonzero(exec_part.mask)
        receivers = plane.indices[plane.row_slots(senders)]
        heard = np.bincount(receivers, minlength=plane.n)
        received = np.zeros(plane.n, dtype=np.int64)
        values = np.repeat(self.final_x[senders], plane.degrees[senders])
        np.add.at(received, receivers, values)
        finishing = (
            self.live
            & (heard == plane.degrees)
            & (self.num_colors <= (round_no - 2) // 3)
        )
        if finishing.any():
            covered = self.final_x + received
            final = np.where(covered < self.scale, self.scale, self.final_x)
            nodes = np.flatnonzero(finishing)
            self.output(nodes, "value", final[nodes])
            decided = nodes[self.coin[nodes] >= 0]
            self.output(decided, "coin", self.coin[decided])
            self.live &= ~finishing


def _segment_sums(values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Exact int64 sums of consecutive segments of the given lengths.

    The last axis of ``values`` is the concatenation of the segments; an
    empty segment sums to 0 (``reduceat`` alone would read the next
    segment's first value for it).
    """
    out = np.zeros(values.shape[:-1] + lengths.shape, dtype=np.int64)
    nonempty = lengths > 0
    if nonempty.any():
        starts = (np.cumsum(lengths) - lengths)[nonempty]
        out[..., nonempty] = np.add.reduceat(values, starts, axis=-1)
    return out


class CanonicalInputs(Mapping):
    """The canonical workload's per-node inputs, held as columns.

    One int64 color per node plus the instance's grid exponent ``iota``
    and color count; every node has ``x = p = 1/2``, ``c = 1`` and mode
    ``auto``.  Read as a mapping it is read-only and yields the same
    7-key dict per node as a plain per-node mapping, built on access, so
    ``dict(...)``, :class:`Simulator` and per-cell runs see no
    difference.  The kernel's gate and boot read the columns instead.
    """

    __slots__ = ("colors", "iota", "num_colors", "x_num", "c_num")

    def __init__(self, colors: np.ndarray, iota: int, num_colors: int):
        self.colors = np.array(colors, dtype=np.int64)
        self.colors.flags.writeable = False
        self.iota = iota
        self.num_colors = num_colors
        grid = TransmittableGrid(iota=iota)
        self.x_num = grid.to_int(0.5)
        self.c_num = grid.to_int(1.0)

    def __getitem__(self, node) -> Dict[str, object]:
        if not (isinstance(node, (int, np.integer)) and 0 <= node < len(self)):
            raise KeyError(node)
        return {
            "iota": self.iota,
            "x_num": self.x_num,
            "p_num": self.x_num,
            "c_num": self.c_num,
            "color": int(self.colors[node]),
            "num_colors": self.num_colors,
            "mode": "auto",
        }

    def __iter__(self) -> Iterator[int]:
        return iter(range(len(self)))

    def __len__(self) -> int:
        return self.colors.shape[0]


def _canonical_columns(n: int, inputs: Mapping[int, object]):
    """``(colors, num_colors, scale, x_num)`` of canonical uniform inputs
    for nodes ``0 .. n - 1``, or ``None`` when they are not canonical.

    Node 0's fields fix the grid, the color count and the shared ``x``.
    :class:`CanonicalInputs` give their color column as it is; a plain
    per-node mapping is walked node by node (the one place per-node input
    dicts are read), each node's fields compared with node 0's.  The
    kernel's gate and boot share this.
    """
    try:
        first = inputs[0]
        iota, num_colors, x_num = first["iota"], first["num_colors"], first["x_num"]
        scale = 1 << iota
        # Alpha quotes reach 4 * scale on the wire.
        if num_colors < 1 or not 0 < x_num < scale < _MAX_EXACT_FIELD // 4:
            return None
        if isinstance(inputs, CanonicalInputs):
            colors = inputs.colors if len(inputs) == n else None
        else:
            listed = []
            for v in range(n):
                spec = inputs[v]
                if not (
                    spec["iota"] == iota
                    and spec["num_colors"] == num_colors
                    and spec["mode"] == "auto"
                    and spec["x_num"] == x_num
                    and spec["p_num"] == x_num
                    and spec["c_num"] == scale
                ):
                    return None
                listed.append(spec["color"])
            colors = np.array(listed)
    except (KeyError, TypeError, ValueError):
        return None
    if (
        colors is None
        or colors.dtype.kind not in "biu"
        or colors.min() < 0
        or colors.max() >= num_colors
    ):
        return None
    return colors.astype(np.int64, copy=False), num_colors, scale, x_num


def run_lemma310_on_graph(
    graph: nx.Graph | None,
    values: Mapping[int, float],
    p: Mapping[int, float],
    colors: Mapping[int, int],
    mode: str = "auto",
    grid: TransmittableGrid | None = None,
    network: Network | None = None,
    engine: EngineSpec = None,
) -> Tuple[Dict[int, float], Dict[int, int], SimulationResult]:
    """Run the distributed Lemma 3.10 loop for the graph instance ``B_G``.

    ``colors`` must be a distance-2 coloring of the participating nodes
    (0-based).  Returns (final values, coins, simulation metrics).
    ``graph`` may be ``None`` when ``network`` is given (e.g. a
    shared-memory CSR reconstruction).
    """
    network = network or Network.congest(graph)
    n = network.n
    grid = grid or TransmittableGrid.for_n(n)
    num_colors = (max(colors.values()) + 1) if colors else 0
    inputs = {}
    for v in graph.nodes() if graph is not None else range(n):
        inputs[v] = {
            "iota": grid.iota,
            "x_num": grid.to_int(values.get(v, 0.0)),
            "p_num": grid.to_int(p.get(v, 1.0)),
            "c_num": grid.to_int(1.0),
            "color": colors.get(v, -1),
            "num_colors": num_colors,
            "mode": mode,
        }
    sim = Simulator(network, Lemma310Program, inputs=inputs, engine=engine)
    result = sim.run(max_rounds=3 * num_colors + 12)
    final_values = {
        v: grid.from_int(num) for v, num in result.output_map("value").items()
    }
    coins = {v: c for v, c in result.output_map("coin").items()}
    return final_values, coins, result


# -- experiment-surface registration ------------------------------------------

from repro.api.registry import ProgramSpec, register_program  # noqa: E402


def _drive(network: Network, engine: str) -> SimulationResult:
    """Canonical Lemma 3.10 workload: every node a fair coin, ``c = 1``.

    ``x(v) = p(v) = 1/2`` makes every node a participating variable, and a
    distance-2 coloring is derived from the topology itself (straight from
    the network's CSR arrays), so the whole derandomization loop — exchange,
    per-color conditional-expectation rounds, execution phases — runs with
    inputs fully determined by the cell.
    """
    from repro.coloring.distance2 import distance2_coloring

    coloring = distance2_coloring(network)
    n = network.n
    values = {v: 0.5 for v in range(n)}
    p = {v: 0.5 for v in range(n)}
    _vals, _coins, sim = run_lemma310_on_graph(
        None, values, p, coloring.colors, network=network, engine=engine
    )
    return sim


def _summary(sim: SimulationResult) -> Dict[str, object]:
    scale = 1 << TransmittableGrid.for_n(len(sim.outputs)).iota
    values = sim.output_map("value")
    return {
        "joined": sum(1 for num in values.values() if num == scale),
        "decided": len(sim.output_map("coin")),
    }


#: Canonical-workload colorings, memoized per live network.  The batch
#: hooks (`_batch_inputs`, `_batch_num_colors` via `_batch_max_rounds`)
#: all need the same distance-2 coloring of the same topology, and the
#: runner calls them back to back while holding the network — the memo
#: colors each instance once instead of twice.  Weak keys keep retired
#: networks collectable.
_COLORING_MEMO: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _canonical_coloring(network: Network):
    try:
        return _COLORING_MEMO[network]
    except (KeyError, TypeError):
        pass
    from repro.coloring.distance2 import distance2_coloring

    coloring = distance2_coloring(network)
    try:
        _COLORING_MEMO[network] = coloring
    except TypeError:
        pass
    return coloring


def _batch_num_colors(network: Network) -> int:
    """Color count of the canonical workload's distance-2 coloring."""
    coloring = _canonical_coloring(network)
    return (max(coloring.colors.values()) + 1) if coloring.colors else 0


def _batch_inputs(network: Network) -> CanonicalInputs:
    """Per-node inputs reproducing :func:`_drive` bit for bit, as columns.

    The coloring lists every node in ascending order, so its values are
    the color column.
    """
    colors = _canonical_coloring(network).colors
    column = np.fromiter(colors.values(), dtype=np.int64, count=network.n)
    num_colors = int(column.max()) + 1 if column.size else 0
    return CanonicalInputs(
        column, TransmittableGrid.for_n(network.n).iota, num_colors
    )


def _batch_max_rounds(network: Network) -> int:
    """:func:`run_lemma310_on_graph`'s ``3 * num_colors + 12`` limit."""
    return 3 * _batch_num_colors(network) + 12


register_program(
    ProgramSpec(
        name="lemma310",
        description="Lemma 3.10 color-class conditional-expectation loop",
        program=Lemma310Program,
        drive=_drive,
        summarize=_summary,
        # Batch recipe: the canonical inputs clear the kernel's gate, so a
        # group boots through stacked_setup and runs in-plane from round 1.
        batch_factory=Lemma310Program,
        batch_inputs=_batch_inputs,
        batch_max_rounds=_batch_max_rounds,
    )
)
