"""The conditional-expectation engine.

Given a rounding scheme and a *schedule* — an ordered list of batches of
participating variables such that no two variables in the same batch share a
constraint — the engine fixes each batch's coins simultaneously (against a
snapshot of the state before the batch), choosing for every variable the
outcome that minimizes the objective estimate

``U(theta) = sum_u w(u) E[X_u | theta] + sum_v jw(v) phi_v(theta)``.

Batch-disjointness is exactly what the paper's distance-2 colorings
(Lemma 3.10) and 2-separated same-color clusters (Lemma 3.4) provide; the
engine validates it and raises otherwise.  Because each variable's choice
minimizes its own additive slice of ``U`` and slices within a batch touch
disjoint constraints, ``U`` is non-increasing across batches — the
supermartingale invariant, checked after every batch.

The final objective value upper-bounds the realized per-copy solution size,
so the deterministic output inherits the randomized process's expectation
bound (Lemmas 3.8/3.9/3.13/3.14).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.derand.estimators import (
    REFRESH_EVERY,
    T_SEARCH_HI,
    EstimatorConfig,
    chernoff_t,
)
from repro.domsets.covering import ltr_sum, row_sums
from repro.errors import DerandomizationError
from repro.rounding.abstract import (
    RoundingOutcome,
    RoundingScheme,
    execute_rounding,
    uncovered_probability,
)
from repro.rounding.coins import fixed_coins

#: Tolerance for the non-increase check on the objective estimate.  The
#: incremental log-product updates drift by O(machine eps) per update.
_MONOTONE_TOL = 1e-7


@dataclass
class DerandResult:
    """Deterministic rounding outcome plus the estimator trajectory."""

    outcome: RoundingOutcome
    decisions: Dict[int, bool]
    initial_estimate: float
    final_estimate: float
    trajectory: List[float] = field(default_factory=list)
    batches: int = 0

    @property
    def realized_size(self) -> float:
        """Per-copy accounted size of the deterministic output."""
        return self.outcome.accounted_size


_PRODUCT, _CHERNOFF, _ENUM = 0, 1, 2


class ConditionalExpectationEngine:
    """Runs the method of conditional expectations over a schedule.

    The constraint estimators of :mod:`repro.derand.estimators` are kept as
    arrays over the instance's constraint rows (fixed sum, log-product of
    the free coins' factors, Chernoff ``t``, current ``phi``); every member
    entry carries its coin's log factor and whether the coin is still free.
    Sums run left to right in member order and logs and exponentials go
    through :mod:`math`, so every float is the one
    :class:`~repro.derand.estimators.ConstraintEstimator` computes.
    """

    def __init__(self, scheme: RoundingScheme, config: EstimatorConfig | None = None):
        self.scheme = scheme
        self.config = config or EstimatorConfig()
        inst = scheme.instance
        x, p = inst.x, scheme.probabilities
        rows, members = inst.entry_rows, inst.members

        #: per variable: a free coin, its success value x/p, E[X_u | theta]
        self._coin = (x > 0.0) & (p < 1.0)
        self._w = np.where(self._coin, x / p, 0.0)
        self._ex = np.where(x > 0.0, x, 0.0)
        self._decided = np.zeros(len(x), dtype=bool)
        self.decisions: Dict[int, bool] = {}

        #: per member entry: the coin is still free
        self._free = self._coin[members]
        self._fixed = inst.member_sums(np.where((x > 0.0) & (p >= 1.0), x, 0.0))
        self._mode = self._modes(rows)
        #: per member entry: the log factor of its coin under the row's mode
        self._factor = np.zeros(len(members))
        log_q = np.zeros(len(x))
        log_q[self._coin] = [math.log1p(-q) for q in p[self._coin].tolist()]
        product = self._free & (self._mode[rows] == _PRODUCT)
        self._factor[product] = log_q[members[product]]
        self._t = np.zeros(len(inst.cids))
        for row in np.flatnonzero(self._mode == _CHERNOFF).tolist():
            entries, coins = self._free_coins(row)
            t = self._t[row] = chernoff_t(
                float(inst.c[row] - self._fixed[row]), coins, T_SEARCH_HI
            )
            self._factor[entries] = [
                math.log(q * math.exp(-t * w) + (1.0 - q)) for w, q in coins
            ]
        self._log_prod = row_sums(inst.indptr, self._factor)
        self._updates = np.zeros(len(inst.cids), dtype=np.int64)
        self._phi = self._phis(np.arange(len(inst.cids)))

    def _modes(self, rows: np.ndarray) -> np.ndarray:
        """Estimator mode of every constraint row (``auto`` resolved)."""
        inst = self.scheme.instance
        mode, count = self.config.mode, len(inst.cids)
        if mode == "chernoff":
            return np.full(count, _CHERNOFF)
        if mode == "exact-enum":
            coins = np.bincount(rows[self._free], minlength=count)
            over = np.flatnonzero(coins > self.config.enum_limit)
            if over.size:
                row = int(over[0])
                raise DerandomizationError(
                    f"constraint {int(inst.cids[row])}: {int(coins[row])} free coins "
                    f"exceed the enumeration limit {self.config.enum_limit}"
                )
            return np.full(count, _ENUM)
        short = self._free & (self._w[inst.members] < (inst.c - 1e-12)[rows])
        uncovered = np.bincount(rows[short], minlength=count) > 0
        if mode == "exact-product" and uncovered.any():
            row = int(np.flatnonzero(uncovered)[0])
            bad = inst.ids[inst.members[short & (rows == row)]][:5].tolist()
            raise DerandomizationError(
                f"constraint {int(inst.cids[row])}: exact-product mode requires every "
                f"free success to cover c={float(inst.c[row])}; offending coins {bad}"
            )
        return np.where(uncovered, _CHERNOFF, _PRODUCT)

    def _free_coins(self, row: int, skip: int = -1) -> Tuple[np.ndarray, List[tuple]]:
        """Member entries of ``row`` with a free coin (``skip`` aside), and
        their coins ``(w, p)``."""
        inst = self.scheme.instance
        lo, hi = inst.indptr[row], inst.indptr[row + 1]
        entries = lo + np.flatnonzero(self._free[lo:hi])
        entries = entries[entries != skip]
        owners = inst.members[entries]
        coins = list(zip(self._w[owners].tolist(),
                         self.scheme.probabilities[owners].tolist()))
        return entries, coins

    # -- objective ------------------------------------------------------------

    def _bound(
        self, rows: np.ndarray, fixed: np.ndarray, log: np.ndarray,
        fixing: np.ndarray | None = None,
    ) -> np.ndarray:
        """``phi`` of constraint ``rows`` at fixed sums ``fixed`` and
        log-products ``log``; with ``fixing`` (one member entry per row), the
        bound once that coin is fixed (``phi_if``)."""
        c = self.scheme.instance.c[rows]
        live = ~(fixed >= c - 1e-12)
        mode = self._mode[rows]
        out = np.zeros(len(rows))
        pick = np.flatnonzero(live & (mode == _PRODUCT))
        if fixing is None:
            out[pick] = [math.exp(v) for v in log[pick].tolist()]
        else:
            out[pick] = [math.exp(min(0.0, v)) for v in log[pick].tolist()]
        pick = np.flatnonzero(live & (mode == _CHERNOFF))
        exponent = self._t[rows[pick]] * (c[pick] - fixed[pick]) + log[pick]
        out[pick] = [min(1.0, math.exp(min(e, 50.0))) for e in exponent.tolist()]
        for i in np.flatnonzero(live & (mode == _ENUM)).tolist():
            skip = -1 if fixing is None else int(fixing[i])
            coins = self._free_coins(int(rows[i]), skip)[1]
            out[i] = uncovered_probability(float(c[i]), float(fixed[i]), coins)
        return out

    def _phis(self, rows: np.ndarray) -> np.ndarray:
        return self._bound(rows, self._fixed[rows], self._log_prod[rows])

    def phi(self) -> np.ndarray:
        """Current ``phi_v(theta)`` of every constraint row."""
        return self._phi.copy()

    def objective(self) -> float:
        """Current value of the estimate ``U(theta)``."""
        inst = self.scheme.instance
        return ltr_sum(np.concatenate(
            (inst.weight * self._ex, inst.join_weight * self._phi)
        ))

    def _choose(
        self, pos: np.ndarray, entries: np.ndarray, rows: np.ndarray, owner: np.ndarray
    ) -> np.ndarray:
        """Each batch variable's coin: success iff it scores lower.  A score
        adds, left to right, the terms of ``U`` that depend on the coin:
        ``w(u) x/p`` on success, then ``jw * phi_if`` of each constraint."""
        inst = self.scheme.instance
        w = self._w[pos]
        fixed = self._fixed[rows]
        log_rest = self._log_prod[rows] - self._factor[entries]
        jw = inst.join_weight[rows]
        ptr = np.concatenate(([0], np.cumsum(np.bincount(owner, minlength=len(pos)))))
        lead = ptr[:-1] + np.arange(len(pos))
        succ = np.empty(len(pos) + len(rows))
        succ[lead] = inst.weight[pos] * w
        body = np.ones(len(succ), dtype=bool)
        body[lead] = False
        succ[body] = jw * self._bound(rows, fixed + w[owner], log_rest, entries)
        fail = jw * self._bound(rows, fixed, log_rest, entries)
        return row_sums(ptr + np.arange(len(pos) + 1), succ) < row_sums(ptr, fail)

    # -- schedule validation ----------------------------------------------------

    def _validate_batch(self, batch: Sequence[int]) -> tuple:
        """Variable rows of ``batch`` and their ``(entries, rows, owner)``
        incidences.  Raises for the first variable, in batch order, that has
        no free coin, was decided before, or shares a constraint with an
        earlier one."""
        inst = self.scheme.instance
        pos = inst.rows_of(batch)
        # Row -1, an unknown id, picks the appended False.
        coin = np.append(self._coin, False)[pos]
        twice = np.append(self._decided, False)[pos]
        ptr, t_entries = inst.transpose()
        counts = np.where(coin, ptr[pos + 1] - ptr[pos], 0)
        owner = np.repeat(np.arange(len(pos)), counts)
        starts = ptr[pos] - np.concatenate(([0], np.cumsum(counts)[:-1]))
        entries = t_entries[np.arange(len(owner)) + starts[owner]]
        rows = inst.entry_rows[entries]
        # Entries whose constraint an earlier entry already holds.
        shared = np.ones(len(rows), dtype=bool)
        shared[np.unique(rows, return_index=True)[1]] = False
        bad = ~coin | twice | (np.bincount(owner[shared], minlength=len(pos)) > 0)
        if bad.any():
            k = int(np.argmax(bad))
            if not coin[k]:
                raise DerandomizationError(
                    f"variable {batch[k]} has no free coin (already fixed, p in {{0,1}}, or x=0)"
                )
            if twice[k]:
                raise DerandomizationError(f"variable {batch[k]} scheduled twice")
            raise DerandomizationError(
                f"batch members share constraint {int(inst.cids[rows[shared][0]])}; "
                "the schedule violates the distance-2 / separation requirement"
            )
        return pos, entries, rows, owner

    # -- main loop ---------------------------------------------------------------

    def run(self, schedule: Iterable[Sequence[int]]) -> DerandResult:
        """Fix all coins batch by batch and execute the rounding."""
        initial = self.objective()
        trajectory = [initial]
        prev = initial
        batches = 0
        for batch in schedule:
            batch = list(batch)
            if not batch:
                continue
            pos, entries, rows, owner = self._validate_batch(batch)
            # Snapshot semantics: compute all decisions against the state
            # before the batch, then commit them together.
            success = self._choose(pos, entries, rows, owner)
            self._commit(pos, success, entries, rows, owner)
            batches += 1
            now = self.objective()
            if now > prev + _MONOTONE_TOL * max(1.0, abs(prev)):
                raise DerandomizationError(
                    f"objective increased across batch {batches}: "
                    f"{prev:.9g} -> {now:.9g}; supermartingale invariant violated"
                )
            trajectory.append(now)
            prev = now

        undecided = self.scheme.instance.ids[self._coin & ~self._decided].tolist()
        if undecided:
            raise DerandomizationError(
                f"{len(undecided)} participating variables never scheduled "
                f"(e.g. {undecided[:5]})"
            )

        outcome = execute_rounding(self.scheme, fixed_coins(self.decisions))
        final = self.objective()
        if outcome.accounted_size > final + _MONOTONE_TOL * max(1.0, final):
            raise DerandomizationError(
                f"realized size {outcome.accounted_size:.9g} exceeds final "
                f"estimate {final:.9g}"
            )
        return DerandResult(
            outcome=outcome,
            decisions=dict(self.decisions),
            initial_estimate=initial,
            final_estimate=final,
            trajectory=trajectory,
            batches=batches,
        )

    def _commit(
        self, pos: np.ndarray, success: np.ndarray, entries: np.ndarray,
        rows: np.ndarray, owner: np.ndarray,
    ) -> None:
        inst = self.scheme.instance
        self.decisions.update(zip(inst.ids[pos].tolist(), success.tolist()))
        self._decided[pos] = True
        self._ex[pos] = np.where(success, self._w[pos], 0.0)
        won = success[owner]
        self._fixed[rows[won]] += self._w[pos][owner[won]]
        self._free[entries] = False
        logged = self._mode[rows] != _ENUM
        touched = rows[logged]
        self._log_prod[touched] -= self._factor[entries[logged]]
        self._updates[touched] += 1
        for row in touched[self._updates[touched] >= REFRESH_EVERY].tolist():
            self._log_prod[row] = ltr_sum(self._factor[self._free_coins(row)[0]])
            self._updates[row] = 0
        self._phi[rows] = self._phis(rows)
