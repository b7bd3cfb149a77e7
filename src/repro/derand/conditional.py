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

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.derand.estimators import EstimatorConfig, PessimisticEstimator
from repro.domsets.covering import ltr_sum, row_sums
from repro.errors import DerandomizationError
from repro.rounding.abstract import RoundingOutcome, RoundingScheme, execute_rounding
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


class ConditionalExpectationEngine:
    """Runs the method of conditional expectations over a schedule.

    The constraint estimators are one
    :class:`~repro.derand.estimators.PessimisticEstimator` over the
    instance's constraint rows.  The engine keeps, per variable, whether it
    flips a coin and ``E[X_u | theta]``, and adds the objective and each
    coin's score left to right.
    """

    def __init__(self, scheme: RoundingScheme, config: EstimatorConfig | None = None):
        self.scheme = scheme
        self.config = config or EstimatorConfig()
        inst = scheme.instance
        x, p = inst.x, scheme.probabilities

        #: per variable: a free coin, and ``E[X_u | theta]``
        self._coin = (x > 0.0) & (p < 1.0)
        self.expected = np.where(x > 0.0, x, 0.0)
        self._decided = np.zeros(len(x), dtype=bool)
        self.decisions: Dict[int, bool] = {}
        self.estimator = PessimisticEstimator(
            inst.indptr, inst.members, inst.c, x, p, self._coin, self.config,
            inst.cids, inst.ids,
        )

    # -- objective ------------------------------------------------------------

    def phi(self) -> np.ndarray:
        """Current ``phi_v(theta)`` of every constraint row."""
        return self.estimator.phi()

    def objective(self) -> float:
        """Current value of the estimate ``U(theta)``."""
        inst = self.scheme.instance
        return ltr_sum(np.concatenate(
            (inst.weight * self.expected, inst.join_weight * self.estimator.phi())
        ))

    def _choose(
        self, pos: np.ndarray, entries: np.ndarray, rows: np.ndarray, owner: np.ndarray
    ) -> np.ndarray:
        """Each batch variable's coin: success iff it scores lower.  A score
        adds, left to right, the terms of ``U`` that depend on the coin:
        ``w(u) x/p`` on success, then ``jw * phi_if`` of each constraint."""
        inst = self.scheme.instance
        est = self.estimator
        jw = inst.join_weight[rows]
        ptr = np.concatenate(([0], np.cumsum(np.bincount(owner, minlength=len(pos)))))
        lead = ptr[:-1] + np.arange(len(pos))
        succ = np.empty(len(pos) + len(rows))
        succ[lead] = inst.weight[pos] * est.w[pos]
        body = np.ones(len(succ), dtype=bool)
        body[lead] = False
        succ[body] = jw * est.phi_if(entries, True)
        fail = jw * est.phi_if(entries, False)
        return row_sums(ptr + np.arange(len(pos) + 1), succ) < row_sums(ptr, fail)

    # -- batches ----------------------------------------------------------------

    def incidence(self, pos: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(entries, rows, owner)``: the member entries of the coin
        variables among rows ``pos`` (``-1`` for none), each variable's in
        constraint order, their constraint rows, and their owners' indices
        in ``pos``."""
        inst = self.scheme.instance
        coin = np.append(self._coin, False)[pos]
        ptr, t_entries = inst.transpose()
        counts = np.where(coin, ptr[pos + 1] - ptr[pos], 0)
        owner = np.repeat(np.arange(len(pos)), counts)
        starts = ptr[pos] - np.concatenate(([0], np.cumsum(counts)[:-1]))
        entries = t_entries[np.arange(len(owner)) + starts[owner]]
        return entries, inst.entry_rows[entries], owner

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
        entries, rows, owner = self.incidence(pos)
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

    def fix(self, batch: Sequence[int], success: Sequence[bool] | None = None) -> np.ndarray:
        """Fix one batch's coins together, against the state before the
        batch: each to the outcome that scores lower, or to ``success`` when
        given.  Returns the outcomes."""
        pos, entries, rows, owner = self._validate_batch(batch)
        if success is None:
            success = self._choose(pos, entries, rows, owner)
        success = np.asarray(success, dtype=bool)
        inst = self.scheme.instance
        self.decisions.update(zip(inst.ids[pos].tolist(), success.tolist()))
        self._decided[pos] = True
        self.expected[pos] = np.where(success, self.estimator.w[pos], 0.0)
        self.estimator.commit(entries, success[owner])
        return success

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
            self.fix(batch)
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
