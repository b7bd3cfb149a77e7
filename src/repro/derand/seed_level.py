"""Seed-bit-level derandomization — Lemma 3.4 implemented verbatim.

The paper's network-decomposition route does *not* fix coins directly: each
cluster shares a random seed of ``K`` fair bits, expands it into k-wise
independent biased coins for its members (Lemma 3.3), and the cluster leader
fixes the seed *bit by bit* with the method of conditional expectations,
aggregating the conditional values over the cluster's inclusive neighborhood.

This module implements exactly that for clusters whose participating-member
count admits exhaustive enumeration of seed completions (``K = k * m`` bits,
``2^K`` candidate seeds).  The conditional expectation

``E[U | b_1..b_j]  =  mean over completions of  U(coins(seed))``

is computed *exactly*: for a fully determined candidate seed the cluster's
coins are determined, and the objective's dependence on other clusters'
still-random coins stays in closed product form
(:meth:`~repro.derand.estimators.PessimisticEstimator.phi_given`, asked for
every candidate seed at once).  No independence assumption is made about the
in-cluster coins — the enumeration *is* the k-wise distribution — so every
inequality in the proof of Lemma 3.4 is reproduced, not approximated.

Clusters with too many participants for enumeration fall back to fixing one
coin per member, in id order, by conditional expectation.  That is a seed of
one symbol per member: its coins are fully independent, which is k-wise
independence for every ``k``, so the objective still never increases and
Lemma 3.4's bound holds.  The result records how many clusters took which
path.

This is a fidelity demonstrator, deliberately exponential in the seed
length; the production route is :mod:`repro.derand.decomposition_based`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.decomposition.cluster_graph import NetworkDecomposition
from repro.derand.conditional import ConditionalExpectationEngine
from repro.derand.estimators import EstimatorConfig
from repro.domsets.covering import ltr_sum, row_sums
from repro.errors import DerandomizationError
from repro.randomness.kwise import KWiseCoins, seed_bits_required
from repro.rounding.abstract import RoundingOutcome, RoundingScheme, execute_rounding
from repro.rounding.coins import fixed_coins

#: Objective non-increase tolerance (mirrors the engine's).
_TOL = 1e-7


@dataclass
class ClusterSeedRecord:
    """Provenance of one cluster's derandomization."""

    cluster_id: int
    members: List[int]
    method: str  # "seed" or "coin-fallback"
    seed_bits: List[int] = field(default_factory=list)
    k: int = 0
    m: int = 0


@dataclass
class SeedLevelResult:
    """Outcome of the seed-level run."""

    outcome: RoundingOutcome
    decisions: Dict[int, bool]
    initial_estimate: float
    final_estimate: float
    trajectory: List[float]
    records: List[ClusterSeedRecord]

    @property
    def realized_size(self) -> float:
        return self.outcome.accounted_size

    @property
    def clusters_via_seed(self) -> int:
        return sum(1 for r in self.records if r.method == "seed")

    @property
    def clusters_via_fallback(self) -> int:
        return sum(1 for r in self.records if r.method == "coin-fallback")


class SeedLevelDerandomizer:
    """Runs Lemma 3.4's per-cluster seed fixing over a 2-hop decomposition.

    Parameters
    ----------
    m:
        Field degree: coin probabilities are snapped down onto the ``2^-m``
        grid (the transmittable grid of Lemma 3.3); a cluster supports up to
        ``2^m`` participating members.
    k:
        Independence parameter of the per-cluster generator (capped at the
        member count; the seed has ``min(k, members) * m`` bits).
    max_seed_bits:
        Enumeration cap: clusters needing more seed bits fall back to
        coin-level fixing.
    """

    def __init__(
        self,
        scheme: RoundingScheme,
        decomposition: NetworkDecomposition,
        m: int = 4,
        k: int = 3,
        max_seed_bits: int = 14,
        config: EstimatorConfig | None = None,
    ):
        self.scheme = scheme
        self.decomposition = decomposition
        self.m = m
        self.k = k
        self.max_seed_bits = max_seed_bits
        self.config = config or EstimatorConfig()
        self.engine = ConditionalExpectationEngine(scheme, self.config)
        self.decisions = self.engine.decisions

    # -- objective bookkeeping ------------------------------------------------

    def objective(self) -> float:
        return self.engine.objective()

    # -- per-cluster machinery --------------------------------------------------

    def _cluster_rows(self, pos: np.ndarray) -> Tuple[np.ndarray, ...]:
        """``(touched, ptr, entries, owner)``: the constraint rows that the
        cluster's variable rows ``pos`` touch, in ascending constraint id;
        per touched row, the CSR ``ptr`` of the cluster's member ``entries``
        in it, in cluster order; and their owners' indices in ``pos``."""
        entries, rows, owner = self.engine.incidence(pos)
        order = np.lexsort((owner, self.scheme.instance.cids[rows]))
        entries, rows, owner = entries[order], rows[order], owner[order]
        starts = np.flatnonzero(np.diff(rows, prepend=-1))
        return rows[starts], np.append(starts, len(rows)), entries, owner

    def _cluster_slices(self, pos: np.ndarray, coins: np.ndarray) -> np.ndarray:
        """The objective slice that depends on the cluster's coins, for each
        complete in-cluster assignment (row of ``coins``): each member's
        ``w(u) X_u``, then each touched constraint's ``jw * phi`` with the
        member coins it holds fixed, added left to right."""
        inst = self.scheme.instance
        est = self.engine.estimator
        touched, ptr, entries, owner = self._cluster_rows(pos)
        count = len(coins)
        groups = np.add.outer(np.arange(count) * len(entries), ptr[:-1]).ravel()
        phi = est.phi_given(
            np.append(groups, count * len(entries)),
            np.tile(entries, count),
            coins[:, owner].ravel(),
        ).reshape(count, len(touched))
        terms = np.hstack((
            inst.weight[pos] * np.where(coins, est.w[pos], 0.0),
            inst.join_weight[touched] * phi,
        ))
        return row_sums(np.arange(count + 1) * terms.shape[1], terms.ravel())

    def _slice_under_current_state(self, members: List[int]) -> float:
        """The same objective slice evaluated from the current (independent
        coin) estimator state — the baseline the global objective carries."""
        inst = self.scheme.instance
        pos = inst.rows_of(members)
        touched = self._cluster_rows(pos)[0]
        return ltr_sum(np.concatenate((
            inst.weight[pos] * self.engine.expected[pos],
            inst.join_weight[touched] * self.engine.phi()[touched],
        )))

    def _fix_cluster_by_seed(
        self, members: List[int]
    ) -> Tuple[List[int], int, int, float, float]:
        """Exhaustively derandomize one cluster's shared seed.

        Returns ``(seed bits, k, m, kwise_mean_slice, realized_slice)``.
        Probabilities are snapped *down* onto the 2^-m grid; a zero-snapped
        probability makes the coin a deterministic failure (numerator 0).
        The bit-by-bit choice is an *exact* method of conditional
        expectations under the k-wise seed distribution, so
        ``realized <= kwise_mean`` always (checked by the caller).
        """
        k = max(1, min(self.k, len(members)))
        m = self.m
        bits_total = seed_bits_required(k, m)
        order = 1 << m
        pos = self.scheme.instance.rows_of(members)
        numerators = [int(p * order) for p in self.scheme.probabilities[pos].tolist()]

        # Every candidate seed's coins, then its objective slice.
        coins = np.empty((1 << bits_total, len(members)), dtype=bool)
        for seed_int in range(1 << bits_total):
            bits = [(seed_int >> (bits_total - 1 - i)) & 1 for i in range(bits_total)]
            family = KWiseCoins(k=k, m=m, seed_bits=bits)
            coins[seed_int] = [family.coin(i, num) for i, num in enumerate(numerators)]
        slice_of = self._cluster_slices(pos, coins)
        kwise_mean = ltr_sum(slice_of) / len(slice_of)

        # Fix bits left to right by exact conditional expectation.
        chosen_prefix = 0
        for j in range(bits_total):
            remaining = bits_total - (j + 1)
            sums = [0.0, 0.0]
            for b in (0, 1):
                base = ((chosen_prefix << 1) | b) << remaining
                sums[b] = ltr_sum(slice_of[base:base + (1 << remaining)]) / (1 << remaining)
            chosen_prefix = (chosen_prefix << 1) | (1 if sums[1] < sums[0] else 0)
        realized = float(slice_of[chosen_prefix])

        bits = [(chosen_prefix >> (bits_total - 1 - i)) & 1 for i in range(bits_total)]
        for u, coin in zip(members, coins[chosen_prefix].tolist()):
            self.engine.fix([u], [coin])
        return bits, k, m, kwise_mean, realized

    def _fix_cluster_by_coins(self, members: List[int]) -> None:
        """Coin-level fallback: one member at a time, by conditional
        expectation over independent coins."""
        for u in members:
            self.engine.fix([u])

    # -- main loop -----------------------------------------------------------------

    def run(self) -> SeedLevelResult:
        participants = set(self.scheme.participating())
        initial = self.objective()
        trajectory = [initial]
        prev = initial
        records: List[ClusterSeedRecord] = []
        # Cross-model slack: the k-wise in-cluster coin distribution may
        # give a (slightly) larger conditional mean than the independent
        # product baseline the global objective carries; Lemma 3.4's
        # guarantee is stated against the k-wise expectation, so the budget
        # accumulates exactly that gap.
        kwise_slack = 0.0

        for color_class in self.decomposition.color_classes():
            for cluster in color_class:
                members = sorted(
                    u for u in cluster.members
                    if u in participants and u not in self.decisions
                )
                if not members:
                    continue
                this_slack = 0.0
                k = max(1, min(self.k, len(members)))
                bits_needed = seed_bits_required(k, self.m)
                if bits_needed <= self.max_seed_bits and len(members) <= (1 << self.m):
                    baseline = self._slice_under_current_state(members)
                    bits, kk, mm, kwise_mean, realized = \
                        self._fix_cluster_by_seed(members)
                    if realized > kwise_mean + _TOL * max(1.0, abs(kwise_mean)):
                        raise DerandomizationError(
                            f"cluster {cluster.id}: realized slice "
                            f"{realized:.9g} exceeds the k-wise mean "
                            f"{kwise_mean:.9g}; supermartingale violated"
                        )
                    this_slack = max(0.0, kwise_mean - baseline)
                    kwise_slack += this_slack
                    records.append(ClusterSeedRecord(
                        cluster.id, members, "seed", bits, kk, mm
                    ))
                else:
                    self._fix_cluster_by_coins(members)
                    records.append(ClusterSeedRecord(
                        cluster.id, members, "coin-fallback"
                    ))
                now = self.objective()
                budget = prev + this_slack
                if now > budget + _TOL * max(1.0, abs(budget)):
                    raise DerandomizationError(
                        f"objective increased on cluster {cluster.id}: "
                        f"{prev:.9g} -> {now:.9g} (allowed slack {this_slack:.3g})"
                    )
                trajectory.append(now)
                prev = now

        missing = [u for u in participants if u not in self.decisions]
        if missing:
            raise DerandomizationError(
                f"{len(missing)} participants not covered by the decomposition"
            )
        outcome = execute_rounding(self.scheme, fixed_coins(self.decisions))
        final = self.objective()
        if outcome.accounted_size > final + _TOL * max(1.0, final):
            raise DerandomizationError(
                f"realized size {outcome.accounted_size:.9g} exceeds final "
                f"estimate {final:.9g}"
            )
        return SeedLevelResult(
            outcome=outcome,
            decisions=dict(self.decisions),
            initial_estimate=initial + kwise_slack,
            final_estimate=final,
            trajectory=trajectory,
            records=records,
        )
