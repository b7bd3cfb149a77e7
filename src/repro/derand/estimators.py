"""Per-constraint pessimistic estimators ``phi_v(theta) >= Pr(E_v | theta)``.

Each estimator tracks, for one covering constraint, the contribution of
already-decided (or deterministic) variables (``fixed_sum``) and the set of
still-free coins.  It answers two queries in O(1):

* ``phi()`` — the current upper bound on the violation probability;
* ``phi_if(u, success)`` — the bound after hypothetically fixing coin ``u``.

Three modes:

``exact-product``
    Valid when every free coin's success value ``w_u`` alone meets the
    demand ``c`` (one-shot rounding: ``w = 1 >= c``).  Then the constraint
    is violated iff *no* free coin succeeds and the fixed contribution is
    short, so ``Pr(E | theta) = [fixed < c] * prod (1 - p_u)`` exactly.

``chernoff``
    ``phi = min(1, exp(t (c - fixed)) * prod E[exp(-t X_u)])`` for a fixed
    per-constraint ``t >= 0`` chosen once by ternary search.  This is the
    standard MGF bound (the paper's Theorem 3.11 route); it upper-bounds the
    violation probability for every ``t`` and is a supermartingale under
    coin fixing by Jensen's inequality on the concave map ``min(1, .)``.
    Whenever the fixed contribution already meets the demand the bound
    collapses to the exact value 0.

``exact-enum``
    Exponential enumeration over free coins; a test oracle.

All modes return exact 0 once ``fixed_sum >= c`` (the constraint can never
be violated again since values are non-negative).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.errors import DerandomizationError
from repro.rounding.abstract import uncovered_probability

#: Refresh the running log-product from scratch after this many incremental
#: updates to keep float drift below the guarantee-checking tolerance.
REFRESH_EVERY = 512

#: Upper end of the ternary-search window for the Chernoff parameter.
T_SEARCH_HI = 500.0


@dataclass(frozen=True)
class EstimatorConfig:
    """How constraint estimators are instantiated.

    mode:
        ``"auto"`` picks ``exact-product`` when valid, otherwise
        ``chernoff``.  Explicit modes force one flavor (``exact-enum`` only
        for tiny instances).
    enum_limit:
        Maximum number of free coins ``exact-enum`` will enumerate.
    """

    mode: str = "auto"
    enum_limit: int = 18

    def __post_init__(self) -> None:
        if self.mode not in ("auto", "exact-product", "chernoff", "exact-enum"):
            raise DerandomizationError(f"unknown estimator mode {self.mode!r}")


def chernoff_t(gap: float, coins: List[Tuple[float, float]], hi: float) -> float:
    """Ternary-search the convex exponent
    ``g(t) = t * gap + sum log E[exp(-t X_u)]`` over ``[0, hi]`` for free
    coins ``(w, p)``; 0 when the gap is closed or no coin is free."""
    if gap <= 1e-12 or not coins:
        return 0.0

    def g(t: float) -> float:
        total = t * gap
        for w, p in coins:
            total += math.log(p * math.exp(-t * w) + (1.0 - p))
        return total

    lo_t, hi_t = 0.0, hi
    for _ in range(80):
        m1 = lo_t + (hi_t - lo_t) / 3.0
        m2 = hi_t - (hi_t - lo_t) / 3.0
        if g(m1) <= g(m2):
            hi_t = m2
        else:
            lo_t = m1
    return 0.5 * (lo_t + hi_t)


class ConstraintEstimator:
    """Tracks ``phi`` for one constraint through the fixing process."""

    __slots__ = (
        "cid",
        "c",
        "mode",
        "t",
        "fixed_sum",
        "free",
        "_log_prod",
        "_updates",
    )

    def __init__(
        self,
        cid: int,
        c: float,
        deterministic_sum: float,
        free_coins: Dict[int, Tuple[float, float]],
        config: EstimatorConfig,
    ):
        """``free_coins`` maps variable id -> ``(w, p)`` with ``0 < p < 1``
        and success value ``w = x/p > 0``."""
        self.cid = cid
        self.c = c
        self.fixed_sum = deterministic_sum
        self.free: Dict[int, Tuple[float, float]] = dict(free_coins)
        for u, (w, p) in self.free.items():
            if not (0.0 < p < 1.0) or w <= 0.0:
                raise DerandomizationError(
                    f"constraint {cid}: coin {u} has invalid (w={w}, p={p})"
                )

        mode = config.mode
        if mode == "auto":
            single_success_covers = all(
                w >= self.c - 1e-12 for (w, _) in self.free.values()
            )
            mode = "exact-product" if single_success_covers else "chernoff"
        if mode == "exact-product":
            bad = [u for u, (w, _) in self.free.items() if w < self.c - 1e-12]
            if bad:
                raise DerandomizationError(
                    f"constraint {cid}: exact-product mode requires every free "
                    f"success to cover c={self.c}; offending coins {bad[:5]}"
                )
        if mode == "exact-enum" and len(self.free) > config.enum_limit:
            raise DerandomizationError(
                f"constraint {cid}: {len(self.free)} free coins exceed the "
                f"enumeration limit {config.enum_limit}"
            )
        self.mode = mode

        self.t = 0.0
        if mode == "chernoff":
            self.t = chernoff_t(
                self.c - self.fixed_sum, list(self.free.values()), T_SEARCH_HI
            )
        self._log_prod = self._full_log_prod()
        self._updates = 0

    # -- internals -----------------------------------------------------------

    def _coin_log_factor(self, w: float, p: float) -> float:
        """``log`` of this coin's product term under the current mode."""
        if self.mode == "exact-product":
            return math.log1p(-p)
        # chernoff: log E[exp(-t X_u)] = log(p e^{-tw} + 1 - p)
        return math.log(p * math.exp(-self.t * w) + (1.0 - p))

    def _full_log_prod(self) -> float:
        if self.mode == "exact-enum":
            return 0.0
        return sum(self._coin_log_factor(w, p) for (w, p) in self.free.values())

    # -- queries -------------------------------------------------------------

    def satisfied(self) -> bool:
        """Deterministically satisfied: fixed contributions meet the demand."""
        return self.fixed_sum >= self.c - 1e-12

    def phi(self) -> float:
        """Current upper bound on ``Pr(E | theta)``."""
        if self.satisfied():
            return 0.0
        if self.mode == "exact-enum":
            return uncovered_probability(self.c, self.fixed_sum, list(self.free.values()))
        if self.mode == "exact-product":
            return math.exp(self._log_prod)
        exponent = self.t * (self.c - self.fixed_sum) + self._log_prod
        return min(1.0, math.exp(min(exponent, 50.0)))

    def phi_if(self, u: int, success: bool) -> float:
        """Bound after hypothetically fixing coin ``u`` (not committed)."""
        if u not in self.free:
            raise DerandomizationError(
                f"constraint {self.cid}: coin {u} is not free"
            )
        w, p = self.free[u]
        new_fixed = self.fixed_sum + (w if success else 0.0)
        if new_fixed >= self.c - 1e-12:
            return 0.0
        if self.mode == "exact-enum":
            rest = [coin for k, coin in self.free.items() if k != u]
            return uncovered_probability(self.c, new_fixed, rest)
        log_rest = self._log_prod - self._coin_log_factor(w, p)
        if self.mode == "exact-product":
            # success with w < c impossible here (mode guarantees w >= c, so
            # new_fixed >= c was already handled above); failure keeps fixed.
            return math.exp(min(0.0, log_rest))
        exponent = self.t * (self.c - new_fixed) + log_rest
        return min(1.0, math.exp(min(exponent, 50.0)))

    def phi_given(self, assignments: Dict[int, bool]) -> float:
        """Bound with several free coins hypothetically fixed at once.

        Used by the seed-level derandomization (Lemma 3.4), where one
        cluster's coins are all determined by a candidate seed and the
        remaining (other-cluster) coins keep their product factors.  Not
        committed; ``assignments`` maps coin id -> success.
        """
        new_fixed = self.fixed_sum
        removed_log = 0.0
        for u, success in assignments.items():
            if u not in self.free:
                raise DerandomizationError(
                    f"constraint {self.cid}: coin {u} is not free"
                )
            w, p = self.free[u]
            if success:
                new_fixed += w
            if self.mode != "exact-enum":
                removed_log += self._coin_log_factor(w, p)
        if new_fixed >= self.c - 1e-12:
            return 0.0
        if self.mode == "exact-enum":
            rest = [coin for k, coin in self.free.items() if k not in assignments]
            return uncovered_probability(self.c, new_fixed, rest)
        log_rest = self._log_prod - removed_log
        if self.mode == "exact-product":
            return math.exp(min(0.0, log_rest))
        exponent = self.t * (self.c - new_fixed) + log_rest
        return min(1.0, math.exp(min(exponent, 50.0)))

    # -- commits -------------------------------------------------------------

    def fix(self, u: int, success: bool) -> None:
        """Commit coin ``u``'s outcome."""
        if u not in self.free:
            raise DerandomizationError(
                f"constraint {self.cid}: coin {u} is not free"
            )
        w, p = self.free.pop(u)
        if success:
            self.fixed_sum += w
        if self.mode != "exact-enum":
            self._log_prod -= self._coin_log_factor(w, p)
            self._updates += 1
            if self._updates >= REFRESH_EVERY:
                self._log_prod = self._full_log_prod()
                self._updates = 0

    def involves(self, u: int) -> bool:
        return u in self.free
