"""Pessimistic estimators ``phi_v(theta) >= Pr(E_v | theta)``.

For every covering constraint the estimator tracks the contribution of
already-decided (or deterministic) variables (the fixed sum) and the set of
still-free coins.  Three modes:

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

All modes return exact 0 once the fixed sum reaches ``c`` (the constraint
can never be violated again since values are non-negative).

:class:`PessimisticEstimator` keeps the estimators of a set of constraint
rows as arrays.  The conditional-expectation engine holds one over a
covering instance's rows; the lemma310 node program holds one over its own
constraint.  Every sum adds left to right in entry order (``row_sums``,
``ltr_sum``), never through builtin ``sum()``, which adds floats with
compensation since Python 3.12, and logs and exponentials go through
:mod:`math`.  So every float is the same on every Python version and for
every grouping of rows, and the lemma310 vector kernel can replay it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.domsets.covering import ltr_sum, row_sums
from repro.errors import DerandomizationError
from repro.rounding.abstract import uncovered_probability

#: Refresh the running log-product from scratch after this many incremental
#: updates to keep float drift below the guarantee-checking tolerance.
REFRESH_EVERY = 512

#: Upper end of the ternary-search window for the Chernoff parameter.
T_SEARCH_HI = 500.0

#: Mode names, indexed by the per-row codes of :attr:`PessimisticEstimator.mode`.
MODES = ("exact-product", "chernoff", "exact-enum")
_PRODUCT, _CHERNOFF, _ENUM = range(3)


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
        if self.mode not in ("auto",) + MODES:
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


class PessimisticEstimator:
    """The estimators of a set of constraint rows through the fixing process.

    Row ``i`` has demand ``c[i]`` and the member entries
    ``indptr[i]:indptr[i + 1]``; entry ``e`` is variable ``members[e]``.  A
    variable flips a coin where ``coin`` holds (success value ``x/p``, with
    probability ``p``); otherwise a positive ``x`` adds to the fixed sum of
    its rows.  ``cids`` and ``ids`` name rows and variables in errors.

    Queries and commits take member entries.  A commit fixes at most one
    entry per row; the queries leave the state as it is.
    """

    def __init__(
        self,
        indptr: np.ndarray,
        members: np.ndarray,
        c: np.ndarray,
        x: np.ndarray,
        p: np.ndarray,
        coin: np.ndarray,
        config: EstimatorConfig,
        cids: np.ndarray,
        ids: np.ndarray,
    ):
        self.indptr, self.members, self.c = indptr, members, c
        self.cids, self.ids = cids, ids
        self.config = config
        count = len(c)
        #: per entry: its constraint row, and whether its coin is still free
        self.rows = np.repeat(np.arange(count), np.diff(indptr))
        self.free = coin[members]
        #: per variable: the probability and the success value of its coin
        self.p = p
        self.w = np.divide(x, p, out=np.zeros(len(x)), where=coin)
        #: per row: the sum of deterministic and successfully fixed values
        self.fixed = row_sums(indptr, np.where(~coin & (x > 0.0), x, 0.0)[members])
        #: per row: the mode code (see :data:`MODES`), ``auto`` resolved
        self.mode = self._modes()
        #: the mode codes some row has; the bound skips the others
        self._present = set(self.mode.tolist())
        #: per entry: the log factor of its coin under the row's mode
        self.factor = np.zeros(len(members))
        log_q = np.zeros(len(x))
        log_q[coin] = [math.log1p(-q) for q in p[coin].tolist()]
        product = self.free & (self.mode[self.rows] == _PRODUCT)
        self.factor[product] = log_q[members[product]]
        #: per row: the Chernoff parameter (0 outside ``chernoff`` rows)
        self.t = np.zeros(count)
        for row in np.flatnonzero(self.mode == _CHERNOFF).tolist():
            entries, coins = self._free_coins(row)
            t = self.t[row] = chernoff_t(float(c[row] - self.fixed[row]), coins, T_SEARCH_HI)
            self.factor[entries] = [
                math.log(q * math.exp(-t * w) + (1.0 - q)) for w, q in coins
            ]
        #: per row: the log-product of the free coins' factors
        self.log_prod = row_sums(indptr, self.factor)
        self._updates = np.zeros(count, dtype=np.int64)
        #: per row: ``phi``, current unless the row is stale
        self._phi = np.zeros(count)
        self._stale = np.ones(count, dtype=bool)

    def _modes(self) -> np.ndarray:
        """The mode code of every row."""
        mode, count, rows = self.config.mode, len(self.c), self.rows
        if mode == "chernoff":
            return np.full(count, _CHERNOFF)
        if mode == "exact-enum":
            coins = np.bincount(rows[self.free], minlength=count)
            over = np.flatnonzero(coins > self.config.enum_limit)
            if over.size:
                row = int(over[0])
                raise DerandomizationError(
                    f"constraint {int(self.cids[row])}: {int(coins[row])} free coins "
                    f"exceed the enumeration limit {self.config.enum_limit}"
                )
            return np.full(count, _ENUM)
        short = self.free & (self.w[self.members] < (self.c - 1e-12)[rows])
        uncovered = np.bincount(rows[short], minlength=count) > 0
        if mode == "exact-product" and uncovered.any():
            row = int(np.flatnonzero(uncovered)[0])
            bad = self.ids[self.members[short & (rows == row)]][:5].tolist()
            raise DerandomizationError(
                f"constraint {int(self.cids[row])}: exact-product mode requires every "
                f"free success to cover c={float(self.c[row])}; offending coins {bad}"
            )
        return np.where(uncovered, _CHERNOFF, _PRODUCT)

    def _free_coins(
        self, row: int, skip: Sequence[int] = ()
    ) -> Tuple[np.ndarray, List[tuple]]:
        """Entries of ``row`` with a free coin (``skip`` aside), and their
        coins ``(w, p)``."""
        lo, hi = self.indptr[row], self.indptr[row + 1]
        entries = lo + np.flatnonzero(self.free[lo:hi])
        if len(skip):
            entries = entries[~np.isin(entries, skip)]
        owners = self.members[entries]
        return entries, list(zip(self.w[owners].tolist(), self.p[owners].tolist()))

    def _require_free(self, entries: np.ndarray) -> None:
        free = self.free[entries]
        if not free.all():
            e = int(entries[np.argmin(free)])
            raise DerandomizationError(
                f"constraint {int(self.cids[self.rows[e]])}: "
                f"coin {int(self.ids[self.members[e]])} is not free"
            )

    def _bound(
        self, rows: np.ndarray, fixed: np.ndarray, log: np.ndarray,
        fixing: Tuple[np.ndarray, np.ndarray] | None = None,
    ) -> np.ndarray:
        """``phi`` of ``rows`` at fixed sums ``fixed`` and log-products
        ``log``.  With ``fixing``, a CSR ``(ptr, entries)`` of one group per
        row, the bound once that group's coins are fixed."""
        c = self.c[rows]
        live = ~(fixed >= c - 1e-12)
        mode = self.mode[rows]
        out = np.zeros(len(rows))
        if _PRODUCT in self._present:
            pick = np.flatnonzero(live & (mode == _PRODUCT))
            if fixing is None:
                out[pick] = [math.exp(v) for v in log[pick].tolist()]
            else:
                out[pick] = [math.exp(min(0.0, v)) for v in log[pick].tolist()]
        if _CHERNOFF in self._present:
            pick = np.flatnonzero(live & (mode == _CHERNOFF))
            exponent = self.t[rows[pick]] * (c[pick] - fixed[pick]) + log[pick]
            out[pick] = [min(1.0, math.exp(min(e, 50.0))) for e in exponent.tolist()]
        if _ENUM in self._present:
            for i in np.flatnonzero(live & (mode == _ENUM)).tolist():
                skip = () if fixing is None else fixing[1][fixing[0][i]:fixing[0][i + 1]]
                coins = self._free_coins(int(rows[i]), skip)[1]
                out[i] = uncovered_probability(float(c[i]), float(fixed[i]), coins)
        return out

    # -- queries ------------------------------------------------------------------

    def phi(self) -> np.ndarray:
        """Current ``phi`` of every row."""
        stale = np.flatnonzero(self._stale)
        if stale.size:
            self._phi[stale] = self._bound(stale, self.fixed[stale], self.log_prod[stale])
            self._stale[stale] = False
        return self._phi.copy()

    def phi_if(self, entries: np.ndarray, success) -> np.ndarray:
        """Per entry, ``phi`` of its row once its coin is fixed to
        ``success`` (not committed)."""
        self._require_free(entries)
        rows = self.rows[entries]
        fixed = self.fixed[rows] + np.where(success, self.w[self.members[entries]], 0.0)
        log = self.log_prod[rows] - self.factor[entries]
        return self._bound(rows, fixed, log, (np.arange(len(entries) + 1), entries))

    def phi_given(self, ptr: np.ndarray, entries: np.ndarray, success: np.ndarray) -> np.ndarray:
        """Per group ``entries[ptr[g]:ptr[g + 1]]`` (distinct coins of one
        row, at least one), ``phi`` of that row once the group's coins are
        fixed to ``success`` together (not committed).  The fixed sum adds
        the group's successes in order, and the group's log factors leave
        the log-product as one sum."""
        self._require_free(entries)
        rows = self.rows[entries[ptr[:-1]]]
        lead = ptr[:-1] + np.arange(len(rows))
        terms = np.empty(len(entries) + len(rows))
        terms[lead] = self.fixed[rows]
        body = np.ones(len(terms), dtype=bool)
        body[lead] = False
        terms[body] = np.where(success, self.w[self.members[entries]], 0.0)
        fixed = row_sums(ptr + np.arange(len(rows) + 1), terms)
        log = self.log_prod[rows] - row_sums(ptr, self.factor[entries])
        return self._bound(rows, fixed, log, (ptr, entries))

    # -- commits ------------------------------------------------------------------

    def commit(self, entries: np.ndarray, success: np.ndarray) -> None:
        """Fix the coins of ``entries``, at most one per row, to ``success``."""
        self._require_free(entries)
        rows = self.rows[entries]
        self.fixed[rows[success]] += self.w[self.members[entries[success]]]
        self.free[entries] = False
        logged = self.mode[rows] != _ENUM
        touched = rows[logged]
        self.log_prod[touched] -= self.factor[entries[logged]]
        self._updates[touched] += 1
        for row in touched[self._updates[touched] >= REFRESH_EVERY].tolist():
            self.log_prod[row] = ltr_sum(self.factor[self._free_coins(row)[0]])
            self._updates[row] = 0
        self._stale[rows] = True
