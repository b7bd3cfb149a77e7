"""Pessimistic estimators: exactness, domination, supermartingale property.

Every test drives :class:`PessimisticEstimator` through one-row instances:
one constraint with demand ``c``, a deterministic entry worth ``fixed``
(when positive) and then the free coins.
"""

import math
import random

import numpy as np
import pytest

from repro.derand.estimators import MODES, EstimatorConfig, PessimisticEstimator
from repro.errors import DerandomizationError


def brute_force_uncovered(c, fixed, coins):
    """Exact Pr(sum < c) by enumeration over coin outcomes."""
    items = list(coins.values())
    total = 0.0
    for mask in range(1 << len(items)):
        prob, s = 1.0, fixed
        for i, (w, p) in enumerate(items):
            if mask >> i & 1:
                prob *= p
                s += w
            else:
                prob *= 1.0 - p
        if s < c - 1e-12:
            total += prob
    return total


class Row:
    """A one-row estimator addressed by coin id; coins are ``{id: (w, p)}``,
    entered as ``x = w p``."""

    def __init__(self, c, fixed, coins, mode, enum_limit=18):
        ids = ([-1] if fixed > 0 else []) + list(coins)
        x = ([fixed] if fixed > 0 else []) + [w * p for w, p in coins.values()]
        p = ([1.0] if fixed > 0 else []) + [p for _, p in coins.values()]
        self.entry = {u: e for e, u in enumerate(ids)}
        self.est = PessimisticEstimator(
            indptr=np.array([0, len(ids)]),
            members=np.arange(len(ids)),
            c=np.array([c]),
            x=np.array(x, dtype=float),
            p=np.array(p, dtype=float),
            coin=np.array([u >= 0 for u in ids], dtype=bool),
            config=EstimatorConfig(mode=mode, enum_limit=enum_limit),
            cids=np.zeros(1, dtype=np.int64),
            ids=np.array(ids, dtype=np.int64),
        )

    @property
    def mode(self):
        return MODES[self.est.mode[0]]

    @property
    def satisfied(self):
        return self.est.fixed[0] >= self.est.c[0] - 1e-12

    def phi(self):
        return float(self.est.phi()[0])

    def phi_if(self, u, success):
        return float(self.est.phi_if(np.array([self.entry[u]]), success)[0])

    def phi_given(self, assignments):
        entries = np.array([self.entry[u] for u in assignments])
        success = np.array(list(assignments.values()), dtype=bool)
        return float(self.est.phi_given(np.array([0, len(entries)]), entries, success)[0])

    def fix(self, u, success):
        self.est.commit(np.array([self.entry[u]]), np.array([success]))


def make(c, fixed, coins, mode):
    return Row(c, fixed, coins, mode)


class TestExactProduct:
    def test_matches_brute_force(self):
        coins = {1: (1.0, 0.3), 2: (1.0, 0.6), 3: (1.0, 0.1)}
        est = make(1.0, 0.0, coins, "exact-product")
        assert est.phi() == pytest.approx(brute_force_uncovered(1.0, 0.0, coins))

    def test_rejects_small_success_values(self):
        with pytest.raises(DerandomizationError, match="offending coins"):
            make(1.0, 0.0, {1: (0.5, 0.5)}, "exact-product")

    def test_phi_if_matches_commit(self):
        coins = {1: (1.0, 0.3), 2: (1.0, 0.6)}
        est = make(1.0, 0.0, dict(coins), "exact-product")
        predicted = est.phi_if(1, False)
        est.fix(1, False)
        assert est.phi() == pytest.approx(predicted)

    def test_success_zeroes(self):
        est = make(1.0, 0.0, {1: (1.0, 0.3), 2: (1.0, 0.6)}, "exact-product")
        assert est.phi_if(1, True) == 0.0
        est.fix(1, True)
        assert est.satisfied
        assert est.phi() == 0.0


class TestChernoff:
    def test_upper_bounds_exact(self):
        rng = random.Random(4)
        for _ in range(30):
            coins = {
                i: (rng.uniform(0.05, 0.4), rng.uniform(0.2, 0.8))
                for i in range(rng.randint(2, 8))
            }
            c = rng.uniform(0.3, 1.0)
            fixed = rng.uniform(0.0, 0.3)
            est = make(c, fixed, coins, "chernoff")
            exact = brute_force_uncovered(c, fixed, coins)
            assert est.phi() >= exact - 1e-9

    def test_collapses_to_zero_when_satisfied(self):
        est = make(0.5, 0.6, {1: (0.1, 0.5)}, "chernoff")
        assert est.phi() == 0.0

    def test_supermartingale_per_coin(self):
        """E_b[phi(theta, b)] <= phi(theta) for every coin."""
        rng = random.Random(5)
        for _ in range(30):
            coins = {
                i: (rng.uniform(0.05, 0.5), rng.uniform(0.2, 0.8))
                for i in range(rng.randint(2, 6))
            }
            c = rng.uniform(0.3, 1.2)
            est = make(min(c, 1.0), 0.0, coins, "chernoff")
            for u, (w, p) in coins.items():
                avg = p * est.phi_if(u, True) + (1 - p) * est.phi_if(u, False)
                assert avg <= est.phi() + 1e-9

    def test_full_fixing_dominates_indicator(self):
        coins = {1: (0.2, 0.5), 2: (0.2, 0.5)}
        est = make(1.0, 0.3, dict(coins), "chernoff")
        est.fix(1, False)
        est.fix(2, False)
        # Violated for sure (0.3 < 1.0): phi must be 1.
        assert est.phi() == pytest.approx(1.0)

    def test_incremental_matches_fresh(self):
        """After every commit, ``phi`` equals the bound recomputed from
        scratch over the remaining coins with the same ``t``."""
        rng = random.Random(6)
        coins = {
            i: (rng.uniform(0.05, 0.4), rng.uniform(0.2, 0.8)) for i in range(8)
        }
        est = make(1.0, 0.0, dict(coins), "chernoff")
        t = float(est.est.t[0])
        remaining = dict(coins)
        for u in list(coins):
            est.fix(u, rng.random() < 0.5)
            remaining.pop(u)
            fixed = float(est.est.fixed[0])
            exponent = t * (1.0 - fixed) + math.fsum(
                math.log(p * math.exp(-t * w) + (1.0 - p)) for w, p in remaining.values()
            )
            fresh = 0.0 if fixed >= 1.0 - 1e-12 else min(1.0, math.exp(exponent))
            assert est.phi() == pytest.approx(fresh, abs=1e-8)


class TestExactEnum:
    def test_matches_brute_force_after_fixes(self):
        coins = {1: (0.4, 0.5), 2: (0.3, 0.25), 3: (0.5, 0.7)}
        est = make(1.0, 0.0, dict(coins), "exact-enum")
        assert est.phi() == pytest.approx(brute_force_uncovered(1.0, 0.0, coins))
        assert est.phi_if(2, True) == pytest.approx(
            brute_force_uncovered(1.0, 0.3, {1: coins[1], 3: coins[3]})
        )
        est.fix(2, True)
        assert est.phi() == pytest.approx(
            brute_force_uncovered(1.0, 0.3, {1: coins[1], 3: coins[3]})
        )

    def test_enum_limit(self):
        coins = {i: (0.1, 0.5) for i in range(25)}
        with pytest.raises(DerandomizationError, match="enumeration limit"):
            make(1.0, 0.0, coins, "exact-enum")


class TestAutoMode:
    def test_picks_exact_when_single_success_covers(self):
        est = make(1.0, 0.0, {1: (1.0, 0.5)}, "auto")
        assert est.mode == "exact-product"

    def test_picks_chernoff_otherwise(self):
        est = make(1.0, 0.0, {1: (0.2, 0.5)}, "auto")
        assert est.mode == "chernoff"

    def test_invalid_mode_rejected(self):
        with pytest.raises(DerandomizationError):
            EstimatorConfig(mode="bogus")

    def test_fix_unknown_coin(self):
        """A deterministic entry and a committed coin are not free."""
        est = make(1.0, 0.5, {1: (1.0, 0.5)}, "auto")
        for u in (-1, 1):
            if u == 1:
                est.fix(1, False)
            with pytest.raises(DerandomizationError, match=f"coin {u} is not free"):
                est.fix(u, True)
            with pytest.raises(DerandomizationError, match=f"coin {u} is not free"):
                est.phi_if(u, False)


class TestChernoffParameterChoice:
    def test_t_zero_when_already_covered(self):
        est = make(0.2, 0.5, {1: (0.1, 0.5)}, "chernoff")
        assert est.est.t[0] == 0.0

    def test_t_positive_when_concentration_helps(self):
        # Expected sum 1.5 vs demand 1.0: Chernoff gives a real bound.
        coins = {i: (0.3, 0.5) for i in range(10)}
        est = make(1.0, 0.0, coins, "chernoff")
        assert est.est.t[0] > 0.0
        assert est.phi() < 1.0

    def test_phi_one_when_expectation_below_demand(self):
        coins = {1: (0.1, 0.5)}
        est = make(1.0, 0.0, coins, "chernoff")
        assert est.phi() == pytest.approx(1.0)


def test_log_product_of_equal_coins_is_the_sequential_fold():
    """The log-product over k equal fair coins is ``log1p(-1/2)`` added k
    times left to right, the fold the lemma310 vector kernel replays.  A
    compensated sum (builtin ``sum()`` since Python 3.12) parts from it at
    k = 25."""
    term, fold = math.log1p(-0.5), 0.0
    for k in range(1, 301):
        fold += term
        row = make(1.0, 0.0, {u: (1.0, 0.5) for u in range(k)}, "auto")
        assert row.est.log_prod[0] == fold, k
