"""Derandomization of the abstract rounding process.

The method of conditional expectations fixes every participating variable's
coin so that the objective estimate

``U(theta) = sum_u w(u) E[X_u | theta] + sum_v jw(v) phi_v(theta)``

never increases, where ``phi_v`` upper-bounds ``Pr(E_v | theta)`` (the
probability constraint ``v`` is violated after phase one).  Three estimator
modes are provided, one class computing all of them
(:class:`repro.derand.estimators.PessimisticEstimator`):

* ``exact-product`` — the exact conditional probability, available whenever
  any single coin success covers the constraint on its own (always true for
  one-shot rounding, where phase-one values are 0/1);
* ``chernoff`` — the moment-generating-function bound the paper's own
  Lemma 3.7 analysis uses, valid for any scheme and efficiently updatable;
* ``exact-enum`` — brute-force enumeration, a test oracle for tiny cases.

Two scheduling front-ends mirror the paper's two derandomization routes:
:mod:`repro.derand.coloring_based` (Lemma 3.10 with Lemmas 3.13/3.14) and
:mod:`repro.derand.decomposition_based` (Lemma 3.4 with Lemmas 3.8/3.9).
"""

from repro.derand.estimators import EstimatorConfig
from repro.derand.conditional import (
    ConditionalExpectationEngine,
    DerandResult,
)
from repro.derand.coloring_based import (
    derandomized_rounding_with_coloring,
    factor_two_via_coloring,
    one_shot_via_coloring,
)
from repro.derand.decomposition_based import (
    derandomized_rounding_with_decomposition,
    factor_two_via_decomposition,
    one_shot_via_decomposition,
)
from repro.derand.seed_level import SeedLevelDerandomizer, SeedLevelResult

__all__ = [
    "EstimatorConfig",
    "ConditionalExpectationEngine",
    "DerandResult",
    "derandomized_rounding_with_coloring",
    "one_shot_via_coloring",
    "factor_two_via_coloring",
    "derandomized_rounding_with_decomposition",
    "one_shot_via_decomposition",
    "factor_two_via_decomposition",
    "SeedLevelDerandomizer",
    "SeedLevelResult",
]
