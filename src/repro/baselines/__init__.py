"""Baselines the paper compares against (or that its guarantees are stated
relative to): sequential greedy, exact optima for small instances, LP
relaxation (via :mod:`repro.fractional.lp`), and LP-plus-independent-
randomized-rounding in the style of the classic randomized algorithms.
"""

from repro.baselines.greedy import greedy_mds
from repro.baselines.exact import exact_cds, exact_mds
from repro.baselines.randomized_lp import randomized_lp_rounding_mds

__all__ = [
    "greedy_mds",
    "exact_mds",
    "exact_cds",
    "randomized_lp_rounding_mds",
]
