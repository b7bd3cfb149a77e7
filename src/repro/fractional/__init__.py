"""Part I of the pipelines: fractional dominating sets with fractionality
``eps / (2 Delta~)`` (Lemma 2.1, after [KMW06]).

Two providers, each with its own guarantee:

* ``"lp"`` — the exact LP optimum via ``scipy.optimize.linprog`` (HiGHS),
  so a ``(1+eps)``-approximate FDS as Lemma 2.1 asks; it is also the oracle
  for approximation-ratio measurement.  CONGEST rounds are charged at the
  [KMW06] rate.
* ``"distributed"`` — a threshold water-filling covering solver that runs
  round by round on plain state, with a measured round count, and gives an
  ``O((1+gamma) ln Delta~)``-approximate FDS only; its ratio to the LP
  optimum is an experiment output (E3).

Both are followed by the Lemma 2.1 *raising* step, which lifts every value
to at least ``eps/(2 Delta~)``, costing at most an ``(1 + eps/2)`` factor
because the optimum is at least ``n / Delta~``.
"""

from repro.fractional.lp import LPSolution, lp_fractional_mds, solve_covering_lp
from repro.fractional.distributed import (
    DistributedLPResult,
    distributed_fractional_mds,
)
from repro.fractional.raising import (
    InitialFDS,
    kmw06_initial_fds,
    raise_fractionality,
    repair_feasibility,
)

__all__ = [
    "LPSolution",
    "lp_fractional_mds",
    "solve_covering_lp",
    "DistributedLPResult",
    "distributed_fractional_mds",
    "InitialFDS",
    "kmw06_initial_fds",
    "raise_fractionality",
    "repair_feasibility",
]
