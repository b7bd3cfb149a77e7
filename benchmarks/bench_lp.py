"""Micro-benchmark: the covering LP's interior point plus crossover against
dual simplex.

Each bar solves the dominating-set LP of one 1000-node suite graph in one
process: through :func:`repro.fractional.lp.solve_covering_lp` (HiGHS
interior point, then crossover to a vertex) and through
``scipy.optimize.linprog(method="highs-ds")`` on the same matrix, best of 3
each, the arms alternating.  The optima must agree to 1e-9 relative
*before* any speed is asserted, so a wrong optimum can never hide behind a
timing win.

The two graphs are the symmetric families where dual simplex degenerates:
``regular`` (every closed neighbourhood has the same size) and ``grid``.
``perfbench``'s ``thm12-lp`` pool is G(n, p) only, where the two methods
are within 2x of each other, so no other check reaches this regime.  Each
bar is about two thirds of the smallest ratio seen over 16 runs pinned to
one CPU (see docs/benchmarks.md, "Asserted bars").

Run with::

    pytest benchmarks/bench_lp.py -o python_files='bench_*.py' \
        -o python_functions='bench_*' -s
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.domsets.covering import CoveringInstance
from repro.fractional.lp import solve_covering_lp
from repro.graphs.suite import suite_instance

#: Interior point over dual simplex on regular-1000 (observed 12.8-16.6x).
REGULAR_SPEEDUP_BAR = 8.0
#: Interior point over dual simplex on grid-1000 (observed 26.6-40.0x).
GRID_SPEEDUP_BAR = 17.0


def _dual_simplex(instance: CoveringInstance) -> float:
    """The optimum of the same LP from ``linprog(method="highs-ds")``."""
    from scipy.optimize import linprog

    result = linprog(
        instance.weight,
        A_ub=-instance.incidence(),
        b_ub=-instance.c,
        bounds=(0.0, 1.0),
        method="highs-ds",
    )
    assert result.success, result.message
    return float(result.fun)


def _timed(solve, instance):
    """``(value, wall)`` of one call."""
    start = time.perf_counter()
    value = solve(instance)
    return value, time.perf_counter() - start


def _speedup(instance: CoveringInstance, label: str) -> float:
    """Assert that both arms reach the same optimum, print the walls and
    return dual simplex's best wall over the interior point's."""
    ipm_wall = simplex_wall = float("inf")
    for _ in range(3):  # best of 3, the arms alternating
        solution, wall = _timed(solve_covering_lp, instance)
        ipm_wall = min(ipm_wall, wall)
        optimum, wall = _timed(_dual_simplex, instance)
        simplex_wall = min(simplex_wall, wall)
        assert solution.optimum == pytest.approx(optimum, rel=1e-9), label
    x = np.array([solution.values[v] for v in instance.ids.tolist()])
    assert ((x >= 0.0) & (x <= 1.0)).all()
    speedup = simplex_wall / ipm_wall
    print(
        f"\n{label} covering LP: interior point {ipm_wall * 1000:.1f}ms, "
        f"dual simplex {simplex_wall * 1000:.1f}ms; speedup {speedup:.1f}x"
    )
    return speedup


def _bar(benchmark, family: str, bar: float) -> None:
    """One family's bar at n = 1000, then one timed interior-point solve."""
    instance = CoveringInstance.from_graph(suite_instance(family, 1000, seed=1).graph, {})
    speedup = _speedup(instance, f"{family}-1000")
    assert speedup >= bar, f"interior point only {speedup:.2f}x faster, bar is {bar}x"
    benchmark.pedantic(solve_covering_lp, args=(instance,), iterations=1, rounds=1,
                       warmup_rounds=0)


def bench_lp_regular_1000(benchmark):
    """regular-1000: interior point >= 8x dual simplex, same optimum."""
    _bar(benchmark, "regular", REGULAR_SPEEDUP_BAR)


def bench_lp_grid_1000(benchmark):
    """grid-1000: interior point >= 17x dual simplex, same optimum."""
    _bar(benchmark, "grid", GRID_SPEEDUP_BAR)
