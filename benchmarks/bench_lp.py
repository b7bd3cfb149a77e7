"""Micro-benchmark: the covering LP as :func:`solve_covering_lp` solves it
(implied rows dropped, then HiGHS interior point plus crossover) against
``scipy.optimize.linprog`` on the unreduced matrix.

Each bar solves the dominating-set LP of one graph in one process, through
:func:`repro.fractional.lp.solve_covering_lp` and through ``linprog`` on
every row of the same matrix, best of 3 each (of 7 against the interior
point), the arms alternating.  The optima must agree to 1e-9 relative
*before* any speed is asserted, so a wrong optimum can never hide behind a
timing win.  Every bar also prints the implied-row pass alone.

Two pairs of bars on 1000-node suite graphs:

* Against dual simplex (``method="highs-ds"``) on the symmetric families
  where it degenerates: ``regular`` (every closed neighbourhood has the
  same size) and ``grid``.  Neither has an implied row.  ``perfbench``'s
  ``thm12-lp`` pool is G(n, p) only, where the two methods are within 2x
  of each other, so no other check reaches this regime.
* Against the plain interior point (``method="highs-ipm"``), which shows
  what dropping implied rows saves: ``tree``, where about 30% of the rows
  are implied, and ``gnp``, the graph type of ``thm12-lp``'s pool, where
  about 9% are and the pass must never cost more than it saves.

Two more bars against the plain interior point take graphs of about 300
nodes with dense rows, where a pass that tests every candidate pair at
once needs about n^3 entries: a dumbbell (two 150-node cliques joined by a
10-node path), whose clique rows are twins, and G(300, 0.3), where nothing
is implied and the pass alone must stay a small share of the solve.

Each bar but ``gnp``'s is about two thirds of the smallest ratio seen over
16 runs pinned to one CPU (see docs/benchmarks.md, "Asserted bars").

Run with::

    pytest benchmarks/bench_lp.py -o python_files='bench_*.py' \
        -o python_functions='bench_*' -s
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.domsets.covering import CoveringInstance
from repro.fractional.lp import _kept_rows, solve_covering_lp
from repro.graphs.generators import dumbbell_graph, gnp_graph
from repro.graphs.suite import suite_instance

#: Interior point over dual simplex on regular-1000 (observed 12.8-16.6x).
REGULAR_SPEEDUP_BAR = 8.0
#: Interior point over dual simplex on grid-1000 (observed 26.6-40.0x).
GRID_SPEEDUP_BAR = 17.0
#: Implied rows dropped over the plain interior point on tree-1000
#: (observed 2.15-2.60x).
TREE_SPEEDUP_BAR = 1.4
#: The same on gnp-1000 (observed 1.24-1.45x): the pass must pay for itself.
GNP_SPEEDUP_BAR = 1.0
#: The same on the dumbbell, where 298 of 310 rows go (observed 3.79-4.42x).
DUMBBELL_SPEEDUP_BAR = 2.5
#: The plain interior point's solve over the pass alone on G(300, 0.3),
#: where no row goes (observed 59-84x): the pass stays under 2.5% of it.
DENSE_GNP_PASS_BAR = 40.0
#: The interior-point arms take tens of ms, so their bars take the best of
#: 7 rather than 3: one slow spell of the host read 1.02x on gnp-1000 at 3.
IPM_ROUNDS = 7


def _unreduced(method: str):
    """The optimum of the same LP, every row kept, from
    ``linprog(method=method)``."""

    def solve(instance: CoveringInstance) -> float:
        from scipy.optimize import linprog

        result = linprog(
            instance.weight,
            A_ub=-instance.incidence(),
            b_ub=-instance.c,
            bounds=(0.0, 1.0),
            method=method,
        )
        assert result.success, result.message
        return float(result.fun)

    return solve


def _timed(solve, instance):
    """``(value, wall)`` of one call."""
    start = time.perf_counter()
    value = solve(instance)
    return value, time.perf_counter() - start


def _walls(instance: CoveringInstance, label: str, method: str, rounds: int):
    """Assert that both arms reach the same optimum, print the walls and
    return the best walls of ``solve_covering_lp``, of the unreduced
    ``method`` solve and of the implied-row pass alone, over ``rounds``."""
    reference = _unreduced(method)
    ours = theirs = alone = float("inf")
    for _ in range(rounds):  # the arms alternating
        solution, wall = _timed(solve_covering_lp, instance)
        ours = min(ours, wall)
        optimum, wall = _timed(reference, instance)
        theirs = min(theirs, wall)
        alone = min(alone, _timed(_kept_rows, instance)[1])
        assert solution.optimum == pytest.approx(optimum, rel=1e-9), label
    x = np.array([solution.values[v] for v in instance.ids.tolist()])
    assert ((x >= 0.0) & (x <= 1.0)).all()
    print(
        f"\n{label} covering LP: solve_covering_lp {ours * 1000:.1f}ms "
        f"(the pass alone {alone * 1000:.2f}ms), {method} on every row "
        f"{theirs * 1000:.1f}ms; speedup {theirs / ours:.2f}x"
    )
    return ours, theirs, alone


def _bar(benchmark, label: str, graph, method: str, bar: float, rounds: int = 3) -> None:
    """One graph's bar, then one timed ``solve_covering_lp``."""
    instance = CoveringInstance.from_graph(graph, {})
    ours, theirs, _ = _walls(instance, label, method, rounds)
    speedup = theirs / ours
    assert speedup >= bar, f"solve_covering_lp only {speedup:.2f}x faster, bar is {bar}x"
    benchmark.pedantic(solve_covering_lp, args=(instance,), iterations=1, rounds=1,
                       warmup_rounds=0)


def _suite(family: str):
    """The family's 1000-node suite graph at seed 1."""
    return suite_instance(family, 1000, seed=1).graph


def bench_lp_regular_1000(benchmark):
    """regular-1000: interior point >= 8x dual simplex, same optimum."""
    _bar(benchmark, "regular-1000", _suite("regular"), "highs-ds", REGULAR_SPEEDUP_BAR)


def bench_lp_grid_1000(benchmark):
    """grid-1000: interior point >= 17x dual simplex, same optimum."""
    _bar(benchmark, "grid-1000", _suite("grid"), "highs-ds", GRID_SPEEDUP_BAR)


def bench_lp_tree_1000(benchmark):
    """tree-1000: implied rows dropped >= 1.4x the plain interior point,
    same optimum."""
    _bar(benchmark, "tree-1000", _suite("tree"), "highs-ipm", TREE_SPEEDUP_BAR, rounds=IPM_ROUNDS)


def bench_lp_gnp_1000(benchmark):
    """gnp-1000: implied rows dropped never slower than the plain interior
    point, same optimum."""
    _bar(benchmark, "gnp-1000", _suite("gnp"), "highs-ipm", GNP_SPEEDUP_BAR, rounds=IPM_ROUNDS)


def bench_lp_dumbbell_310(benchmark):
    """dumbbell-310: implied rows dropped >= 2.5x the plain interior point,
    same optimum."""
    graph = dumbbell_graph(150, 10)
    _bar(benchmark, "dumbbell-310", graph, "highs-ipm", DUMBBELL_SPEEDUP_BAR, rounds=IPM_ROUNDS)


def bench_lp_dense_gnp_300(benchmark):
    """G(300, 0.3), where no row is implied: the plain interior point takes
    >= 40x as long as the pass alone, same optimum."""
    instance = CoveringInstance.from_graph(gnp_graph(300, 0.3, seed=1), {})
    _, theirs, alone = _walls(instance, "gnp-300-p0.3", "highs-ipm", IPM_ROUNDS)
    ratio = theirs / alone
    assert ratio >= DENSE_GNP_PASS_BAR, (
        f"the solve only {ratio:.1f}x the pass, bar is {DENSE_GNP_PASS_BAR}x")
    benchmark.pedantic(solve_covering_lp, args=(instance,), iterations=1, rounds=1,
                       warmup_rounds=0)
