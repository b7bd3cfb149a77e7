"""Micro-benchmark: stacked multi-instance plane vs the per-cell path.

Each bar compares one stacked run of a sweep on the ``vector`` engine
against the same cells run one at a time on ``fast``, the scalar engine,
measured on simulation wall only (topology generation is shared and
identical between the arms), best of 3.  The per-cell arm runs on
``fast`` because the stacked loop *is* the solo ``vector`` path (a solo
run is a one-instance stacked group), so every speed-up of that loop moved
a ``vector`` denominator along with the numerator.  The solo ``vector``
ratio is still printed, for reference, and not asserted.

Result parity is asserted *before* the speedup: the ``fast`` records and
the stacked records must agree cell by cell on ``ok`` and the whole
metrics block, the engine field aside, and the stacked records must equal
the solo ``vector`` records outright — so a correctness regression can
never hide behind a timing win.  The five targets are the 50-seed greedy
sweep (the tentpole), the color-reduction sweep (lockstep termination, n
rounds for every seed), ``batch_size`` chunking, the canonical uniform
Lemma 3.10 sweep (the alpha/decide/fold protocol in-plane from round 1),
and the **ragged** sweep: 50 instances of mixed size (n spanning an order
of magnitude) as one ragged plane, whose stacked loop runs as many rounds
as the *largest* instance needs while per-cell work shrinks with size.
A sixth bar times lemma310's group coloring, one distance-2 coloring per
bounded union of a sweep-shaped group, against coloring the same networks
one at a time with the same function, after asserting that every network
gets its own coloring.  A seventh runs color reduction in the benchmark
sweep's shape, gnp 250/500/1000 as one ragged plane, where the early
classes (colors above an instance's max degree) go to the round loop as
spans of rounds rather than one step per round.
Each bar is about two thirds of the smallest ratio seen over 16
alternating runs pinned to one CPU (see docs/benchmarks.md, "Asserted
bars").

Run with::

    pytest benchmarks/bench_batched.py -o python_files='bench_*.py' \
        -o python_functions='bench_*' -s
"""

from __future__ import annotations

import dataclasses
import time

from repro.api import Experiment
from repro.coloring.distance2 import distance2_coloring
from repro.congest.network import Network
from repro.congest.programs import lemma310
from repro.experiments.harness import (
    comparable_records as _comparable,
    seed_sweep_cells,
    simulation_wall as _sim_wall,
)
from repro.experiments.runner import GridCell, build_network, run_grid

#: The tentpole bar: stacked vs per-cell ``fast`` on the 50-seed greedy
#: sweep (observed 32.8-60.0x).
BATCHED_SPEEDUP_BAR = 20.0
#: Color reduction stacks perfectly (lockstep rounds), but each round has
#: little work to share (observed 13.5-26.1x).
COLOR_SPEEDUP_BAR = 9.0
#: ``batch_size=10`` chunks of the greedy tree-80 sweep (observed
#: 14.2-20.3x).
CHUNKED_SPEEDUP_BAR = 9.0
#: The ragged bar: a mixed-size 50-instance sweep stacked as one ragged
#: plane; the stacked loop pays the largest instance's round count
#: (observed 30.1-46.0x).
RAGGED_SPEEDUP_BAR = 20.0
#: Mixed sizes spanning an order of magnitude; 10 seeds each = 50 cells.
RAGGED_SIZES = (20, 40, 60, 100, 150)
#: Lemma 3.10 on the canonical uniform workload (observed 45.3-93.3x).
LEMMA310_SPEEDUP_BAR = 30.0

#: lemma310's group coloring, in unions, against one coloring per network
#: on a sweep-shaped group (observed 2.05-2.13x).
COLORING_SPEEDUP_BAR = 1.35

#: Color reduction in the sweep's shape, its early classes charged as
#: spans (observed 132.7-230.5x, median 141.2x).
SPAN_SPEEDUP_BAR = 88.0
#: The ``sweep`` workload's sizes; three seeds each = one 9-instance plane.
SPAN_SIZES = (250, 500, 1000)

SWEEP_SEEDS = list(range(50))


def _shootout(cells, batch_size: int = 0):
    """Run the three arms; return ``{arm: (records, best-of-3 wall)}``.

    ``fast`` and ``vector`` run the cells one at a time on that engine,
    ``batch`` stacks them on ``vector``.
    """
    arms = {
        "fast": ([dataclasses.replace(cell, engine="fast") for cell in cells], "cell"),
        "vector": (cells, "cell"),
        "batch": (cells, "batch"),
    }
    best: dict = {}
    for _ in range(3):  # best-of-3: measure the strategy, not the scheduler
        for arm, (arm_cells, strategy) in arms.items():
            records = run_grid(arm_cells, strategy=strategy, batch_size=batch_size)
            wall = _sim_wall(records)
            if arm not in best or wall < best[arm][1]:
                best[arm] = (records, wall)
    return best


def _engine_free(records):
    """Records stripped to cell (engine aside), ``ok`` and metrics."""
    return [
        (
            {k: v for k, v in rec["cell"].items() if k != "engine"},
            rec["ok"],
            rec.get("metrics"),
        )
        for rec in _comparable(records)
    ]


def _speedup(best, label: str) -> float:
    """Assert parity across the arms, print the walls; return the ratio of
    the ``fast`` arm to the stacked arm."""
    fast_records, fast_wall = best["fast"]
    vector_records, vector_wall = best["vector"]
    batch_records, batch_wall = best["batch"]
    assert _engine_free(fast_records) == _engine_free(batch_records), (
        f"{label}: stacked records diverged from per-cell fast records"
    )
    assert _comparable(vector_records) == _comparable(batch_records), (
        f"{label}: stacked records diverged from per-cell vector records"
    )
    assert all(rec["ok"] for rec in batch_records)
    speedup = fast_wall / batch_wall
    print(
        f"\n{label}: per-cell fast {fast_wall * 1000:.1f}ms, per-cell vector "
        f"{vector_wall * 1000:.1f}ms, batch {batch_wall * 1000:.1f}ms; "
        f"speedup {speedup:.1f}x vs fast ({vector_wall / batch_wall:.1f}x vs "
        "vector, not asserted)"
    )
    return speedup


def _sweep(program: str, family: str, n: int, batch_size: int = 0):
    """Uniform seed sweep under every arm (the PR 3 workloads)."""
    cells = seed_sweep_cells(program=program, family=family, n=n, seeds=SWEEP_SEEDS)
    return _shootout(cells, batch_size=batch_size)


def bench_batched_greedy_50_seeds(benchmark):
    """The tentpole: 50-seed greedy sweep, stacked >= 20x per-cell fast."""
    best = _sweep("greedy", "gnp", 60)
    batch_records = best["batch"][0]
    assert sum(1 for rec in batch_records if "batch" in rec) == len(SWEEP_SEEDS)
    speedup = _speedup(best, "50-seed greedy gnp-60")
    assert speedup >= BATCHED_SPEEDUP_BAR, (
        f"stacked plane only {speedup:.2f}x faster, bar is {BATCHED_SPEEDUP_BAR}x"
    )
    benchmark.pedantic(
        lambda: run_grid(
            seed_sweep_cells(program="greedy", family="gnp", n=60, seeds=SWEEP_SEEDS),
            strategy="batch",
        ),
        iterations=1,
        rounds=1,
        warmup_rounds=0,
    )


def bench_batched_color_reduction_50_seeds(benchmark):
    """Color reduction: lockstep stacked termination, parity + >= 9x."""
    best = _sweep("color-reduction", "tree", 80)
    speedup = _speedup(best, "50-seed color-reduction tree-80")
    assert speedup >= COLOR_SPEEDUP_BAR
    benchmark.pedantic(
        lambda: run_grid(
            seed_sweep_cells(
                program="color-reduction", family="tree", n=80, seeds=SWEEP_SEEDS
            ),
            strategy="batch",
        ),
        iterations=1,
        rounds=1,
        warmup_rounds=0,
    )


def bench_batched_chunked(benchmark):
    """batch_size chunking: identical records, still faster than per-cell."""
    best = _sweep("greedy", "tree", 80, batch_size=10)
    batch_records = best["batch"][0]
    assert all(rec.get("batch", {}).get("k", 0) <= 10 for rec in batch_records)
    speedup = _speedup(best, "50-seed greedy tree-80 (batch_size=10)")
    assert speedup >= CHUNKED_SPEEDUP_BAR
    benchmark.pedantic(
        lambda: run_grid(
            seed_sweep_cells(program="greedy", family="tree", n=80, seeds=SWEEP_SEEDS),
            strategy="batch",
            batch_size=10,
        ),
        iterations=1,
        rounds=1,
        warmup_rounds=0,
    )


def bench_batched_lemma310_50_seeds(benchmark):
    """Lemma 3.10: vectorized color-class stacking, parity + >= 30x.

    Every instance is canonical-uniform (``x = p = 1/2``, mode auto), so
    the stacked kernel takes over at round 1 and runs the full
    announce/alpha/decide/fold protocol on the plane.  Parity is
    asserted record for record before the speedup, so the derandomized
    coin flips, traffic totals, and outputs are pinned bit for bit
    against the per-cell node program on ``fast``.
    """
    best = _sweep("lemma310", "gnp", 60)
    batch_records = best["batch"][0]
    assert sum(1 for rec in batch_records if "batch" in rec) == len(SWEEP_SEEDS)
    speedup = _speedup(best, "50-seed lemma310 gnp-60")
    assert speedup >= LEMMA310_SPEEDUP_BAR, (
        f"lemma310 plane only {speedup:.2f}x faster, bar is "
        f"{LEMMA310_SPEEDUP_BAR}x"
    )
    benchmark.pedantic(
        lambda: run_grid(
            seed_sweep_cells(
                program="lemma310", family="gnp", n=60, seeds=SWEEP_SEEDS
            ),
            strategy="batch",
        ),
        iterations=1,
        rounds=1,
        warmup_rounds=0,
    )


def _ragged_cells():
    return (
        Experiment("greedy")
        .on("gnp")
        .sizes(*RAGGED_SIZES)
        .engine("vector")
        .seeds(len(SWEEP_SEEDS) // len(RAGGED_SIZES))
        .cells()
    )


def bench_ragged_mixed_size_50_instances(benchmark):
    """The ragged bar: 50 mixed-size instances as one plane, >= 20x per-cell.

    Every instance of the group is a different (size, seed) topology —
    n in {20..150} — so this is the workload uniform stacking could never
    batch; parity is asserted record for record against both per-cell
    arms before the speedup is measured.
    """
    cells = _ragged_cells()
    assert len(cells) == 50
    best = _shootout(cells)
    batch_records = best["batch"][0]
    # The whole mixed-size group stacks: one ragged plane of width 50.
    assert sum(1 for rec in batch_records if "batch" in rec) == len(cells)
    assert {rec["batch"]["k"] for rec in batch_records if "batch" in rec} == {50}
    speedup = _speedup(
        best, f"50-instance ragged greedy gnp (n in {list(RAGGED_SIZES)})"
    )
    assert speedup >= RAGGED_SPEEDUP_BAR, (
        f"ragged plane only {speedup:.2f}x faster, bar is {RAGGED_SPEEDUP_BAR}x"
    )
    benchmark.pedantic(
        lambda: run_grid(_ragged_cells(), strategy="batch"),
        iterations=1,
        rounds=1,
        warmup_rounds=0,
    )


def _coloring_group():
    """The sweep's lemma310 group shape: gnp 250/500/1000 x 12 seeds."""
    return [
        build_network(GridCell("gnp", n, "lemma310", "vector", seed=seed))
        for n in (250, 500, 1000)
        for seed in range(12)
    ]


def _best_of(arm, networks, repeats: int = 5) -> float:
    """Best wall of ``arm`` over fresh CSR twins of ``networks``, so no run
    finds a cached closed neighbourhood or a memoized coloring."""
    best = float("inf")
    for _ in range(repeats):
        twins = [Network.from_csr(*net.csr(), bit_budget=net.bit_budget) for net in networks]
        start = time.perf_counter()
        arm(twins)
        best = min(best, time.perf_counter() - start)
    return best


def bench_group_coloring_in_unions(benchmark):
    """lemma310's group coloring: each network's own coloring, faster in
    unions than one network at a time."""
    networks = _coloring_group()
    solo = [list(distance2_coloring(net).colors.values()) for net in networks]
    group = lemma310._canonical_colors(
        [Network.from_csr(*net.csr(), bit_budget=net.bit_budget) for net in networks]
    )
    assert [column.tolist() for column in group] == solo

    def one_at_a_time(twins):
        return [distance2_coloring(net) for net in twins]

    solo_wall = _best_of(one_at_a_time, networks)
    group_wall = _best_of(lemma310._canonical_colors, networks)
    speedup = solo_wall / group_wall
    print(
        f"\ngroup coloring, 36 gnp networks: one at a time {solo_wall * 1000:.1f}ms, "
        f"in unions {group_wall * 1000:.1f}ms; speedup {speedup:.2f}x"
    )
    assert speedup >= COLORING_SPEEDUP_BAR, (
        f"union coloring only {speedup:.2f}x faster, bar is {COLORING_SPEEDUP_BAR}x"
    )
    benchmark.pedantic(
        lambda: lemma310._canonical_colors(
            [Network.from_csr(*net.csr(), bit_budget=net.bit_budget) for net in networks]
        ),
        iterations=1,
        rounds=1,
        warmup_rounds=0,
    )


def _span_cells():
    return (
        Experiment("color-reduction")
        .on("gnp")
        .sizes(*SPAN_SIZES)
        .engine("vector")
        .seeds(3)
        .cells()
    )


def bench_color_reduction_spans(benchmark):
    """Color reduction on a sweep-shaped ragged plane: its early classes
    run as spans, so hundreds of rounds cost a few steps; parity with
    both per-cell arms first, then >= SPAN_SPEEDUP_BAR per-cell ``fast``."""
    cells = _span_cells()
    best = _shootout(cells)
    batch_records = best["batch"][0]
    assert {rec["batch"]["k"] for rec in batch_records if "batch" in rec} == {len(cells)}
    speedup = _speedup(
        best, f"{len(cells)}-instance ragged color-reduction gnp (n in {list(SPAN_SIZES)})"
    )
    assert speedup >= SPAN_SPEEDUP_BAR, (
        f"color-reduction spans only {speedup:.2f}x faster, bar is {SPAN_SPEEDUP_BAR}x"
    )
    benchmark.pedantic(
        lambda: run_grid(_span_cells(), strategy="batch"),
        iterations=1,
        rounds=1,
        warmup_rounds=0,
    )
