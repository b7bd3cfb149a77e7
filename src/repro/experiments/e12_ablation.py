"""E12 — ablations behind Section 1.2's design discussion.

(a) *Why not one iteration of rounding?*  Compare the full pipeline (with
scaled constants so Part II engages) against a one-shot-only pipeline on
instances with low fractionality.  The paper's answer: gradual doubling is
what keeps the coloring small (Theorem 1.2 route) and the independence
requirement polylogarithmic (Theorem 1.1 route); quality-wise both land
within the same guarantee, which the table confirms, while the one-shot-only
route needs ``F * Delta``-color schedules (reported).

(b) *Estimator ablation*: Chernoff pessimistic estimator vs exact
enumeration on a small factor-two instance — the exact estimator's initial
value is no larger, and both derandomizations stay within their budgets.
"""

from __future__ import annotations

from repro.derand.coloring_based import one_shot_via_coloring
from repro.derand.conditional import ConditionalExpectationEngine
from repro.derand.estimators import EstimatorConfig
from repro.derand.coloring_based import schedule_from_colors
from repro.coloring.distance2 import bipartite_distance2_coloring
from repro.domsets.covering import CoveringInstance
from repro.experiments.harness import ExperimentReport
from repro.fractional.raising import kmw06_initial_fds
from repro.graphs.generators import gnp_graph, random_tree, regular_graph
from repro.mds.deterministic import approx_mds_coloring
from repro.mds.pipeline import PipelineParams
from repro.rounding.schemes import factor_two_scheme

COLUMNS = ["case", "graph", "variant", "size", "estimate", "colors", "iters"]


def run(fast: bool = True, seed: int = 21) -> ExperimentReport:
    report = ExperimentReport(
        experiment="E12",
        claim="Ablations: gradual doubling vs one-shot-only; chernoff vs exact",
        columns=COLUMNS,
    )
    graphs = [
        ("gnp-60", gnp_graph(60, 0.1, seed=seed)),
        ("tree-50", random_tree(50, seed=seed)),
    ]

    # (a) pipeline ablation -------------------------------------------------
    for name, graph in graphs:
        full = approx_mds_coloring(
            graph,
            params=PipelineParams(
                eps=0.5, eps2_override=0.3, f_target_override=8.0,
                constants_scale=1e-3,
            ),
        )
        one_shot_only = approx_mds_coloring(
            graph,
            params=PipelineParams(eps=0.5, max_factor_two_iterations=0),
        )
        initial = kmw06_initial_fds(graph, eps=0.5 / 16.0)
        direct = one_shot_via_coloring(CoveringInstance.from_graph(graph, initial.values))
        report.add_row(
            case="pipeline", graph=name, variant="full(scaled)",
            size=full.size, estimate="-",
            colors="-", iters=int(full.params["part2_iterations"]),
        )
        report.add_row(
            case="pipeline", graph=name, variant="one-shot-only",
            size=one_shot_only.size, estimate="-",
            colors=direct.num_colors, iters=0,
        )
        report.check(
            "both_within_2x",
            full.size <= 2 * one_shot_only.size + 2
            and one_shot_only.size <= 2 * full.size + 2,
        )

    # (b) estimator ablation --------------------------------------------------
    # Uniform tight fractional solution on a regular graph: every variable
    # participates and constraints carry real uncovered-probability mass, so
    # the exact and Chernoff estimators genuinely differ.
    graph = regular_graph(24, 5, seed=seed + 1)
    delta_tilde = 6
    values = {v: 1.0 / delta_tilde for v in graph.nodes()}
    r = float(delta_tilde)
    base = CoveringInstance.from_graph(graph, values)
    scheme = factor_two_scheme(base, eps=0.5, r=r)
    participating = set(scheme.participating())
    coloring = bipartite_distance2_coloring(scheme.instance, restrict=participating)
    schedule = schedule_from_colors(scheme, coloring.colors)
    for mode in ("chernoff", "exact-enum"):
        engine = ConditionalExpectationEngine(
            scheme, EstimatorConfig(mode=mode, enum_limit=22)
        )
        result = engine.run([list(batch) for batch in schedule])
        report.add_row(
            case="estimator", graph="regular-24", variant=mode,
            size=round(result.realized_size, 3),
            estimate=round(result.initial_estimate, 3),
            colors=coloring.num_colors, iters="-",
        )
        report.check(
            f"{mode}_budget", result.realized_size <= result.initial_estimate + 1e-6
        )

    # (c) seed-level vs coin-level fixing (Lemma 3.4 verbatim vs the
    # documented substitution), on a one-shot instance.
    from repro.decomposition.ball_carving import carve_decomposition
    from repro.derand.decomposition_based import one_shot_via_decomposition
    from repro.derand.seed_level import SeedLevelDerandomizer
    from repro.rounding.schemes import one_shot_scheme

    graph = gnp_graph(30, 0.12, seed=seed + 2)
    initial = kmw06_initial_fds(graph, eps=0.5)
    delta_tilde = max(d for _, d in graph.degree()) + 1
    decomposition = carve_decomposition(graph, separation_k=2)
    scheme = one_shot_scheme(
        CoveringInstance.from_graph(graph, initial.values), delta_tilde
    )
    seed_run = SeedLevelDerandomizer(
        scheme, decomposition, config=EstimatorConfig(mode="exact-product")
    ).run()
    coin_run = one_shot_via_decomposition(
        graph, initial.values, decomposition=decomposition
    )
    size_seed = sum(1 for x in seed_run.outcome.projected.values() if x >= 1 - 1e-9)
    size_coin = sum(1 for x in coin_run.values.values() if x >= 1 - 1e-9)
    report.add_row(
        case="lemma3.4", graph="gnp-30",
        variant=f"seed-level ({seed_run.clusters_via_seed} seeded)",
        size=size_seed, estimate=round(seed_run.initial_estimate, 3),
        colors="-", iters="-",
    )
    report.add_row(
        case="lemma3.4", graph="gnp-30", variant="coin-level",
        size=size_coin, estimate=round(coin_run.result.initial_estimate, 3),
        colors="-", iters="-",
    )
    report.check("seed_budget", seed_run.realized_size <= seed_run.initial_estimate + 1e-6)
    report.check("seed_close_to_coin", abs(size_seed - size_coin) <= max(3, size_coin))
    return report


def run_strategy_ablation(
    fast: bool = True, family: str = "gnp", n: int = 60
) -> ExperimentReport:
    """(c) Execution-strategy ablation: per-cell vs stacked seed sweeps.

    The same seed ensemble of the simulated greedy MDS program is executed
    twice — once one cell at a time on the vector engine, once as a single
    stacked message plane (``strategy="batch"``) — and the records are
    compared field for field.  The check certifies the stacked plane is an
    *execution* strategy, not an algorithmic change: every metric
    (rounds, messages, bits, outputs-derived sizes) must be identical, and
    only wall-clock may differ (the table reports both).
    """
    from repro.api import Experiment
    from repro.experiments.harness import (
        SEED_SWEEP_COUNT_FAST,
        SEED_SWEEP_COUNT_FULL,
        fast_mode,
    )

    if fast is None:
        fast = fast_mode()
    seeds = SEED_SWEEP_COUNT_FAST if fast else SEED_SWEEP_COUNT_FULL
    experiment = (
        Experiment("greedy").on(family).sizes(n).engine("vector").seeds(seeds)
    )
    report = ExperimentReport(
        experiment="E12-strategy",
        claim="stacked execution changes wall-clock only, never results",
        columns=["strategy", "seeds", "ok", "wall_ms", "speedup"],
    )
    walls = {}
    metrics = {}
    for strategy in ("cell", "batch"):
        sweep = experiment.strategy(strategy).run()
        walls[strategy] = sum(rec.wall_s or 0.0 for rec in sweep)
        metrics[strategy] = [rec.metrics for rec in sweep]
        report.check("no_failures", sweep.ok)
    report.check("identical_records", metrics["cell"] == metrics["batch"])
    speedup = walls["cell"] / walls["batch"] if walls["batch"] > 0 else 0.0
    for strategy in ("cell", "batch"):
        report.add_row(
            strategy=strategy,
            seeds=seeds,
            ok="yes",
            wall_ms=round(walls[strategy] * 1000, 2),
            speedup=round(speedup, 2) if strategy == "batch" else "1.0",
        )
    report.notes.append(
        "identical_records compares every per-seed metrics block between "
        "the two strategies; speedup is total-cell-wall / batched-wall"
    )
    return report
