"""E5 — Lemmas 3.9 / 3.14: the factor-two iteration trace.

Runs Part II with scaled-down constants so the doubling loop actually
engages at laptop scale (with the paper's constants the loop is skipped for
small ``Delta``, see Section 3.4), and records for every iteration the size
inflation and the fractionality doubling.  Claims: per-iteration inflation
stays below ``(1 + eps_2)`` plus the uncovered penalty, and the inverse
fractionality halves (up to the value caps).
"""

from __future__ import annotations

from repro.derand.coloring_based import factor_two_via_coloring
from repro.domsets.covering import CoveringInstance, fractionality_of
from repro.experiments.harness import ExperimentReport
from repro.fractional.raising import kmw06_initial_fds
from repro.graphs.generators import gnp_graph, regular_graph
from repro.oracle import lp_lower_bound

COLUMNS = [
    "graph", "iter", "r_before", "r_after", "size_before", "size_after",
    "inflation", "allowed", "lp_opt", "ratio_vs_lp", "colors",
]


def run(fast: bool = True, eps2: float = 0.3, iterations: int = 4,
        seed: int = 9) -> ExperimentReport:
    report = ExperimentReport(
        experiment="E5",
        claim="Lemma 3.14: each factor-two step costs <= (1+eps) and doubles fractionality",
        columns=COLUMNS,
    )
    graphs = [
        ("gnp-70", gnp_graph(70, 0.09, seed=seed)),
        ("regular-60", regular_graph(60, 6, seed=seed)),
    ]
    if not fast:
        graphs.append(("gnp-150", gnp_graph(150, 0.05, seed=seed)))

    for name, graph in graphs:
        # The LP optimum lower-bounds every feasible fractional solution,
        # so each iteration's size must stay above it (checked per row) —
        # the factor-two loop trades fractionality for size, never
        # feasibility.
        lp_opt = lp_lower_bound(graph)
        initial = kmw06_initial_fds(graph, eps=0.25)
        values = initial.values
        size_after = initial.raised_size
        r = 1.0 / fractionality_of(values)
        for it in range(iterations):
            if r <= 8.0:
                break
            size_before = size_after
            out = factor_two_via_coloring(
                CoveringInstance.from_graph(graph, values),
                eps=eps2, r=r, constants_scale=1e-3,
            )
            new_values = out.values
            fds = CoveringInstance.from_graph(graph, new_values)
            fds.require_feasible("E5 iteration")
            size_after = fds.size()
            r_after = 1.0 / fractionality_of(new_values)
            inflation = size_after / max(size_before, 1e-12)
            # Allowed: (1+eps) multiplicative plus the uncovered penalty the
            # estimator certifies (joins count 1 each).
            allowed = (1.0 + eps2) + (
                out.result.initial_estimate - (1.0 + eps2) * size_before
            ) / max(size_before, 1e-12)
            report.add_row(
                graph=name,
                iter=it,
                r_before=round(r, 1),
                r_after=round(r_after, 1),
                size_before=round(size_before, 3),
                size_after=round(size_after, 3),
                inflation=round(inflation, 4),
                allowed=round(max(allowed, 1.0 + eps2), 4),
                lp_opt=round(lp_opt, 2),
                ratio_vs_lp=round(size_after / max(lp_opt, 1e-12), 3),
                colors=out.num_colors,
            )
            report.check("inflation_bounded", size_after <= out.result.initial_estimate + 1e-6)
            report.check("fractionality_doubles", r_after <= r / 1.8 + 1.0)
            report.check("frac_above_lp", size_after >= lp_opt - 1e-6)
            values = new_values
            r = r_after
    report.notes.append(
        "constants_scale=1e-3 shrinks s = 64 eps^-2 ln(D~) so splitting "
        "engages at laptop scale; the estimator budget (initial_estimate) "
        "is the per-iteration certificate"
    )
    return report
