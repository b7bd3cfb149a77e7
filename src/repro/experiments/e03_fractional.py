"""E3 — Lemma 2.1 / [KMW06] substrate: fractional dominating sets.

Compares the two Part-I providers on every suite instance: the LP oracle
(exact optimum) and the distributed water-filling solver (measured rounds).
Checks: both outputs feasible; raised solutions reach the
``eps/(2 Delta~)`` fractionality contract; the raising step costs at most
a ``(1 + eps)`` factor over the provider's size plus the paper's additive
term.
"""

from __future__ import annotations

from repro.domsets.covering import CoveringInstance, fractionality_of
from repro.experiments.harness import ExperimentReport, standard_suite
from repro.fractional.distributed import distributed_fractional_mds
from repro.fractional.lp import lp_fractional_mds
from repro.fractional.raising import kmw06_initial_fds

COLUMNS = [
    "graph", "n", "Delta", "lp_opt", "dist_size", "dist_ratio", "dist_rounds",
    "raised_size", "raise_factor", "fractionality", "lambda",
]


def run(fast: bool = True, eps: float = 0.5) -> ExperimentReport:
    report = ExperimentReport(
        experiment="E3",
        claim="Lemma 2.1: (1+eps)-approx fractional DS, eps/(2D~)-fractional",
        columns=COLUMNS,
    )
    for inst in standard_suite(fast):
        graph = inst.graph
        delta_tilde = inst.max_degree + 1
        lp = lp_fractional_mds(graph)
        dist = distributed_fractional_mds(graph, gamma=min(0.5, eps))
        dist_fds = CoveringInstance.from_graph(graph, dist.values)
        initial = kmw06_initial_fds(graph, eps=eps, provider="lp")
        raised_fds = CoveringInstance.from_graph(graph, initial.values)
        fractionality = fractionality_of(initial.values)

        lam = eps / (2.0 * delta_tilde)
        report.add_row(
            graph=inst.name,
            n=inst.n,
            Delta=inst.max_degree,
            lp_opt=round(lp.optimum, 3),
            dist_size=round(dist.size, 3),
            dist_ratio=round(dist.size / max(lp.optimum, 1e-9), 3),
            dist_rounds=dist.rounds,
            raised_size=round(initial.raised_size, 3),
            raise_factor=round(initial.raised_size / max(lp.optimum, 1e-9), 3),
            fractionality=f"{fractionality:.2e}",
            **{"lambda": f"{lam:.2e}"},
        )
        report.check("distributed_feasible", dist_fds.is_feasible())
        report.check("raised_feasible", raised_fds.is_feasible())
        report.check("fractionality_contract", fractionality >= lam - 1e-12)
        # Raising adds at most n * lambda <= (eps/2) * (n / Delta~) and
        # n/Delta~ <= LP_OPT, so the raised size stays within (1+eps) of LP.
        report.check(
            "raise_within_eps",
            initial.raised_size
            <= (1.0 + eps) * lp.optimum + 1e-6 + inst.n * lam,
        )
    return report
