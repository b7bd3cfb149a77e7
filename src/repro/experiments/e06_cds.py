"""E6 — Theorem 1.4: connected dominating set quality.

For every connected suite instance: run the CDS pipeline, verify
connectivity + domination, and compare ``|CDS|`` against (a) ``3 |S|``
(the classic spanning-tree bound the spanner route must stay within a
constant of), (b) exact ``OPT_CDS`` on instances small enough to solve, and
(c) the ``O(ln Delta)`` guarantee of Theorem 1.4.
"""

from __future__ import annotations

from repro.analysis.bounds import theorem14_cds_bound
from repro.analysis.verify import is_connected_dominating_set
from repro.baselines.exact import exact_cds
from repro.cds.pipeline import approx_cds
from repro.experiments.harness import ExperimentReport, standard_suite
from repro.fractional.lp import lp_fractional_mds

COLUMNS = [
    "graph", "n", "Delta", "S", "cds", "overhead", "3S_bound", "route",
    "opt_cds", "ratio_vs_opt", "clusters", "spanner_edges",
]


def run(fast: bool = True, eps: float = 0.5) -> ExperimentReport:
    import networkx as nx

    report = ExperimentReport(
        experiment="E6",
        claim="Theorem 1.4: O(ln Delta)-approx connected dominating set",
        columns=COLUMNS,
    )
    for inst in standard_suite(fast):
        graph = inst.graph
        if not nx.is_connected(graph):
            continue
        result = approx_cds(graph, eps=eps)
        s_size = len(result.dominating_set)
        opt = None
        if inst.n <= 18:
            opt = exact_cds(graph)
        lp = lp_fractional_mds(graph)
        bound = theorem14_cds_bound(inst.max_degree)
        report.add_row(
            graph=inst.name,
            n=inst.n,
            Delta=inst.max_degree,
            S=s_size,
            cds=result.size,
            overhead=round(result.overhead, 3),
            **{"3S_bound": 3 * s_size},
            route=result.route,
            opt_cds=len(opt) if opt is not None else "-",
            ratio_vs_opt=(round(result.size / len(opt), 2) if opt else "-"),
            clusters=int(result.stats.get("clusters", 0)),
            spanner_edges=int(result.stats.get("spanner_edges", 0)),
        )
        report.check(
            "connected_dominating",
            is_connected_dominating_set(graph, result.cds),
        )
        # |CDS| <= 3|S| + spanner overhead; allow the spanner's O(eps |S|)
        # slack with an explicit constant.
        report.check("near_3s", result.size <= 3 * s_size + 2)
        # Theorem 1.4 guarantee against the LP lower bound on OPT_MDS
        # (OPT_CDS >= OPT_MDS >= LP).
        report.check(
            "theorem14_bound",
            result.size <= bound * max(lp.optimum, 1.0) + 3,
        )
    return report
