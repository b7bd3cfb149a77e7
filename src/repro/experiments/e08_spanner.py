"""E8 — [BS07]/[GK18] substrate: spanner sparsity and the derandomization.

Runs the Baswana-Sen process with random and derandomized sampling on the
suite graphs.  Claims: the edge count stays within ``O(n log^2 n)``
(measured against an explicit constant), the spanner is connected whenever
the input is, the surviving-cluster counts shrink geometrically, and the
derandomized variant is no sparser than a constant factor worse than the
randomized median.
"""

from __future__ import annotations

import math
import random
import statistics

from repro.experiments.harness import ExperimentReport, standard_suite
from repro.spanner.baswana_sen import (
    baswana_sen_spanner,
    derandomized_sampler,
    random_sampler,
    spanner_subgraph,
)

COLUMNS = [
    "graph", "n", "m", "rand_edges", "det_edges", "bound", "det_connected",
    "halving_ok", "forced",
]


def run(fast: bool = True, seeds: int = 3) -> ExperimentReport:
    import networkx as nx

    report = ExperimentReport(
        experiment="E8",
        claim="Spanner: O(n log^2 n) edges, connected, derandomized ~ randomized",
        columns=COLUMNS,
    )
    for inst in standard_suite(fast):
        graph = inst.graph
        n = graph.number_of_nodes()
        log_n = max(1.0, math.log2(n))
        bound = int(math.ceil(3.0 * n * log_n))  # explicit O(n log n)-ish cap

        rand_sizes = []
        for s in range(seeds):
            res = baswana_sen_spanner(graph, random_sampler(random.Random(s)))
            rand_sizes.append(res.num_edges)
        rand_edges = int(statistics.median(rand_sizes))

        det = baswana_sen_spanner(graph, derandomized_sampler())
        sub = spanner_subgraph(graph, det)
        det_connected = (
            nx.is_connected(sub) if nx.is_connected(graph) else True
        )
        halving_ok = all(
            det.cluster_counts[i + 1] <= det.cluster_counts[i]
            for i in range(len(det.cluster_counts) - 1)
        )
        report.add_row(
            graph=inst.name,
            n=n,
            m=graph.number_of_edges(),
            rand_edges=rand_edges,
            det_edges=det.num_edges,
            bound=bound,
            det_connected=det_connected,
            halving_ok=halving_ok,
            forced=det.forced_balance_events,
        )
        report.check("edges_bounded", det.num_edges <= bound)
        report.check("connected", det_connected)
        report.check("derand_competitive", det.num_edges <= 3 * rand_edges + 10)
        report.check("clusters_monotone", halving_ok)
    return report
