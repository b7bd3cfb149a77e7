"""E10 — CONGEST accounting: rounds, message sizes and congestion.

Runs the actually-simulated primitives (BFS forest, tree aggregation,
rounding execution, the distributed Lemma 3.10 loop) and reports measured
rounds against their analytic budgets and the maximum message size against
the O(log n)-bit budget.  The bit budget is *enforced* by the simulator —
a single oversized message raises — so this table doubles as evidence the
algorithms are CONGEST-honest.  The ``congestion`` column condenses each
run's per-round ``bits_per_round`` series into an equal-width histogram
(``lo-hi:rounds``), exposing the traffic shape — a BFS wave's ramp, the
greedy phases' four-step cycle — that totals alone hide.
"""

from __future__ import annotations

from repro.analysis.verify import is_dominating_set
from repro.coloring.greedy import validate_coloring
from repro.congest.network import Network, congest_bit_budget
from repro.congest.programs.bfs import run_bfs_forest
from repro.congest.programs.color_reduction import run_color_reduction
from repro.congest.programs.greedy_mds import run_distributed_greedy
from repro.congest.programs.lemma310 import run_lemma310_on_graph
from repro.congest.programs.rounding_exec import run_rounding_execution
from repro.coloring.distance2 import distance2_coloring
from repro.domsets.covering import CoveringInstance
from repro.experiments.harness import (
    ExperimentReport,
    render_congestion,
    standard_suite,
)
from repro.fractional.raising import kmw06_initial_fds
from repro.rounding.schemes import one_shot_scheme
from repro.util.transmittable import TransmittableGrid

COLUMNS = [
    "graph", "n", "primitive", "rounds", "round_budget", "max_bits",
    "bit_budget", "messages", "congestion",
]


def run(fast: bool = True) -> ExperimentReport:
    import networkx as nx

    report = ExperimentReport(
        experiment="E10",
        claim="CONGEST honesty: measured rounds and <= O(log n)-bit messages",
        columns=COLUMNS,
    )
    for inst in standard_suite(fast):
        graph = inst.graph
        if not nx.is_connected(graph):
            continue
        n = inst.n
        budget = congest_bit_budget(n)
        network = Network.congest(graph)
        diameter = nx.diameter(graph)

        # BFS forest from node 0.
        _, _, _, sim = run_bfs_forest(graph, roots=[0], network=network)
        report.add_row(
            graph=inst.name, n=n, primitive="bfs", rounds=sim.rounds,
            round_budget=diameter + 3, max_bits=sim.max_message_bits,
            bit_budget=budget, messages=sim.total_messages,
            congestion=render_congestion(sim.bits_per_round),
        )
        report.check("bfs_rounds", sim.rounds <= diameter + 3)
        report.check("bits", sim.max_message_bits <= budget)

        # Rounding execution (phase two of the abstract process).
        initial = kmw06_initial_fds(graph, eps=0.5)
        values, sim2 = run_rounding_execution(
            graph,
            initial.values,
            {v: 1.0 for v in graph.nodes()},
            network=network,
        )
        report.add_row(
            graph=inst.name, n=n, primitive="rounding-exec", rounds=sim2.rounds,
            round_budget=2, max_bits=sim2.max_message_bits,
            bit_budget=budget, messages=sim2.total_messages,
            congestion=render_congestion(sim2.bits_per_round),
        )
        report.check("exec_rounds", sim2.rounds <= 2)
        report.check("bits", sim2.max_message_bits <= budget)

        # Distributed Lemma 3.10 (one-shot instance).
        delta_tilde = inst.max_degree + 1
        grid = TransmittableGrid.for_n(n)
        base = CoveringInstance.from_graph(graph, initial.values)
        scheme = one_shot_scheme(base, delta_tilde, quantize=grid.up)
        participating = set(scheme.participating())
        coloring = distance2_coloring(graph, subset=participating)
        sch_values = {u: var.x for u, var in scheme.instance.value_vars.items()}
        _, _, sim3 = run_lemma310_on_graph(
            graph, sch_values, scheme.p, coloring.colors, mode="exact-product",
            grid=grid, network=network,
        )
        round_budget = 3 * max(1, coloring.num_colors) + 4
        report.add_row(
            graph=inst.name, n=n, primitive="lemma3.10-loop", rounds=sim3.rounds,
            round_budget=round_budget, max_bits=sim3.max_message_bits,
            bit_budget=budget, messages=sim3.total_messages,
            congestion=render_congestion(sim3.bits_per_round),
        )
        report.check("lemma310_rounds", sim3.rounds <= round_budget)
        report.check("bits", sim3.max_message_bits <= budget)

        # Distributed locally-maximal greedy (the pre-paper baseline).
        ds, sim4 = run_distributed_greedy(graph, network=network)
        report.add_row(
            graph=inst.name, n=n, primitive="dist-greedy", rounds=sim4.rounds,
            round_budget=8 * n + 16, max_bits=sim4.max_message_bits,
            bit_budget=budget, messages=sim4.total_messages,
            congestion=render_congestion(sim4.bits_per_round),
        )
        report.check("greedy_valid", is_dominating_set(graph, ds))
        report.check("bits", sim4.max_message_bits <= budget)

        # Distributed color reduction ([BEK15]-style final stage).
        colors, sim5 = run_color_reduction(graph, network=network)
        used = validate_coloring(graph, colors)
        report.add_row(
            graph=inst.name, n=n, primitive="color-reduction", rounds=sim5.rounds,
            round_budget=n + 2, max_bits=sim5.max_message_bits,
            bit_budget=budget, messages=sim5.total_messages,
            congestion=render_congestion(sim5.bits_per_round),
        )
        report.check("colors_delta_plus_1", used <= inst.max_degree + 1)
        report.check("bits", sim5.max_message_bits <= budget)
    return report
