"""Watch the CONGEST derandomization run message by message.

Executes the Lemma 3.10 conditional-expectation loop as an actual
synchronous message-passing computation on the simulator (every node is a
program; the simulator enforces the O(log n)-bit message budget) and
cross-checks the distributed decisions against the centralized engine.

Usage:  python examples/congest_simulation.py [n] [seed]
"""

from __future__ import annotations

import sys

from repro.coloring.distance2 import distance2_coloring
from repro.congest.network import Network, congest_bit_budget
from repro.congest.programs.lemma310 import run_lemma310_on_graph
from repro.derand.coloring_based import schedule_from_colors
from repro.derand.conditional import ConditionalExpectationEngine
from repro.derand.estimators import EstimatorConfig
from repro.domsets.covering import CoveringInstance
from repro.fractional.raising import kmw06_initial_fds
from repro.graphs import gnp_graph
from repro.analysis.verify import require_dominating_set
from repro.rounding.schemes import one_shot_scheme
from repro.util.transmittable import TransmittableGrid


def main(n: int = 60, seed: int = 4) -> None:
    graph = gnp_graph(n, p=min(0.5, 5.0 / n), seed=seed)
    delta_tilde = max(d for _, d in graph.degree()) + 1
    grid = TransmittableGrid.for_n(n)

    initial = kmw06_initial_fds(graph, eps=0.5)
    base = CoveringInstance.from_graph(graph, initial.values)
    scheme = one_shot_scheme(base, delta_tilde, quantize=grid.up)
    participating = set(scheme.participating())
    coloring = distance2_coloring(graph, subset=participating)
    print(
        f"n={n} Delta~={delta_tilde}: {len(participating)} participating "
        f"nodes, {coloring.num_colors} distance-2 color classes"
    )

    network = Network.congest(graph)
    values = {u: var.x for u, var in scheme.instance.value_vars.items()}
    final, coins, sim = run_lemma310_on_graph(
        graph, values, scheme.p, coloring.colors,
        mode="exact-product", grid=grid, network=network,
    )
    ds = require_dominating_set(
        graph, {v for v, x in final.items() if x >= 1 - 1e-9}, "distributed output"
    )
    print(
        f"distributed run : |DS|={len(ds)}, rounds={sim.rounds} "
        f"(budget {3 * coloring.num_colors + 4}), messages={sim.total_messages}, "
        f"max message={sim.max_message_bits} bits "
        f"(budget {congest_bit_budget(n)} bits)"
    )

    engine = ConditionalExpectationEngine(scheme, EstimatorConfig(mode="exact-product"))
    central = engine.run(schedule_from_colors(scheme, coloring.colors))
    ds_central = {o for o, x in central.outcome.projected.items() if x >= 1 - 1e-9}
    agree = coins == {u: int(b) for u, b in central.decisions.items()}
    print(
        f"centralized run : |DS|={len(ds_central)}, initial estimate "
        f"{central.initial_estimate:.3f}, decisions identical: {agree}"
    )
    print("\nper-round message histogram (first 20 rounds):")
    for rnd, count in enumerate(sim.messages_per_round[:20], start=1):
        print(f"  round {rnd:>3d}: {'#' * max(1, count // max(1, n // 20))} {count}")


if __name__ == "__main__":
    args = [int(a) for a in sys.argv[1:3]]
    main(*args)
