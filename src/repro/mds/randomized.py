"""The randomized counterpart of the pipeline.

Runs the same Part I / II / III cascade but executes the abstract rounding
process with actual coins — fully independent or ``k``-wise independent from
a shared seed (Lemma 3.3).  Used by experiment E4 (validating the
Lemma 3.6/3.7 uncovered-probability bounds under limited independence) and
E7 (randomized-vs-deterministic comparison); a failed phase (leaving some
constraint uncovered) is *not* retried — phase two repairs it, exactly as in
the paper's process.
"""

from __future__ import annotations

import math
import random
from typing import TYPE_CHECKING

from repro.analysis.verify import require_dominating_set
from repro.congest.cost import CostLedger
from repro.domsets.cfds import CFDS, fractionality_of
from repro.domsets.covering import CoveringInstance
from repro.fractional.raising import kmw06_initial_fds
from repro.mds.pipeline import MDSResult, PipelineParams, StageTrace
from repro.rounding.abstract import execute_rounding
from repro.rounding.coins import independent_coins, kwise_coins
from repro.rounding.schemes import factor_two_scheme, one_shot_scheme

if TYPE_CHECKING:
    import networkx as nx


def approx_mds_randomized(
    graph: nx.Graph,
    eps: float = 0.5,
    seed: int = 0,
    kwise: int | None = None,
    params: PipelineParams | None = None,
) -> MDSResult:
    """Randomized MDS via the abstract rounding process.

    ``kwise=None`` uses fully independent coins; an integer ``k`` draws all
    coins of each phase from one shared ``k``-wise independent seed.
    """
    params = params or PipelineParams(eps=eps)
    rng = random.Random(seed)
    max_degree = max((d for _, d in graph.degree()), default=0)
    consts = params.derived(max_degree)
    ledger = CostLedger()
    trace = []

    initial = kmw06_initial_fds(graph, eps=consts.eps1, provider=params.part1_provider)
    ledger.merge(initial.ledger, prefix="part1/")
    values = dict(initial.fds.values)
    trace.append(
        StageTrace("part1-fractional", initial.raised_size, initial.fds.fractionality)
    )

    def make_coins(scheme):
        if kwise is None:
            return independent_coins(scheme, rng)
        m = max(12, math.ceil(math.log2(max(2, graph.number_of_nodes()))) + 2)
        return kwise_coins(scheme, k=kwise, m=m, rng=rng)

    r = 1.0 / fractionality_of(values)
    iterations = 0
    while r > consts.f_target and iterations < params.max_factor_two_iterations:
        base = CoveringInstance.from_graph(graph, values)
        scheme = factor_two_scheme(base, consts.eps2, r)
        outcome = execute_rounding(scheme, make_coins(scheme))
        values = outcome.projected
        ledger.charge("part2-rounding", 2)
        cfds = CFDS.fds(graph, values)
        cfds.require_feasible(f"randomized Part II iteration {iterations}")
        r_new = 1.0 / fractionality_of(values)
        trace.append(
            StageTrace(
                f"part2-factor-two-{iterations}", cfds.size, cfds.fractionality
            )
        )
        if r_new > r / 1.5:
            r = r_new
            break
        r = r_new
        iterations += 1

    base = CoveringInstance.from_graph(graph, values)
    scheme = one_shot_scheme(base, max_degree + 1)
    outcome = execute_rounding(scheme, make_coins(scheme))
    ledger.charge("part3-rounding", 2)
    ds = {v for v, x in outcome.projected.items() if x >= 1.0 - 1e-9}
    require_dominating_set(graph, ds, "randomized pipeline output")
    trace.append(StageTrace("part3-one-shot", float(len(ds)), 1.0))

    return MDSResult(
        graph=graph,
        dominating_set=ds,
        ledger=ledger,
        trace=trace,
        params={
            "eps": params.eps,
            "eps1": consts.eps1,
            "eps2": consts.eps2,
            "seed": float(seed),
            "kwise": float(kwise) if kwise is not None else -1.0,
            "part2_iterations": float(iterations),
        },
        route="randomized" + (f"/k={kwise}" if kwise else "/independent"),
    )
