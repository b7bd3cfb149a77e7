"""The randomized counterpart of the pipeline.

The abstract rounding process of Lemmas 3.1/3.3 with actual coins — fully
independent or ``k``-wise independent from a shared seed (Lemma 3.3).  Its
two steps flip the coins of the factor-two and one-shot schemes and are
handed to :func:`~repro.mds.pipeline.run_pipeline`, the Part I / II / III
cascade whose steps the deterministic routes derandomize.  Used by
experiment E4 (validating the Lemma 3.6/3.7 uncovered-probability bounds
under limited independence) and E7 (randomized-vs-deterministic
comparison); a failed phase (leaving some constraint uncovered) is *not*
retried — phase two repairs it, exactly as in the paper's process.
"""

from __future__ import annotations

import math
import random
from typing import TYPE_CHECKING, Dict

from repro.congest.cost import CostLedger
from repro.congest.network import Network
from repro.domsets.covering import CoveringInstance
from repro.mds.pipeline import MDSResult, PipelineParams, run_pipeline
from repro.rounding.abstract import RoundingScheme, execute_rounding
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
    coins of each phase from one shared ``k``-wise independent seed.  Every
    phase draws from one ``random.Random(seed)``, in pipeline order.
    """
    params = params or PipelineParams(eps=eps)
    rng = random.Random(seed)

    def flip(network: Network, scheme: RoundingScheme, stage: str):
        if kwise is None:
            coins = independent_coins(scheme, rng)
        else:
            m = max(12, math.ceil(math.log2(max(2, network.n))) + 2)
            coins = kwise_coins(scheme, k=kwise, m=m, rng=rng)
        ledger = CostLedger()
        ledger.charge(stage, 2)
        return execute_rounding(scheme, coins).projected, ledger

    def factor_two_step(network: Network, values: Dict[int, float], eps2: float, r: float):
        base = CoveringInstance.from_graph(network, values)
        return flip(network, factor_two_scheme(base, eps2, r), "part2-rounding")

    def one_shot_step(network: Network, values: Dict[int, float]):
        base = CoveringInstance.from_graph(network, values)
        return flip(network, one_shot_scheme(base, base.max_constraint_degree), "part3-rounding")

    route = "randomized" + (f"/k={kwise}" if kwise else "/independent")
    result = run_pipeline(graph, params, factor_two_step, one_shot_step, route=route)
    result.params.update(seed=float(seed), kwise=float(kwise) if kwise is not None else -1.0)
    return result
