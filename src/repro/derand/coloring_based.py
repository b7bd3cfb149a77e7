"""Derandomization via distance-2 colorings (Section 3.3).

:func:`derandomized_rounding_with_coloring` is Lemma 3.10: iterate the color
classes of a distance-2 coloring of the participating variables; all
variables in one class fix their coin simultaneously against a snapshot,
which is sound because same-colored variables share no constraint.

:func:`one_shot_via_coloring` is Lemma 3.13: prune every constraint of the
bipartite representation down to at most ``F`` covering members (left degree
``F``), color the value side with ``O(F * Delta~)`` colors (Lemma 3.12), and
derandomize the one-shot scheme with the exact product estimator.

:func:`factor_two_via_coloring` is Lemma 3.14: split constraint nodes so
each copy sees at most ``2s`` participating members (``s = 64 eps^-2
ln(Delta~)`` by default), color with ``O(s * Delta~)`` colors, and
derandomize the factor-two scheme with the Chernoff estimator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Mapping

from repro.congest.cost import CostLedger
from repro.congest.network import Network
from repro.coloring.distance2 import bipartite_distance2_coloring
from repro.derand.conditional import ConditionalExpectationEngine, DerandResult
from repro.derand.estimators import EstimatorConfig
from repro.domsets.covering import CoveringInstance
from repro.errors import InfeasibleSolutionError
from repro.rounding.abstract import RoundingScheme
from repro.rounding.schemes import halving_probabilities, one_shot_scheme
from repro.util.mathx import ceil_log2
from repro.util.transmittable import TransmittableGrid

if TYPE_CHECKING:
    import networkx as nx

#: Rounds per color class in the Lemma 3.10 loop: announce, alphas, decide.
ROUNDS_PER_COLOR = 3


@dataclass
class ColoringDerandOutput:
    """Result of one coloring-route rounding step."""

    values: Dict[int, float]
    result: DerandResult
    num_colors: int
    ledger: CostLedger
    scheme_name: str


def schedule_from_colors(
    scheme: RoundingScheme, colors: Mapping[int, int]
) -> list:
    """Batches of participating variables, one batch per color."""
    participants = scheme.participating()
    missing = [u for u in participants if u not in colors]
    if missing:
        raise InfeasibleSolutionError(
            f"{len(missing)} participating variables uncolored (e.g. {missing[:5]})"
        )
    buckets: Dict[int, list] = {}
    for u in participants:
        buckets.setdefault(colors[u], []).append(u)
    return [sorted(buckets[c]) for c in sorted(buckets)]


def derandomized_rounding_with_coloring(
    scheme: RoundingScheme,
    colors: Mapping[int, int],
    config: EstimatorConfig | None = None,
) -> DerandResult:
    """Lemma 3.10: run the conditional-expectation engine color by color."""
    engine = ConditionalExpectationEngine(scheme, config)
    return engine.run(schedule_from_colors(scheme, colors))


def one_shot_via_coloring(
    graph: nx.Graph | Network,
    values: Mapping[int, float],
    config: EstimatorConfig | None = None,
    grid: TransmittableGrid | None = None,
    model: str = "congest",
) -> ColoringDerandOutput:
    """Lemma 3.13: deterministic one-shot rounding, coloring route.

    ``values`` must be a feasible fractional dominating set; with
    fractionality ``1/F`` the pruned instance has left degree at most ``F``
    and the output is an integral dominating set of size at most
    ``ln(Delta~) A + n / Delta~`` plus quantization slack.  ``model``
    selects the charge rate of the coloring subroutine (``"congest"`` per
    Lemma 3.12, ``"local"`` per Corollary 1.3).  ``graph`` is an
    ``nx.Graph`` labelled ``0..n-1`` or its compiled
    :class:`~repro.congest.network.Network`.
    """
    base = CoveringInstance.from_graph(graph, values)
    n = base.num_vars
    grid = grid or TransmittableGrid.for_n(n)
    delta_tilde = max(1, base.max_constraint_degree)
    ledger = CostLedger()

    nonzero = base.x[base.x > 0]
    f_cap = int(math.ceil(1.0 / nonzero.min())) if nonzero.size else 1
    pruned = base.prune_to_cover(max_members=f_cap)
    scheme = one_shot_scheme(pruned, delta_tilde, quantize=grid.up)

    participating = set(scheme.participating())
    coloring = bipartite_distance2_coloring(
        scheme.instance, restrict=participating, n_network=n
    )
    ledger.charge("lemma3.12-coloring", coloring.charged_rounds_for(model, n))

    cfg = config or EstimatorConfig(mode="exact-product")
    result = derandomized_rounding_with_coloring(scheme, coloring.colors, cfg)
    ledger.charge("lemma3.10-color-loop", ROUNDS_PER_COLOR * max(1, coloring.num_colors))
    ledger.charge("rounding-execution", 2)

    return ColoringDerandOutput(
        values=result.outcome.projected,
        result=result,
        num_colors=coloring.num_colors,
        ledger=ledger,
        scheme_name="one-shot/coloring",
    )


def default_split_width(eps: float, delta_tilde: int, scale: float = 1.0) -> int:
    """``s = 64 eps^-2 ln(Delta~)`` (Lemma 3.14), with an experiment scale."""
    s = 64.0 * scale * math.log(max(2, delta_tilde)) / (eps * eps)
    return max(1, int(math.ceil(s)))


def factor_two_via_coloring(
    graph: nx.Graph | Network,
    values: Mapping[int, float],
    eps: float,
    r: float,
    s: int | None = None,
    constants_scale: float = 1.0,
    config: EstimatorConfig | None = None,
    grid: TransmittableGrid | None = None,
    model: str = "congest",
) -> ColoringDerandOutput:
    """Lemma 3.14: deterministic factor-two rounding, coloring route.

    ``r`` is the inverse fractionality of ``values``; participating
    variables (boosted value below ``2/r``) double or vanish.  Constraints
    are split so every copy sees at most ``2s`` participating members.
    ``graph`` is an ``nx.Graph`` labelled ``0..n-1`` or its compiled
    :class:`~repro.congest.network.Network`.
    """
    base = CoveringInstance.from_graph(graph, values)
    n = base.num_vars
    grid = grid or TransmittableGrid.for_n(n)
    delta_tilde = max(1, base.max_constraint_degree)
    if s is None:
        s = default_split_width(eps, delta_tilde, scale=constants_scale)
    ledger = CostLedger()

    boosted = base.boost_values(1.0 + eps, quantize=grid.up)
    threshold = 2.0 / r
    split = boosted.split_constraints(
        original_values=values,
        participation_threshold=threshold,
        s=s,
    )
    scheme = RoundingScheme(
        instance=split,
        p=halving_probabilities(split, threshold),
        name="factor-two/split",
        params={"eps": eps, "r": float(r), "s": float(s)},
    )

    participating = set(scheme.participating())
    coloring = bipartite_distance2_coloring(
        scheme.instance, restrict=participating, n_network=n
    )
    ledger.charge("lemma3.12-coloring", coloring.charged_rounds_for(model, n))

    cfg = config or EstimatorConfig(mode="chernoff")
    result = derandomized_rounding_with_coloring(scheme, coloring.colors, cfg)
    ledger.charge("lemma3.10-color-loop", ROUNDS_PER_COLOR * max(1, coloring.num_colors))
    ledger.charge("rounding-execution", 2)

    return ColoringDerandOutput(
        values=result.outcome.projected,
        result=result,
        num_colors=coloring.num_colors,
        ledger=ledger,
        scheme_name="factor-two/coloring",
    )


def charged_rounds_formula_theorem12(
    n: int, delta: int, eps: float
) -> int:
    """The Theorem 1.2 round bound
    ``O(Delta poly log Delta + poly log Delta log* n)`` with unit constants,
    for comparison columns in experiment tables."""
    log_delta = max(1.0, math.log2(max(2, delta)))
    log_star_n = max(1, ceil_log2(max(2, n)).bit_length())
    return int(
        math.ceil(
            delta * log_delta ** 2 / (eps * eps)
            + log_delta ** 2 * log_star_n / (eps * eps)
        )
    )
