"""Set cover solvers: greedy baseline and the derandomized rounding route."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Set

from repro.congest.cost import CostLedger
from repro.coloring.distance2 import bipartite_distance2_coloring
from repro.derand.coloring_based import (
    ROUNDS_PER_COLOR,
    derandomized_rounding_with_coloring,
)
from repro.derand.estimators import EstimatorConfig
from repro.errors import InfeasibleSolutionError
from repro.fractional.lp import solve_covering_lp
from repro.rounding.abstract import RoundingScheme
from repro.rounding.schemes import halving_probabilities, one_shot_scheme
from repro.setcover.instance import SetCoverInstance
from repro.util.transmittable import TransmittableGrid


def greedy_set_cover(instance: SetCoverInstance) -> Set[int]:
    """Weighted greedy: repeatedly pick the set minimizing weight per newly
    covered element.  ``H(max set size)``-approximate."""
    uncovered: Set[int] = set(instance.universe)
    chosen: Set[int] = set()
    while uncovered:
        best, best_ratio = None, math.inf
        for sid in sorted(instance.sets):
            if sid in chosen:
                continue
            gain = len(instance.sets[sid] & uncovered)
            if gain == 0:
                continue
            ratio = instance.weight_of(sid) / gain
            if ratio < best_ratio:
                best, best_ratio = sid, ratio
        if best is None:
            raise InfeasibleSolutionError("universe not coverable")
        chosen.add(best)
        uncovered -= instance.sets[best]
    return chosen


@dataclass
class SetCoverResult:
    """Derandomized set cover plus provenance."""

    chosen: Set[int]
    weight: float
    lp_optimum: float
    initial_estimate: float
    num_colors: int
    ledger: CostLedger


def _factor_two_covering_step(
    covering,
    values,
    eps: float,
    r: float,
    s: int,
    grid,
    config: EstimatorConfig | None,
):
    """One Lemma 3.14 step on a generic covering instance (set cover)."""
    base = covering.with_values(values)
    boosted = base.boost_values(1.0 + eps, quantize=grid.up)
    threshold = 2.0 / r
    split = boosted.split_constraints(
        original_values=values, participation_threshold=threshold, s=s
    )
    scheme = RoundingScheme(split, halving_probabilities(split, threshold),
                            "factor-two/setcover",
                            params={"eps": eps, "r": float(r), "s": float(s)})
    participating = set(scheme.participating())
    coloring = bipartite_distance2_coloring(split, restrict=participating)
    cfg = config or EstimatorConfig(mode="chernoff")
    result = derandomized_rounding_with_coloring(scheme, coloring.colors, cfg)
    projected = result.outcome.projected
    new_values = {
        u: projected.get(origin, 0.0)
        for u, origin in zip(covering.ids.tolist(), covering.origin.tolist())
    }
    return new_values, coloring.num_colors


def approx_min_set_cover(
    instance: SetCoverInstance,
    raise_fraction: float = 0.25,
    config: EstimatorConfig | None = None,
    gradual: bool = False,
    f_target: float = 8.0,
    eps2: float = 0.3,
) -> SetCoverResult:
    """LP + derandomized rounding for set cover.

    ``raise_fraction`` plays the role of ``eps`` in Lemma 2.1's raising
    step: LP values below ``raise_fraction / (2 f)`` (``f`` = max element
    frequency) are lifted so the pruning/coloring machinery sees bounded
    fractionality.  Guarantee mirrors the MDS bound with ``Delta~`` replaced
    by the max element frequency.

    With ``gradual=True`` the full Section 3.4 cascade runs on the covering
    instance: factor-two doublings (Lemma 3.14, generic constraint
    splitting) until the inverse fractionality drops below ``f_target``,
    then the final one-shot step — demonstrating the paper's remark that
    the machinery applies to set cover "almost directly".
    """
    covering = instance.to_covering()
    lp = solve_covering_lp(covering)
    freq = instance.max_element_frequency
    lam = raise_fraction / (2.0 * max(1, freq))
    values = {u: max(x, lam) for u, x in lp.values.items()}
    # Repair LP tolerance: scale up slightly, cap at 1.
    values = {u: min(1.0, x * (1.0 + 1e-7) + 1e-12) for u, x in values.items()}
    base = covering.with_values(values)
    if not base.is_feasible():
        raise InfeasibleSolutionError("raised LP solution infeasible")

    ledger = CostLedger()
    grid = TransmittableGrid.for_n(max(2, covering.num_vars + covering.num_constraints))

    if gradual:
        nonzero = [x for x in values.values() if x > 1e-15]
        r = 1.0 / min(nonzero) if nonzero else 1.0
        iterations = 0
        while r > max(4.0, f_target) and iterations < 32:
            values, colors = _factor_two_covering_step(
                covering, values, eps=eps2, r=r, s=3, grid=grid, config=config
            )
            ledger.charge("lemma3.14-setcover", 3 * max(1, colors))
            base = covering.with_values(values)
            if not base.is_feasible():
                raise InfeasibleSolutionError(
                    f"gradual rounding iteration {iterations} lost feasibility"
                )
            nonzero = [x for x in values.values() if x > 1e-15]
            r_new = 1.0 / min(nonzero) if nonzero else 1.0
            if r_new > r / 1.5:
                break
            r = r_new
            iterations += 1

    pruned = base.prune_to_cover(max_members=None)
    scheme = one_shot_scheme(pruned, delta_tilde=max(2, freq), quantize=grid.up)

    participating = set(scheme.participating())
    coloring = bipartite_distance2_coloring(scheme.instance, restrict=participating)
    ledger.charge("lemma3.12-coloring", coloring.charged_rounds)

    cfg = config or EstimatorConfig(mode="exact-product")
    result = derandomized_rounding_with_coloring(scheme, coloring.colors, cfg)
    ledger.charge("lemma3.10-color-loop", ROUNDS_PER_COLOR * max(1, coloring.num_colors))

    chosen = {
        origin
        for origin, x in result.outcome.projected.items()
        if x >= 1.0 - 1e-9
    }
    if not instance.is_cover(chosen):
        raise InfeasibleSolutionError("derandomized set cover output invalid")
    return SetCoverResult(
        chosen=chosen,
        weight=instance.cover_weight(chosen),
        lp_optimum=lp.optimum,
        initial_estimate=result.initial_estimate,
        num_colors=coloring.num_colors,
        ledger=ledger,
    )
