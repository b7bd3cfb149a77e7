"""Set cover solvers: greedy baseline and the derandomized rounding route."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Set

from repro.congest.cost import CostLedger
from repro.derand.coloring_based import factor_two_via_coloring, one_shot_via_coloring
from repro.derand.estimators import EstimatorConfig
from repro.domsets.covering import fractionality_of
from repro.errors import InfeasibleSolutionError
from repro.fractional.lp import solve_covering_lp
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
        r = 1.0 / fractionality_of(values)
        iterations = 0
        while r > max(4.0, f_target) and iterations < 32:
            step = factor_two_via_coloring(
                base, eps=eps2, r=r, s=3, config=config, grid=grid
            )
            ledger.merge(step.ledger, prefix=f"part2/iter{iterations}/")
            # The step lists positive values only, and with_values would
            # keep the old x of an id it omits.
            values = {u: step.values.get(u, 0.0) for u in covering.ids.tolist()}
            base = covering.with_values(values)
            if not base.is_feasible():
                raise InfeasibleSolutionError(
                    f"gradual rounding iteration {iterations} lost feasibility"
                )
            r_new = 1.0 / fractionality_of(values)
            if r_new > r / 1.5:
                break
            r = r_new
            iterations += 1

    final = one_shot_via_coloring(base, config=config, grid=grid)
    ledger.merge(final.ledger, prefix="part3/")
    chosen = {
        origin
        for origin, x in final.values.items()
        if x >= 1.0 - 1e-9
    }
    if not instance.is_cover(chosen):
        raise InfeasibleSolutionError("derandomized set cover output invalid")
    return SetCoverResult(
        chosen=chosen,
        weight=instance.cover_weight(chosen),
        lp_optimum=lp.optimum,
        initial_estimate=final.result.initial_estimate,
        num_colors=final.num_colors,
        ledger=ledger,
    )
