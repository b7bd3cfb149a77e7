"""Abstract randomized rounding process (paper Section 3.1).

Input: a covering instance with values ``x(u)`` and per-variable rounding
probabilities ``p(u) >= x(u)``.

* Phase one: every variable independently becomes ``X_u = x(u)/p(u)`` with
  probability ``p(u)`` and ``0`` otherwise (variables with ``p(u) = 1`` keep
  their value deterministically — they "do not take part in the rounding").
* Phase two: every constraint that is violated after phase one makes its
  origin join the solution with value 1.

Lemma 3.1 gives (1) feasibility of the output with fractionality
``min_u x(u)/p(u)`` and (2) expected size ``A + sum_v Pr(E_v)``; both are
exercised directly by the test-suite via :func:`execute_rounding` and
:func:`expected_output_size`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Set, Tuple

import numpy as np

from repro.domsets.covering import CoveringInstance, ltr_sum
from repro.errors import InfeasibleSolutionError


@dataclass(frozen=True)
class RoundingScheme:
    """A covering instance paired with rounding probabilities.

    ``instance`` already carries the boosted values (``min(1, ln(D~) x')``
    for one-shot, ``min(1, (1+eps) x')`` for factor-two); ``p`` maps every
    variable id to its rounding probability (missing ids round with 1).
    ``probabilities`` holds the same over the instance's variable rows.
    """

    instance: CoveringInstance
    p: Mapping[int, float]
    name: str
    #: scheme parameters, kept for traceability in experiment output
    params: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        inst = self.instance
        p = inst.gather(self.p, 1.0)
        p.flags.writeable = False
        object.__setattr__(self, "probabilities", p)
        bad_p = ~((0.0 < p) & (p <= 1.0))
        bad = np.flatnonzero(bad_p | (p + 1e-12 < inst.x))
        if bad.size:
            row = int(bad[0])
            u, pu, x = int(inst.ids[row]), float(p[row]), float(inst.x[row])
            if bad_p[row]:
                raise InfeasibleSolutionError(f"probability p({u}) = {pu} outside (0, 1]")
            raise InfeasibleSolutionError(
                f"scheme requires p(u) >= x(u); var {u} has p {pu} < x {x}"
            )

    def success_value(self, u: int) -> float:
        """``x(u)/p(u)``: the variable's value if its coin succeeds."""
        row = int(self.instance.rows_of([u])[0])
        if row < 0:
            raise KeyError(u)
        return float(self.instance.x[row] / self.probabilities[row])

    def participating(self) -> List[int]:
        """Variables that flip a real coin (``p not in {0, 1}`` and x > 0)."""
        p = self.probabilities
        flips = (0.0 < p) & (p < 1.0) & (self.instance.x > 0.0)
        return sorted(self.instance.ids[flips].tolist())

    @property
    def fractionality_after(self) -> float:
        """``min_u x(u)/p(u)`` over non-zero variables (Lemma 3.1 part 1)."""
        x = self.instance.x
        nonzero = x > 0
        if not nonzero.any():
            return float("inf")
        return float((x[nonzero] / self.probabilities[nonzero]).min())


@dataclass
class RoundingOutcome:
    """Result of executing both phases of the process."""

    phase_one: Dict[int, float]
    violated_constraints: List[int]
    joined_origins: Set[int]
    projected: Dict[int, float]
    #: per-copy size (counts every violated constraint's join weight, which
    #: is the quantity the paper's expectation bounds control)
    accounted_size: float

    def origin_set(self, tol: float = 1e-9) -> Set[int]:
        """Origins with final value 1 (integral solutions only)."""
        return {o for o, x in self.projected.items() if x >= 1.0 - tol}


def execute_rounding(
    scheme: RoundingScheme, coin: Callable[[int], bool]
) -> RoundingOutcome:
    """Run phase one with the supplied coins and phase two deterministically.

    ``coin(u)`` is consulted only for participating variables, in instance
    order; it may be a true RNG, a k-wise independent generator, or the
    deterministic decisions produced by the conditional-expectation engine.
    """
    inst = scheme.instance
    x, p = inst.x, scheme.probabilities
    flips = (x > 0.0) & (p < 1.0)
    heads = np.array([coin(u) for u in inst.ids[flips].tolist()], dtype=bool)
    phase_one = np.where(x > 0.0, x, 0.0)
    phase_one[flips] = np.where(heads, x[flips] / p[flips], 0.0)

    violated_rows = np.flatnonzero(inst.member_sums(phase_one) < inst.c - 1e-9)
    violated = inst.cids[violated_rows].tolist()
    joined = {origin for origin in inst.corigin[violated_rows].tolist()}
    projected = inst.project(phase_one, joined)

    accounted = ltr_sum(inst.weight * phase_one) + ltr_sum(
        inst.join_weight[violated_rows]
    )
    return RoundingOutcome(
        phase_one=inst.by_id(phase_one),
        violated_constraints=sorted(violated),
        joined_origins=joined,
        projected=projected,
        accounted_size=accounted,
    )


def expected_output_size(
    scheme: RoundingScheme, uncovered_probabilities: Mapping[int, float]
) -> float:
    """Lemma 3.1 part 2: ``A + sum_v Pr(E_v)`` (weighted).

    ``uncovered_probabilities`` maps constraint id to (an upper bound on)
    the probability that the constraint is violated after phase one.
    """
    a = scheme.instance.size()
    constraints = scheme.instance.constraints
    penalty = ltr_sum(np.fromiter(
        (constraints[cid].join_weight * pr for cid, pr in uncovered_probabilities.items()),
        float, len(uncovered_probabilities),
    ))
    return a + penalty


def exact_uncovered_probability(
    scheme: RoundingScheme, cid: int, enum_limit: int = 20
) -> float:
    """Exact ``Pr(E_v)`` for one constraint by enumerating coin outcomes.

    Exponential in the number of participating members — a test oracle for
    small instances, not a production path.
    """
    inst = scheme.instance
    cn = inst.constraints[cid]
    deterministic = 0.0
    coins: List[Tuple[float, float]] = []  # (success value, probability)
    for u in cn.members:
        var = inst.value_vars[u]
        pu = scheme.p.get(u, 1.0)
        if var.x <= 0.0:
            continue
        if pu >= 1.0:
            deterministic += var.x
        else:
            coins.append((var.x / pu, pu))
    if deterministic >= cn.c - 1e-12:
        return 0.0
    if len(coins) > enum_limit:
        raise InfeasibleSolutionError(
            f"constraint {cid} has {len(coins)} coins, enumeration limit {enum_limit}"
        )
    return uncovered_probability(cn.c, deterministic, coins)


def uncovered_probability(c: float, fixed: float, coins: List[Tuple[float, float]]) -> float:
    """Exact ``Pr(fixed + sum of successful coins < c)`` over independent
    coins ``(success value, probability)``, by enumerating their outcomes."""
    total = 0.0
    for mask in range(1 << len(coins)):
        prob = 1.0
        sum_x = fixed
        for i, (w, p) in enumerate(coins):
            if mask >> i & 1:
                prob *= p
                sum_x += w
            else:
                prob *= 1.0 - p
        if sum_x < c - 1e-12:
            total += prob
    return total
