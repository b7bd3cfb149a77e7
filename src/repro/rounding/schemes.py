"""The two instantiations of the abstract rounding process (Section 3.2).

*One-shot rounding* boosts every value by ``ln(Delta~)`` and rounds with
``p(v) = x(v)``, turning a fractional solution into an integral one in a
single step (phase-one values are 0/1 because ``x/p = 1``).

*Factor-two rounding* boosts by ``(1+eps)`` and lets every variable with
value below ``2/r`` double itself with probability 1/2, doubling the
fractionality ``1/r -> 2/r`` while inflating the size by roughly ``(1+eps)``.
"""

from __future__ import annotations

import math
from typing import Callable, Dict

import numpy as np

from repro.domsets.covering import CoveringInstance
from repro.errors import InfeasibleSolutionError
from repro.rounding.abstract import RoundingScheme


def one_shot_scheme(
    instance: CoveringInstance,
    delta_tilde: int,
    quantize: Callable[[float], float] | None = None,
) -> RoundingScheme:
    """One-shot rounding: ``x = min(1, ln(Delta~) x')``, ``p = x``.

    ``delta_tilde`` is ``Delta + 1`` of the graph the instance came from
    (for set cover: the largest constraint degree).
    """
    if delta_tilde < 1:
        raise InfeasibleSolutionError(f"delta_tilde must be >= 1, got {delta_tilde}")
    boost = max(1.0, math.log(delta_tilde))
    boosted = instance.boost_values(boost, quantize=quantize)
    x = boosted.x
    return RoundingScheme(
        instance=boosted,
        p=boosted.by_id(np.where(x > 0.0, x, 1.0)),
        name="one-shot",
        params={"delta_tilde": float(delta_tilde), "boost": boost},
    )


def halving_probabilities(instance: CoveringInstance, threshold: float) -> Dict[int, float]:
    """Factor-two coins: ``p = 1/2`` for values in ``(0, threshold)``, else 1."""
    x = instance.x
    return instance.by_id(np.where((x > 0.0) & (x < threshold), 0.5, 1.0))


def factor_two_scheme(
    instance: CoveringInstance,
    eps: float,
    r: float,
    quantize: Callable[[float], float] | None = None,
) -> RoundingScheme:
    """Factor-two rounding: ``x = min(1, (1+eps) x')``; variables with
    ``x < 2/r`` flip a fair coin to double, the rest keep their value.

    ``r`` is the inverse fractionality of the *input* (every non-zero input
    value is at least ``1/r``).
    """
    if eps <= 0:
        raise InfeasibleSolutionError(f"eps must be positive, got {eps}")
    if r < 4:
        raise InfeasibleSolutionError(
            f"factor-two rounding needs r >= 4 so doubled values stay <= 1, got {r}"
        )
    boosted = instance.boost_values(1.0 + eps, quantize=quantize)
    threshold = 2.0 / r
    return RoundingScheme(
        instance=boosted,
        p=halving_probabilities(boosted, threshold),
        name="factor-two",
        params={"eps": eps, "r": float(r), "threshold": threshold},
    )
