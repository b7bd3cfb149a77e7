"""Shared pipeline skeleton for the Section 3.4 proofs.

All MDS algorithms follow the same three parts:

* **Part I** — Lemma 2.1: a ``(1+eps_1)``-approximate fractional dominating
  set with fractionality ``eps_1 / (2 Delta~)`` (``r = 2 Delta~ / eps_1``).
* **Part II** — iterate factor-two rounding (Lemma 3.9 or 3.14) while the
  inverse fractionality ``r`` exceeds ``F = 256 eps_2^-3 ln Delta~``, each
  iteration doubling the fractionality at a ``(1 + eps_2)`` cost factor.
* **Part III** — one final one-shot rounding (Lemma 3.8 or 3.13), paying the
  ``ln(Delta~)`` factor and producing the integral dominating set.

The paper's constants make ``F`` astronomically large, so at laptop scale
Part II is legitimately skipped ("for small constant Delta part II is not
executed at all", Section 3.4); experiments that exercise Part II shrink
the constants through :attr:`PipelineParams.constants_scale`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Set

import numpy as np

from repro.analysis.bounds import theorem11_approximation_bound
from repro.analysis.verify import require_dominating_set
from repro.congest.cost import CostLedger
from repro.congest.network import Network, as_network, closed_neighborhoods
from repro.domsets.covering import CoveringInstance, fractionality_of
from repro.errors import GraphError
from repro.fractional.raising import kmw06_initial_fds

if TYPE_CHECKING:
    import networkx as nx


@dataclass(frozen=True)
class PipelineParams:
    """Knobs shared by both deterministic routes.

    eps:
        Target approximation slack; the output is guaranteed at most
        ``(1 + eps)(1 + ln(Delta + 1))`` times the LP optimum.
    part1_provider:
        ``"lp"`` or ``"distributed"`` (see :mod:`repro.fractional`).
    constants_scale:
        Multiplies the theory constants (``256 eps^-3 ln D~`` and
        ``64 eps^-2 ln D~``); 1.0 = paper-faithful, smaller values force
        Part II to engage at laptop scale (experiments E5/E12).
    max_factor_two_iterations:
        Safety cap on Part II length.
    """

    eps: float = 0.5
    part1_provider: str = "lp"
    constants_scale: float = 1.0
    max_factor_two_iterations: int = 64
    #: direct overrides for experiments that study Part II in isolation
    #: (the paper's cascaded constants make F astronomically large, so at
    #: laptop scale Part II only engages through these)
    eps2_override: float | None = None
    f_target_override: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.eps <= 1.0:
            raise GraphError(f"eps must be in (0, 1], got {self.eps}")

    def derived(self, max_degree: int) -> "DerivedConstants":
        """The Section 3.4 parameter cascade."""
        delta_tilde = max_degree + 1
        eps1 = min(self.eps / 16.0, 0.25)
        rho_guess = max(1.0, math.log2(max(2.0, delta_tilde / self.eps)))
        eps2 = (
            self.eps2_override
            if self.eps2_override is not None
            else eps1 / (100.0 * rho_guess)
        )
        # Part II engages only while r > F; scaled constants shrink F.
        if self.f_target_override is not None:
            f_target = max(4.0, self.f_target_override)
        else:
            f_target = max(
                4.0,
                256.0
                * self.constants_scale
                * math.log(max(2, delta_tilde))
                / eps2 ** 3,
            )
        return DerivedConstants(
            delta_tilde=delta_tilde,
            eps1=eps1,
            eps2=eps2,
            rho_guess=rho_guess,
            f_target=f_target,
        )


@dataclass(frozen=True)
class DerivedConstants:
    delta_tilde: int
    eps1: float
    eps2: float
    rho_guess: float
    f_target: float


@dataclass
class StageTrace:
    """Size/fractionality bookkeeping after one pipeline stage."""

    stage: str
    size: float
    fractionality: float
    detail: str = ""


@dataclass
class MDSResult:
    """An integral dominating set plus full pipeline provenance.
    ``lp_optimum`` is Part I's LP optimum (``None`` with water-filling)."""

    graph: nx.Graph
    dominating_set: Set[int]
    ledger: CostLedger
    trace: List[StageTrace] = field(default_factory=list)
    params: Dict[str, float] = field(default_factory=dict)
    route: str = ""
    lp_optimum: Optional[float] = None

    @property
    def size(self) -> int:
        return len(self.dominating_set)

    def approximation_bound(self) -> float:
        """The Theorem 1.1/1.2 guarantee for this instance's parameters,
        with Delta read as ``run_pipeline`` reads it (max |N[v]| - 1)."""
        max_degree = int(np.diff(closed_neighborhoods(self.graph)[0]).max(initial=1)) - 1
        return theorem11_approximation_bound(self.params.get("eps", 0.5), max_degree)

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable summary (for the CLI and downstream tooling)."""
        return {
            "route": self.route,
            "size": self.size,
            "dominating_set": sorted(self.dominating_set),
            "n": self.graph.number_of_nodes(),
            "params": dict(self.params),
            "rounds_simulated": self.ledger.simulated_rounds,
            "rounds_charged": self.ledger.charged_rounds,
            "trace": [
                {
                    "stage": t.stage,
                    "size": t.size,
                    "fractionality": t.fractionality,
                    "detail": t.detail,
                }
                for t in self.trace
            ],
        }


def run_pipeline(
    graph: nx.Graph,
    params: PipelineParams,
    factor_two_step: Callable[[Network, Dict[int, float], float, float], tuple],
    one_shot_step: Callable[[Network, Dict[int, float]], tuple],
    route: str,
) -> MDSResult:
    """Execute Parts I-III with the supplied rounding steps.

    ``factor_two_step(network, values, eps2, r) -> (new_values, ledger)``
    and ``one_shot_step(network, values) -> (final_values, ledger)`` are the
    route specific Lemmas (3.9/3.14 and 3.8/3.13 respectively).  The graph
    is compiled into one :class:`~repro.congest.network.Network` that every
    part builds its covering instances from.
    """
    n = graph.number_of_nodes()
    if n == 0:
        raise GraphError("empty graph")
    network = as_network(graph)
    # Delta is max |N[v]| - 1, so a self-loop does not count.
    consts = params.derived(int(np.diff(network.closed_csr()[0]).max()) - 1)
    ledger = CostLedger()
    trace: List[StageTrace] = []

    # -- Part I ----------------------------------------------------------
    initial = kmw06_initial_fds(
        network, eps=consts.eps1, provider=params.part1_provider
    )
    ledger.merge(initial.ledger, prefix="part1/")
    values = initial.values
    fractionality = fractionality_of(values)
    trace.append(
        StageTrace(
            stage="part1-fractional",
            size=initial.raised_size,
            fractionality=fractionality,
            detail=f"provider={initial.provider} size_before_raise={initial.provider_size:.4f}",
        )
    )

    # -- Part II ---------------------------------------------------------
    r = 1.0 / fractionality
    iterations = 0
    while r > consts.f_target and iterations < params.max_factor_two_iterations:
        values, step_ledger = factor_two_step(network, values, consts.eps2, r)
        ledger.merge(step_ledger, prefix=f"part2/iter{iterations}/")
        fds = CoveringInstance.from_graph(network, values)
        fds.require_feasible(f"Part II iteration {iterations}")
        fractionality = fractionality_of(values)
        r_new = 1.0 / fractionality
        trace.append(
            StageTrace(
                stage=f"part2-factor-two-{iterations}",
                size=fds.size(),
                fractionality=fractionality,
                detail=f"r {r:.4g} -> {r_new:.4g}",
            )
        )
        if r_new > r / 1.5:
            # The doubling stalled (can happen only with degenerate scaled
            # constants); stop rather than loop.
            r = r_new
            break
        r = r_new
        iterations += 1

    # -- Part III ---------------------------------------------------------
    final_values, final_ledger = one_shot_step(network, values)
    ledger.merge(final_ledger, prefix="part3/")
    ds = {v for v, x in final_values.items() if x >= 1.0 - 1e-9}
    require_dominating_set(graph, ds, f"{route} output")
    trace.append(
        StageTrace(
            stage="part3-one-shot",
            size=float(len(ds)),
            fractionality=1.0,
            detail=f"factor-two iterations={iterations}",
        )
    )

    return MDSResult(
        graph=graph,
        dominating_set=ds,
        ledger=ledger,
        trace=trace,
        params={
            "eps": params.eps,
            "eps1": consts.eps1,
            "eps2": consts.eps2,
            "f_target": consts.f_target,
            "constants_scale": params.constants_scale,
            "part2_iterations": float(iterations),
        },
        route=route,
        lp_optimum=initial.lp_optimum,
    )
