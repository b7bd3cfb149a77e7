"""Round-cost ledger: separates *simulated* from *charged* rounds.

Some substrates are substituted by centralized-deterministic equivalents
(see "Charged stages" in docs/architecture.md); their CONGEST round cost
is *charged* using the paper's stated complexity formulas instead of being
measured.  The ledger keeps the two kinds of cost in separate columns so
experiment tables can report them honestly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.util.mathx import ceil_log2, log_star


def gk18_decomposition_rounds(n: int, k: int = 2) -> int:
    """Charged rounds for the [GK18] k-hop network decomposition (Thm 3.2).

    ``k * f(n)`` with ``f(n) = 2^O(sqrt(log n log log n))``; we instantiate the
    O(.) constant as 1, which is the convention the paper itself uses when
    composing round bounds.
    """
    if n < 2:
        return 1
    log_n = math.log2(n)
    f_n = 2.0 ** math.sqrt(log_n * max(1.0, math.log2(max(2.0, log_n))))
    return max(1, int(math.ceil(k * f_n)))


def kmw06_lp_rounds(max_degree: int, eps: float) -> int:
    """Charged rounds for the [KMW06] fractional solver (Lemma 2.1):
    ``O(eps^-4 log^2 Delta)`` with constant 1.
    """
    delta = max(2, max_degree)
    return max(1, int(math.ceil((math.log2(delta) ** 2) / (eps ** 4))))


def bek15_coloring_rounds(num_colors_target: int, initial_colors: int, n: int) -> int:
    """Charged rounds for [BEK15]-style (degree+1)-coloring used by
    Lemma 3.12: ``O(target + log* n)`` to go from ``initial_colors`` (here:
    IDs) down to ``target`` colors.
    """
    return max(1, num_colors_target + log_star(max(2, n)))


def ruling_set_rounds(n: int) -> int:
    """Charged rounds for the [ALGP89, HKN16] ruling set: ``O(log^3 n)``."""
    return max(1, int(math.ceil(math.log2(max(2, n)) ** 3)))


@dataclass
class CostLedger:
    """Accumulates simulated and charged rounds per pipeline stage.

    ``simulated`` entries come from actual :class:`~repro.congest.simulator.
    Simulator` executions; ``charged`` entries apply a formula from the paper
    for a substituted oracle.  ``message_bits`` tracks the largest message
    observed across all simulated stages.
    """

    entries: List[Tuple[str, str, int]] = field(default_factory=list)
    max_message_bits: int = 0

    def charge(self, stage: str, rounds: int) -> None:
        """Record ``rounds`` modelled rounds for ``stage``."""
        self.entries.append((stage, "charged", max(0, int(rounds))))

    def simulate(self, stage: str, rounds: int, max_message_bits: int = 0) -> None:
        """Record ``rounds`` actually simulated rounds for ``stage``."""
        self.entries.append((stage, "simulated", max(0, int(rounds))))
        if max_message_bits > self.max_message_bits:
            self.max_message_bits = max_message_bits

    @property
    def simulated_rounds(self) -> int:
        return sum(r for _, kind, r in self.entries if kind == "simulated")

    @property
    def charged_rounds(self) -> int:
        return sum(r for _, kind, r in self.entries if kind == "charged")

    @property
    def total_rounds(self) -> int:
        return self.simulated_rounds + self.charged_rounds

    def by_stage(self) -> Dict[str, int]:
        """Total rounds per stage name."""
        totals: Dict[str, int] = {}
        for stage, _, rounds in self.entries:
            totals[stage] = totals.get(stage, 0) + rounds
        return totals

    def merge(self, other: "CostLedger", prefix: str = "") -> None:
        """Fold another ledger's entries into this one."""
        for stage, kind, rounds in other.entries:
            self.entries.append((prefix + stage, kind, rounds))
        if other.max_message_bits > self.max_message_bits:
            self.max_message_bits = other.max_message_bits

    def summary(self) -> str:
        lines = [
            f"{stage:<40s} {kind:>10s} {rounds:>10d}"
            for stage, kind, rounds in self.entries
        ]
        lines.append(
            f"{'TOTAL':<40s} {'sim+chg':>10s} "
            f"{self.simulated_rounds:>5d}+{self.charged_rounds:<5d}"
        )
        return "\n".join(lines)


def bits_for_id(n: int) -> int:
    """Bits needed for a node identifier in an ``n``-node network."""
    return max(1, ceil_log2(max(2, n)))
