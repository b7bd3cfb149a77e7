"""Dominating-set data structures.

:class:`~repro.domsets.covering.CoveringInstance` is the one model of
Definition 2.1 (constrained fractional dominating sets): ``from_graph``
builds Section 3.3's bipartite representation ``B_G`` of a graph, whose
constraint of ``v`` spans the inclusive neighbourhood ``N(v)``.  Its pruned
and split variants (Lemmas 3.13, 3.14) and general set-cover instances
share the structure, so the rounding and derandomization machinery is
written once.
"""

from repro.domsets.covering import (
    Constraint,
    CoveringInstance,
    ValueVar,
    fractionality_of,
)

__all__ = [
    "fractionality_of",
    "Constraint",
    "CoveringInstance",
    "ValueVar",
]
