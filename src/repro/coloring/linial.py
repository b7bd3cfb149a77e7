"""Linial-style iterated color reduction via cover-free set families.

One communication round maps a proper ``C``-coloring to a proper
``O((Delta log_q C)^2)``-coloring: color ``c`` is encoded as a polynomial
``f_c`` of degree ``d`` over ``GF(q)`` (its base-``q`` digits), represented
by the point set ``S_c = {(a, f_c(a)) : a in GF(q)}``.  Distinct polynomials
agree on at most ``d`` points, so if ``q > d * Delta`` each node finds a
point of its own set covered by no neighbor's set and adopts it as its new
color in ``[q^2]``.  Iterating shrinks ``n`` initial colors (the IDs) to
``O(Delta^2 log^2 Delta)`` in ``O(log* n)`` rounds — the [Lin92] bound the
[BEK15] coloring of Lemma 3.12 builds on.

The implementation is node-local: each step uses only a node's own color and
its neighbors' colors, exactly one CONGEST round of information.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List

from repro.coloring.greedy import validate_coloring
from repro.errors import ColoringError

if TYPE_CHECKING:
    import networkx as nx


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _next_prime(n: int) -> int:
    candidate = max(2, n)
    while not _is_prime(candidate):
        candidate += 1
    return candidate


def _family_parameters(num_colors: int, max_degree: int) -> tuple[int, int]:
    """Smallest prime ``q`` and degree ``d`` with ``q^(d+1) >= num_colors``
    and ``q > d * Delta`` (so the cover-free property holds)."""
    delta = max(1, max_degree)
    q = _next_prime(delta + 1)
    while True:
        if q >= num_colors:
            d = 0
        else:
            d = max(1, math.ceil(math.log(num_colors) / math.log(q)) - 1)
            while q ** (d + 1) < num_colors:
                d += 1
        if q > d * delta:
            return q, d
        q = _next_prime(q + 1)


def _poly_digits(color: int, q: int, d: int) -> List[int]:
    digits = []
    value = color
    for _ in range(d + 1):
        digits.append(value % q)
        value //= q
    return digits


def _point_set(color: int, q: int, d: int) -> List[int]:
    """``S_color``: points ``a*q + f_color(a)`` for all ``a`` in GF(q)."""
    coeffs = _poly_digits(color, q, d)
    points = []
    for a in range(q):
        acc = 0
        for coef in reversed(coeffs):
            acc = (acc * a + coef) % q
        points.append(a * q + acc)
    return points


@dataclass(frozen=True)
class LinialResult:
    """Final coloring with per-iteration color counts (one round each)."""

    colors: Dict[int, int]
    num_colors: int
    rounds: int
    color_counts: List[int]


def linial_one_round(
    graph: nx.Graph, colors: Dict[int, int], max_degree: int | None = None
) -> Dict[int, int]:
    """One Linial reduction round: every node recolors simultaneously."""
    if not colors:
        return {}
    delta = max_degree if max_degree is not None else max(
        (d for _, d in graph.degree()), default=0
    )
    num_colors = max(colors.values()) + 1
    q, d = _family_parameters(num_colors, delta)
    new_colors: Dict[int, int] = {}
    for v in graph.nodes():
        own = set(_point_set(colors[v], q, d))
        for u in graph.neighbors(v):
            if colors[u] == colors[v]:
                raise ColoringError(
                    f"input coloring improper at edge ({v}, {u})"
                )
            own -= set(_point_set(colors[u], q, d))
        if not own:
            raise ColoringError(
                f"cover-free property failed at node {v} (q={q}, d={d})"
            )
        new_colors[v] = min(own)
    return new_colors


def linial_coloring(
    graph: nx.Graph, initial: Dict[int, int] | None = None, max_rounds: int = 64
) -> LinialResult:
    """Iterate one-round reductions until the palette stops shrinking.

    Starts from unique IDs (the trivially proper ``n``-coloring) unless an
    ``initial`` proper coloring is supplied.
    """
    colors = dict(initial) if initial is not None else {v: v for v in graph.nodes()}
    validate_coloring(graph, colors)
    counts = [max(colors.values()) + 1 if colors else 0]
    rounds = 0
    delta = max((d for _, d in graph.degree()), default=0)
    for _ in range(max_rounds):
        num_colors = max(colors.values()) + 1 if colors else 0
        if num_colors <= 1:
            break
        q, d = _family_parameters(num_colors, delta)
        if q * q >= num_colors:
            break  # no further shrink possible
        colors = linial_one_round(graph, colors, max_degree=delta)
        rounds += 1
        counts.append(max(colors.values()) + 1 if colors else 0)
    validate_coloring(graph, colors)
    # Densify color indices for downstream consumers.
    used = sorted(set(colors.values()))
    remap = {c: i for i, c in enumerate(used)}
    colors = {v: remap[c] for v, c in colors.items()}
    return LinialResult(
        colors=colors,
        num_colors=len(used),
        rounds=rounds,
        color_counts=counts,
    )
