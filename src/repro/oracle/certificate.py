"""The certification ladder: ``certify(graph, ds)`` -> :class:`Certificate`.

The paper's headline is an approximation *guarantee* — yet a measured
``ds_size`` alone certifies nothing.  This module closes the loop: given
a graph and a dominating set (or just its size), it computes the tightest
optimum bound the instance affords and returns a typed certificate with
the measured ratios.

The bound ladder, strongest rung first:

1. **exact** — the branch-and-bound of :mod:`repro.baselines.exact`
   (``n <= exact_node_limit``, search budget so a hard instance cannot
   stall a sweep);
2. **ilp** — HiGHS branch-and-cut (:mod:`repro.oracle.ilp`), wall-clock
   time limited; a proven solve yields OPT, a time-limited one an
   incumbent upper bound;
3. **lp** — the covering-LP optimum (:mod:`repro.fractional.lp`), a
   lower bound on OPT that is always available.

``oracle="auto"`` walks the ladder top-down and records which rung
produced the bound; ``"exact"``/``"ilp"``/``"lp"`` pin a rung.  Every
certificate carries ``ratio_vs_lp`` (the LP bound is computed on all
rungs); ``ratio_vs_opt`` is present exactly when the optimum was proven.

Certificates are memoized in the shared :mod:`repro.oracle.cache` when
the caller supplies a ``cache_key`` (the deterministic topology
identity) — repeat cells return the identical object without re-solving.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from time import perf_counter
from typing import TYPE_CHECKING, Iterable, Optional, Union

from repro.analysis.verify import require_dominating_set
from repro.baselines.exact import exact_mds
from repro.domsets.covering import CoveringInstance
from repro.errors import (
    LPError,
    LPInfeasibleError,
    ReproError,
    SearchBudgetExceededError,
)
from repro.fractional.lp import solve_covering_lp
from repro.oracle.cache import oracle_cache
from repro.oracle.ilp import solve_mds_ilp

if TYPE_CHECKING:
    import networkx as nx

#: Oracle modes ``certify`` accepts.
ORACLE_MODES = ("auto", "exact", "ilp", "lp")

#: Default ladder knobs: the exact rung covers the test-suite zoo, the
#: search budget bounds its worst case at well under a second, and the
#: ILP time limit keeps a pathological instance from stalling a sweep.
EXACT_NODE_LIMIT = 64
EXACT_SEARCH_BUDGET = 100_000
ILP_TIME_LIMIT_S = 10.0


def check_oracle_mode(mode: str) -> str:
    """``mode`` if it is an oracle mode, else a ``ValueError`` naming them."""
    if mode not in ORACLE_MODES:
        raise ValueError(
            f"unknown oracle mode {mode!r}; choose from {', '.join(ORACLE_MODES)}"
        )
    return mode


@dataclass(frozen=True)
class Certificate:
    """A certified quality statement about one dominating set.

    The sandwich ``lp_bound <= opt <= size`` holds whenever ``opt`` is
    present (up to LP solver tolerance); ``ratio_vs_opt`` is ``None``
    exactly when no rung proved the optimum, in which case
    ``ratio_vs_lp`` (always present, always >= ``ratio_vs_opt``) is the
    honest — conservative — quality figure.  ``incumbent`` reports the
    best solution a time-limited ILP found: an upper bound on OPT, never
    used for ratios.
    """

    size: int
    opt: Optional[int]
    lp_bound: float
    ratio_vs_opt: Optional[float]
    ratio_vs_lp: float
    method: str
    status: str
    solve_wall_s: float
    incumbent: Optional[int] = None

    @property
    def proven(self) -> bool:
        """Whether the optimum itself (not just a bound) was certified."""
        return self.opt is not None


def lp_lower_bound(graph: nx.Graph) -> float:
    """The covering-LP optimum of ``graph`` — a lower bound on MDS OPT."""
    if graph.number_of_nodes() == 0:
        return 0.0
    instance = CoveringInstance.from_graph(graph, {v: 0.0 for v in graph.nodes()})
    return solve_covering_lp(instance).optimum


def _ratio(size: int, bound: float) -> float:
    if bound > 0:
        return size / bound
    return 1.0 if size == 0 else math.inf


def certify(
    graph: nx.Graph,
    ds: Union[int, Iterable[int]],
    oracle: str = "auto",
    exact_node_limit: int = EXACT_NODE_LIMIT,
    search_budget: Optional[int] = EXACT_SEARCH_BUDGET,
    time_limit_s: float = ILP_TIME_LIMIT_S,
    cache_key: Optional[tuple] = None,
) -> Certificate:
    """Certify a dominating set against the strongest affordable bound.

    ``ds`` is either the solution set itself (validated for domination
    before anything is solved — certifying an infeasible set would be
    nonsense) or its size (the experiment layer's case: records carry
    ``ds_size``, and the simulation already validated the set).

    With a ``cache_key`` (see
    :func:`repro.oracle.cache.topology_cache_key`), the full certificate
    is memoized on (key, size, oracle knobs): deterministic repeat cells
    return the identical object without re-solving.
    """
    check_oracle_mode(oracle)
    if isinstance(ds, int):
        size = ds
    else:
        size = len(require_dominating_set(graph, ds, "certified solution"))

    cache = oracle_cache()
    full_key = None
    if cache_key is not None:
        full_key = (
            cache_key, size, oracle, exact_node_limit, search_budget, time_limit_s,
        )
        cached = cache.lookup(full_key)
        if cached is not None:
            return cached  # type: ignore[return-value]

    certificate = _certify_uncached(
        graph, size, oracle, exact_node_limit, search_budget, time_limit_s
    )
    if full_key is not None:
        cache.store(full_key, certificate)
    return certificate


def _certify_uncached(
    graph: nx.Graph,
    size: int,
    oracle: str,
    exact_node_limit: int,
    search_budget: Optional[int],
    time_limit_s: float,
) -> Certificate:
    start = perf_counter()
    n = graph.number_of_nodes()

    # The LP rung runs on every ladder walk: it is cheap, always
    # available, and ``ratio_vs_lp`` is part of every certificate.  An
    # infeasible covering LP is an instance-level fact and propagates;
    # a numerical LP failure only degrades the certificate when no
    # stronger rung supplies the optimum to stand in as its own bound.
    lp_failure: Optional[LPError] = None
    lp_bound: Optional[float] = None
    try:
        lp_bound = lp_lower_bound(graph)
    except LPInfeasibleError:
        raise
    except LPError as exc:
        lp_failure = exc

    opt: Optional[int] = None
    incumbent: Optional[int] = None
    method = "lp"
    status = "lp_bound_only"

    if oracle in ("auto", "exact") and n <= exact_node_limit:
        try:
            opt = len(
                exact_mds(
                    graph,
                    node_limit=exact_node_limit,
                    search_budget=None if oracle == "exact" else search_budget,
                )
            )
            method, status = "exact", "optimal"
        except SearchBudgetExceededError:
            pass  # drop to the ILP rung
    elif oracle == "exact":
        raise ReproError(
            f"oracle='exact' limited to {exact_node_limit} nodes, got {n}; "
            "use oracle='auto' (ILP rung) or raise exact_node_limit"
        )

    if opt is None and oracle in ("auto", "ilp"):
        ilp = solve_mds_ilp(graph, time_limit_s=time_limit_s)
        if ilp.proven:
            opt = ilp.optimum
            method, status = "ilp", "optimal"
        else:
            incumbent = ilp.optimum
            method, status = "ilp", "time_limit"

    if lp_bound is None:
        if opt is not None:
            lp_bound = float(opt)  # OPT lower-bounds itself
        else:
            raise lp_failure  # type: ignore[misc] - set iff lp_bound is None

    return Certificate(
        size=size,
        opt=opt,
        lp_bound=float(lp_bound),
        ratio_vs_opt=_ratio(size, float(opt)) if opt is not None else None,
        ratio_vs_lp=_ratio(size, lp_bound),
        method=method,
        status=status,
        solve_wall_s=perf_counter() - start,
        incumbent=incumbent,
    )
