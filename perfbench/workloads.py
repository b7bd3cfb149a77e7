"""The four benchmark workloads: inputs, one timed iteration, output checks.

Every workload draws its inputs from the ``--seed`` it is given (the same
seed gives the same inputs) and exposes:

* :meth:`prepare` — build inputs and references, untimed; returns the
  number of outputs it checked and the failures found;
* :meth:`iterate` — the timed body, returning an :class:`Iteration`;
* :meth:`check` — the per-iteration output checks, untimed;
* :meth:`layer_values` — per-layer figures read off the iteration's
  outputs (the wrappers in :mod:`tracer` supply the rest).
"""

from __future__ import annotations

import random
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

EPS = 0.5

#: The sweep's programs; all three stack on the vector engine.
SWEEP_PROGRAMS = ("greedy", "color-reduction", "lemma310")

#: Seconds a service ticket may stay silent before the run counts it lost.
TICKET_TIMEOUT_S = 60.0

#: Wall seconds of work between two probes of the reference clock in a
#: streamed iteration: short against the host's slow spells, long against a
#: probe (~0.04 s).
SEGMENT_S = 0.25


@dataclass
class Iteration:
    """What one timed iteration produced.

    Times are reference seconds (:mod:`refclock`) when the iteration was
    given a clock, wall seconds otherwise.
    """

    outputs: list
    #: time from the submission of each output's batch (the iteration's
    #: start, or a service round) until the output was available
    latencies: List[float]
    #: time the iteration's work took
    wall_s: float
    #: the same in wall seconds
    raw_s: float
    extra: Dict[str, object] = field(default_factory=dict)


def scaled(outputs, latencies, raw_s: float, clock, extra=None) -> Iteration:
    """An :class:`Iteration` of one timed unit, in reference seconds if ``clock``."""
    factor = clock.factor() if clock is not None else 1.0
    return Iteration(
        outputs=outputs,
        latencies=[latency * factor for latency in latencies],
        wall_s=raw_s * factor,
        raw_s=raw_s,
        extra=extra or {},
    )


def streamed(items, clock=None) -> Iteration:
    """Consume ``items`` (work done on this thread), timing each one's arrival.

    With a clock the work is cut, at item boundaries, into segments of about
    :data:`SEGMENT_S`; each segment is converted to reference seconds with the
    probes on either side of it, so the host's speed is tracked within the
    iteration.  The probes themselves are not timed.
    """
    outputs, arrivals, pending = [], [], []
    wall_s = raw_s = 0.0
    start = time.perf_counter()

    def close_segment() -> None:
        nonlocal wall_s, raw_s, start
        segment = time.perf_counter() - start
        factor = clock.factor() if clock is not None else 1.0
        arrivals.extend(wall_s + offset * factor for offset in pending)
        pending.clear()
        wall_s += segment * factor
        raw_s += segment
        start = time.perf_counter()

    for item in items:
        outputs.append(item)
        pending.append(time.perf_counter() - start)
        if clock is not None and pending[-1] >= SEGMENT_S:
            close_segment()
    close_segment()
    return Iteration(outputs=outputs, latencies=arrivals, wall_s=wall_s, raw_s=raw_s)


def draw_seeds(seed: int, count: int) -> List[int]:
    """``count`` distinct topology seeds derived from the workload seed."""
    return random.Random(seed).sample(range(1_000_000), count)


def lp_optimum(graph) -> float:
    """Covering-LP optimum of ``graph``'s dominating-set relaxation.

    Built straight from the adjacency matrix and solved with HiGHS'
    interior-point method: a reference independent of ``repro``'s own LP
    code and solver choice.
    """
    import networkx as nx
    import numpy as np
    from scipy import sparse
    from scipy.optimize import linprog

    n = graph.number_of_nodes()
    adjacency = nx.to_scipy_sparse_array(
        graph, nodelist=range(n), format="csr", dtype=float
    )
    closed = (adjacency + sparse.identity(n, format="csr")).tocsr()
    result = linprog(
        np.ones(n),
        A_ub=-closed,
        b_ub=-np.ones(n),
        bounds=(0.0, 1.0),
        method="highs-ipm",
    )
    if not result.success:
        raise RuntimeError(f"reference LP failed: {result.message}")
    return float(result.fun)


class _GreedyRatios:
    """|DS| / LP optimum for greedy records, LP solved once per topology."""

    def __init__(self) -> None:
        self._lp: Dict[Tuple[str, int, int], float] = {}

    def ratio(self, record) -> float:
        from repro.graphs.suite import suite_instance

        cell = record.cell
        key = (cell.family, cell.n, cell.seed)
        if key not in self._lp:
            graph = suite_instance(cell.family, cell.n, seed=cell.seed).graph
            self._lp[key] = lp_optimum(graph)
        return float(record.metrics["ds_size"]) / self._lp[key]


# -- sweep ----------------------------------------------------------------------


class Sweep:
    """Ragged stacked sweep: 3 programs x 3 sizes x 12 seeds, streamed."""

    def __init__(self, seed: int, smoke: bool = False):
        self.sizes = (30, 60) if smoke else (250, 500, 1000)
        self.seeds = draw_seeds(seed, 2 if smoke else 12)
        self.reference: Dict[str, dict] = {}
        self.ratios = _GreedyRatios()
        self.approx_ratio = 0.0

    def _experiment(self, seeds, strategy: str):
        from repro.api import Experiment

        return (
            Experiment(*SWEEP_PROGRAMS)
            .on("gnp")
            .sizes(*self.sizes)
            .seeds(seeds)
            .engine("vector")
            .strategy(strategy)
        )

    def prepare(self) -> Tuple[int, List[str]]:
        """First iteration (the reference) plus a per-cell re-run subset."""
        from repro.experiments.harness import comparable_records

        first = self.iterate().outputs
        failures = [f"{r.key}: not ok" for r in first if not r.ok]
        self.reference = {r.key: r.metrics for r in first}
        solo = self._experiment(self.seeds[:1], "cell").run().records
        stacked = {r.key: r for r in first}
        for record in solo:
            twin = stacked.get(record.key)
            if twin is None or comparable_records([record]) != comparable_records(
                [twin]
            ):
                failures.append(f"{record.key}: stacked record differs from cell run")
        greedy = [r for r in first if r.ok and r.cell.program == "greedy"]
        self.approx_ratio = statistics.fmean(self.ratios.ratio(r) for r in greedy)
        return len(first) + len(solo), failures

    def iterate(self, clock=None) -> Iteration:
        return streamed(self._experiment(self.seeds, "batch").stream(), clock)

    def check(self, it: Iteration) -> Tuple[int, List[str]]:
        failures = []
        for record in it.outputs:
            if not record.ok:
                failures.append(f"{record.key}: not ok")
            elif record.metrics != self.reference.get(record.key):
                failures.append(f"{record.key}: metrics differ from first iteration")
        if len(it.outputs) != len(self.reference):
            failures.append(
                f"{len(it.outputs)} records, expected {len(self.reference)}"
            )
        return len(it.outputs), failures

    def layer_values(self, it: Iteration) -> Dict[str, float]:
        ok = [r for r in it.outputs if r.ok]
        return {
            "engine.stacked_frac": sum(r.batch is not None for r in ok)
            / max(1, len(it.outputs)),
            "engine.rounds": sum(r.metrics["rounds"] for r in ok),
            "engine.bits": sum(r.metrics["total_bits"] for r in ok),
        }


# -- Theorem 1.2 ----------------------------------------------------------------


class Theorem12:
    """``approx_mds_coloring`` over a fixed pool of gnp graphs per iteration.

    ``degrees`` stratifies the pool by maximum degree: one graph per listed
    value (a value listed twice takes two graphs), the first drawn from the
    seed's stream that have it.  Water-filling time grows with the maximum
    degree, so without strata the pool's cost would swing with whichever
    degrees the seed happened to draw.
    """

    def __init__(
        self,
        provider: str,
        n: int,
        seed: int,
        smoke: bool,
        pool: int = 1,
        degrees: Tuple[int, ...] = (),
    ):
        self.provider = provider
        self.n = 60 if smoke else n
        self.seed = seed
        self.pool = 1 if smoke else (len(degrees) or pool)
        self.degrees = () if smoke else degrees
        self.graphs: list = []
        self.lp: List[float] = []
        self.first_sets: List[frozenset] = []
        self.approx_ratio = 0.0

    def _draw_pool(self) -> list:
        """The pool, lightest first by (maximum degree, edges).

        A fixed order by size keeps the share of the work before the median
        arrival the same from seed to seed.
        """
        from repro.graphs.suite import suite_instance

        def size(graph):
            return max(d for _, d in graph.degree()), graph.number_of_edges()

        seeds = draw_seeds(self.seed, 64 * self.pool)
        if not self.degrees:
            graphs = [suite_instance("gnp", self.n, seed=s).graph for s in seeds[: self.pool]]
            return sorted(graphs, key=size)
        wanted = Counter(self.degrees)
        graphs = []
        for s in seeds:
            graph = suite_instance("gnp", self.n, seed=s).graph
            degree = max(d for _, d in graph.degree())
            if wanted[degree] > 0:
                wanted[degree] -= 1
                graphs.append(graph)
                if len(graphs) == self.pool:
                    return sorted(graphs, key=size)
        raise RuntimeError(f"no gnp-{self.n} pool with max degrees {self.degrees}")

    def _solve(self, graph):
        from repro.mds.deterministic import approx_mds_coloring
        from repro.mds.pipeline import PipelineParams

        params = PipelineParams(eps=EPS, part1_provider=self.provider)
        return approx_mds_coloring(graph, eps=EPS, params=params)

    def prepare(self) -> Tuple[int, List[str]]:
        """Generate the pool, solve its LPs, warm the pipeline up."""
        from repro.graphs.suite import suite_instance

        self.graphs = self._draw_pool()
        self.lp = [lp_optimum(g) for g in self.graphs]
        self._solve(suite_instance("gnp", 40, seed=self.seed).graph)
        return 0, []

    def iterate(self, clock=None) -> Iteration:
        """Solve the pool in order, as one batch submitted at the start."""
        return streamed((self._solve(graph) for graph in self.graphs), clock)

    def check(self, it: Iteration) -> Tuple[int, List[str]]:
        from repro.analysis.bounds import theorem11_approximation_bound
        from repro.analysis.verify import require_dominating_set
        from repro.errors import ReproError

        failures = []
        first_pass = not self.first_sets
        ratios = []
        for i, (graph, result) in enumerate(zip(self.graphs, it.outputs)):
            ds = frozenset(result.dominating_set)
            if first_pass:
                self.first_sets.append(ds)
            elif ds != self.first_sets[i]:
                failures.append(f"graph {i}: output differs from first iteration")
            try:
                require_dominating_set(graph, ds, f"graph {i} output")
            except ReproError as exc:
                failures.append(str(exc))
                continue
            max_degree = max((d for _, d in graph.degree()), default=0)
            bound = theorem11_approximation_bound(EPS, max_degree) * self.lp[i]
            if len(ds) > bound * (1.0 + 1e-9):
                failures.append(f"graph {i}: |DS|={len(ds)} exceeds bound {bound:.2f}")
            ratios.append(len(ds) / self.lp[i])
        if first_pass and ratios:
            self.approx_ratio = statistics.fmean(ratios)
        return len(it.outputs), failures

    def layer_values(self, it: Iteration) -> Dict[str, float]:
        return {
            "mds.rounds_simulated": sum(r.ledger.simulated_rounds for r in it.outputs),
            "mds.rounds_charged": sum(r.ledger.charged_rounds for r in it.outputs),
        }


# -- service --------------------------------------------------------------------


def service_rounds(seeds: List[int], sizes, per_tenant: int, tenants: int = 4):
    """Two submission rounds of ``tenants`` greedy sweeps each.

    Round 1: tenant ``t`` asks for ``per_tenant`` seeds x ``sizes``; adjacent
    tenants share one seed, so the first window dedupes.  Round 2: every
    tenant re-asks for half of its neighbour's round-1 cells (result-cache
    hits) and for as many fresh cells.
    """
    from repro.experiments.runner import GridCell

    def cells(seed_list):
        return [
            GridCell(family="gnp", n=n, program="greedy", engine="vector", seed=s)
            for s in seed_list
            for n in sizes
        ]

    step = per_tenant - 1
    round1 = [cells(seeds[t * step : t * step + per_tenant]) for t in range(tenants)]
    fresh = iter(cells(seeds[tenants * step + 1 :]))
    round2 = []
    for t in range(tenants):
        size = len(round1[t])
        hits = size // 2 + (1 if size % 2 and t < tenants // 2 else 0)
        repeat = round1[(t + 1) % tenants][:hits]
        round2.append(repeat + [next(fresh) for _ in range(size - hits)])
    return round1, round2


class Service:
    """A fresh in-process service per iteration, two overlapping rounds."""

    def __init__(self, seed: int, smoke: bool = False):
        self.sizes = (30, 60) if smoke else (200, 400, 800)
        per_tenant = 2 if smoke else 5
        self.rounds = service_rounds(draw_seeds(seed, 64), self.sizes, per_tenant)
        self.solo: Dict[str, dict] = {}
        self.ratios = _GreedyRatios()
        self.approx_ratio = 0.0

    def prepare(self) -> Tuple[int, List[str]]:
        """Solo ``strategy("cell")`` run of every distinct cell."""
        from repro.api import Experiment
        from repro.experiments.harness import comparable_records

        requested = [c for round_cells in self.rounds for t in round_cells for c in t]
        failures = []
        solo = {}
        for cell in sorted(set(requested), key=lambda c: c.key):
            record = (
                Experiment(cell.program)
                .on(cell.family)
                .sizes(cell.n)
                .seed(cell.seed)
                .engine(cell.engine)
                .strategy("cell")
                .run()
                .records[0]
            )
            if record.ok:
                solo[cell.key] = record
                self.solo[cell.key] = comparable_records([record])[0]
            else:
                failures.append(f"{record.key}: solo run not ok")
        if not failures:
            self.approx_ratio = statistics.fmean(
                self.ratios.ratio(solo[c.key]) for c in requested
            )
        return len(solo) + len(failures), failures

    def iterate(self, clock=None) -> Iteration:
        from repro.service import ServiceConfig, SimulationService

        start = time.perf_counter()
        service = SimulationService(ServiceConfig())
        deliveries = []
        service.start()
        try:
            for round_cells in self.rounds:
                tickets = [
                    service.submit(f"tenant{t}", cells)
                    for t, cells in enumerate(round_cells)
                ]
                for ticket in tickets:
                    while True:
                        served = ticket.next_event(timeout=TICKET_TIMEOUT_S)
                        if served is None:
                            break
                        deliveries.append(served)
            stats = service.stats()
        finally:
            service.stop()
        # Cache hits wait out the window deadline and nothing else; their
        # latency is the per-layer service.hit_latency_p50_s.
        return scaled(
            deliveries,
            [float(s.meta["latency_s"]) for s in deliveries if not s.meta["cache_hit"]],
            time.perf_counter() - start,
            clock,
            extra={"stats": stats},
        )

    def check(self, it: Iteration) -> Tuple[int, List[str]]:
        from repro.experiments.harness import comparable_records

        failures = []
        for served in it.outputs:
            record = served.record
            if comparable_records([record])[0] != self.solo.get(record.key):
                failures.append(f"{record.key}: delivery differs from its solo run")
        expected = sum(len(t) for round_cells in self.rounds for t in round_cells)
        if len(it.outputs) != expected:
            failures.append(f"{len(it.outputs)} deliveries, expected {expected}")
        return len(it.outputs), failures

    def layer_values(self, it: Iteration) -> Dict[str, float]:
        stats = it.extra["stats"]
        served = it.outputs
        fresh = [s for s in served if not s.meta["cache_hit"]]
        hits = [s for s in served if s.meta["cache_hit"]]
        executed = {(s.meta["window"], s.record.key): s.record for s in fresh}
        topo = stats["topology_cache"]
        lookups = topo["hits"] + topo["misses"]
        return {
            "engine.stacked_frac": sum(s.meta["stack_width"] > 1 for s in served)
            / max(1, len(served)),
            "engine.rounds": sum(r.metrics["rounds"] for r in executed.values()),
            "engine.bits": sum(r.metrics["total_bits"] for r in executed.values()),
            "service.windows": stats["windows"],
            "service.coalesced_windows": stats["coalesced_windows"],
            "service.stack_width_mean": statistics.fmean(
                s.meta["stack_width"] for s in fresh
            ) if fresh else 0.0,
            "service.dedupe_factor": len(fresh) / max(1, len(executed)),
            "service.result_cache_hit_frac": len(hits) / max(1, len(served)),
            "service.topology_cache_hit_frac": topo["hits"] / max(1, lookups),
            "service.hit_latency_p50_s": statistics.median(
                float(s.meta["latency_s"]) for s in hits
            ) if hits else 0.0,
        }


def make(name: str, seed: int, smoke: bool = False):
    """The workload called ``name``, with inputs drawn from ``seed``."""
    if name == "sweep":
        return Sweep(seed, smoke)
    if name == "thm12-lp":
        return Theorem12("lp", n=1000, seed=seed, smoke=smoke, pool=24)
    if name == "thm12-waterfill":
        return Theorem12(
            "distributed",
            n=300,
            seed=seed,
            smoke=smoke,
            degrees=(11,) * 4 + (12,) * 4 + (13,) * 4,
        )
    if name == "service":
        return Service(seed, smoke)
    raise KeyError(name)


WORKLOADS = ("sweep", "thm12-lp", "thm12-waterfill", "service")
