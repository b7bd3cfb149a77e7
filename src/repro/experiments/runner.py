"""Batch experiment runner: (graph × program × engine × seed) grids.

The simulator executes one cell at a time; scaling to many scenarios is the
runner's job.  A *cell* pins everything needed to reproduce one simulated
execution — graph family, size, seed, node program, engine — so a grid of
cells can be expanded up front, executed sequentially or across
``multiprocessing`` workers (:func:`run_grid`), streamed as results arrive
(``run_grid(..., stream=True)`` / :func:`iter_grid_records`), and
aggregated into one JSON document (:func:`results_payload` /
:func:`write_results`).

Programs are resolved through the declarative registry
(:mod:`repro.api.registry`): a cell's ``program`` axis names a
:class:`~repro.api.registry.ProgramSpec`, which carries the driver, the
metrics summary and the batched-execution recipe.  All registered
programs — including ``lemma310``, ``rounding-exec``, ``tree-sum`` and the
``cds`` composite — are grid-drivable; nothing is hard-coded here.

Design points:

* **Determinism.** Cells carry their own seed; a grid run with ``jobs=1``
  is bit-for-bit reproducible, and worker parallelism cannot reorder the
  output (results are returned in cell order regardless of completion
  order; only the explicit streaming path exposes completion order).
* **Structured failures.** A cell that raises — bad family, simulation
  limit, oversized message — produces an ``ok=False`` record with the
  exception type and message instead of tearing down the whole grid;
  malformed grid *axes* (unknown program, engine or strategy names) raise
  structured :class:`~repro.errors.UnknownProgramError` /
  :class:`~repro.errors.UnknownEngineError` /
  :class:`~repro.errors.UnknownStrategyError` at expansion/dispatch time.
* **Generate once, share everywhere.** All cells of one (family, n, seed)
  work item run on the same topology.  Sequentially the Network object is
  reused directly; across process workers the parent generates each graph
  once and ships its CSR arrays through ``multiprocessing.shared_memory``
  (:mod:`repro.experiments.sharedmem`), so workers skip graph generation
  entirely and nothing big travels through the pool queue.
* **Batched sweeps, ragged or uniform.** ``strategy="batch"`` groups
  vector-engine cells by (family, program) — sizes *and* seeds stack —
  and executes each group as **one** ragged stacked message plane
  (:func:`repro.congest.engine.batched.iter_stacked`) instead of K
  per-node program instantiations.  Split results are bit-for-bit
  identical to per-cell runs — groups that cannot stack (ineligible
  program, any error) transparently fall back to the per-cell path, so
  the strategy only ever changes wall-clock, never records.
* **Streaming, per record — in-process and across the pool.** Execution
  is organized as *dispatch units* (one cell, or one stacked batch
  group), and the streaming iterators yield record by record in
  completion order.  A stacked group streams *per instance*: the moment
  an instance's termination mask flips, its record surfaces — under
  ``jobs > 1`` the worker pushes each ``(index, record)`` through the
  pool's result channel immediately (a sentinel protocol over per-worker
  pipes, see :func:`_iter_units_pool`), so early finishers of one group
  interleave with records of concurrently-running groups instead of
  crossing the process boundary together at group end.  A worker that
  dies mid-unit is detected through the same protocol (channel EOF, or
  a stall timeout) and its not-yet-yielded cells are transparently
  re-dispatched per cell in-process, annotated with the structured
  :class:`~repro.errors.WorkerLostError` description.
* **Parent-side certification.** With ``certify`` set (an oracle mode,
  see :mod:`repro.oracle`), every success record of a spec that declares
  a ``quality_metric`` gains a ``quality`` block: the certification
  ladder bounds the cell's optimum and the measured approximation ratios
  are stamped on the record, gated against the spec's documented
  ``quality_bound``.  Certification runs in the **parent** as records
  arrive — never in workers — so all cells share one oracle cache
  (repeat topologies certify for free) and records re-dispatched after a
  lost worker are certified exactly like first-try records.

The typed record objects live in :mod:`repro.api.records`; :func:`run_grid`
returns their dict shape, which is also the JSON artifact format.  Grids
are built with :class:`repro.api.Experiment`.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.api.records import RunRecord, as_record_dicts
from repro.api.registry import (
    available_programs,
    batchable_programs,
    program_spec,
)
from repro.congest.network import Network
from repro.errors import UnknownStrategyError, WorkerLostError
from repro.graphs.suite import suite_instance

__all__ = [
    "GridCell",
    "available_programs",
    "available_strategies",
    "batchable_programs",
    "iter_grid_records",
    "run_grid",
    "run_grid_records",
    "summarize_results",
    "results_payload",
    "write_results",
]


@dataclass(frozen=True)
class GridCell:
    """One fully-specified simulated execution."""

    family: str
    n: int
    program: str
    engine: str
    seed: int = 7

    @property
    def key(self) -> str:
        return f"{self.family}-{self.n}/{self.program}/{self.engine}/s{self.seed}"

    @property
    def topology_key(self) -> Tuple[str, int, int]:
        """Cells sharing this key run on the identical generated graph."""
        return (self.family, self.n, self.seed)

    @property
    def group_key(self) -> Tuple[str, str, str]:
        """Cells sharing this key differ only by (n, seed) — one batch group.

        Since the ragged stacked plane, groups span *sizes* as well as
        seeds: mixed-size sweeps of one (family, program, engine) stack
        into a single plane with per-instance offset tables.
        """
        return (self.family, self.program, self.engine)


#: Execution strategies :func:`run_grid` accepts.
STRATEGIES = ("cell", "batch")


def available_strategies() -> List[str]:
    """Names of the grid execution strategies."""
    return list(STRATEGIES)


def build_network(cell: GridCell) -> Network:
    """Generate the cell's graph and compile it into a CONGEST network."""
    inst = suite_instance(cell.family, cell.n, seed=cell.seed)
    return Network.congest(inst.graph)


def _run_cell_record(
    cell: GridCell, network: Optional[Network] = None
) -> RunRecord:
    """Execute one cell; never raises — failures become structured records.

    ``network`` short-circuits graph generation when the caller already
    holds the cell's topology (sequential reuse or a shared-memory
    reconstruction); the timed section covers simulation only either way.
    """
    try:
        spec = program_spec(cell.program)
        if network is None:
            network = build_network(cell)
        start = time.perf_counter()
        outcome = spec.run(network, cell.engine)
        wall = time.perf_counter() - start
    except Exception as exc:  # noqa: BLE001 - the grid must survive any cell
        return RunRecord(
            cell=cell,
            ok=False,
            error={"type": type(exc).__name__, "message": str(exc)},
        )
    return RunRecord(
        cell=cell,
        ok=True,
        wall_s=wall,
        metrics=spec.cell_metrics(network, outcome),
    )


def _iter_batched_group_records(
    cells: Sequence[GridCell],
    networks: Optional[Sequence[Optional[Network]]] = None,
) -> Iterator[Tuple[int, RunRecord]]:
    """Execute one batch group (same family/program/engine; any mix of
    sizes and seeds) as a single ragged stacked run, yielding
    ``(index_in_group, record)`` **the moment each instance terminates**.

    This is the in-group streaming path: a small instance that halts
    early surfaces its record while its larger siblings are still
    running, so stacked groups interleave with cell records in completion
    order.  Success records carry identical ``metrics`` blocks to the
    per-cell path (the stacked-plane parity guarantee) plus a ``batch``
    annotation recording the stack width and the record's stream latency
    (seconds from group dispatch to instance termination).  ``wall_s`` is
    the record's *marginal* simulation wall — time since the previous
    record of the group — so per-group and per-engine wall totals still
    sum to the group's shared simulation wall.

    Any error falls back to per-cell execution for the instances not yet
    yielded (already-yielded records are exact solo-parity results and
    stay valid); the per-cell runs reproduce each solo outcome, including
    structured per-cell failures.
    """
    from repro.congest.engine import iter_stacked

    cells = list(cells)
    nets: List[Optional[Network]] = (
        list(networks) if networks is not None else [None] * len(cells)
    )
    done = set()
    try:
        for i, cell in enumerate(cells):
            if nets[i] is None:
                nets[i] = build_network(cell)
        spec = program_spec(cells[0].program)
        inputs = (
            [spec.batch_inputs(net) for net in nets]
            if spec.batch_inputs is not None
            else None
        )
        start = prev = time.perf_counter()
        for k, sim in iter_stacked(
            nets,
            spec.batch_factory,
            inputs=inputs,
            # Per-instance round limits: a ragged group's limits are
            # size-derived, and an instance exceeding its *own* limit must
            # fall back to the per-cell path (where it reproduces its solo
            # SimulationLimitError) instead of borrowing a sibling's slack.
            max_rounds=[spec.batch_max_rounds(net) for net in nets],
        ):
            now = time.perf_counter()
            record = RunRecord(
                cell=cells[k],
                ok=True,
                wall_s=now - prev,
                batch={"k": len(cells), "stream_latency_s": now - start},
                metrics=spec.cell_metrics(nets[k], sim),
            )
            done.add(k)
            yield k, record
            # Restart the marginal-wall clock only after the consumer hands
            # control back: time the consumer spends processing the yielded
            # record must not count as simulation wall.
            prev = time.perf_counter()
    except Exception:  # noqa: BLE001 - stacking is an optimization only
        for i, (cell, net) in enumerate(zip(cells, nets)):
            if i not in done:
                yield i, _run_cell_record(cell, network=net)


#: A dispatch unit: ``("cell", [index])`` or ``("batch", indices)``.
PlanUnit = Tuple[str, List[int]]


def _batch_plan(cells: Sequence[GridCell], batch_size: int) -> List[PlanUnit]:
    """Fixed-chunking dispatch plan for ``strategy="batch"``.

    Returns ``("batch", indices)`` units for stackable groups — vector
    engine, registry-batchable program, ≥ 2 cells sharing a
    :attr:`GridCell.group_key` (which spans sizes *and* seeds: mixed-size
    groups stack as one ragged plane), chunked to ``batch_size`` (0 =
    unlimited) — and ``("cell", [index])`` units for everything else,
    width-1 leftovers included.  Units are emitted in first-occurrence
    order; record order is restored by index afterwards, so the strategy
    cannot reorder results.
    """
    stackable = set(batchable_programs())
    groups: Dict[tuple, List[int]] = {}
    for i, cell in enumerate(cells):
        batchable = cell.engine == "vector" and cell.program in stackable
        key = ("group",) + cell.group_key if batchable else ("solo", i)
        groups.setdefault(key, []).append(i)
    plan: List[PlanUnit] = []
    for indices in groups.values():
        step = batch_size if batch_size > 0 else len(indices)
        for lo in range(0, len(indices), step):
            chunk = indices[lo : lo + step]
            plan.append(("batch" if len(chunk) >= 2 else "cell", chunk))
    return plan


def _plan_units(
    cells: Sequence[GridCell], strategy: str, batch_size: int
) -> List[PlanUnit]:
    """The dispatch units of one grid run under ``strategy``."""
    if strategy != "batch":
        return [("cell", [i]) for i in range(len(cells))]
    return _batch_plan(cells, batch_size)


# -- dispatch-unit execution ---------------------------------------------------

#: Parent-side drain poll interval (seconds).  Only bounds how often the
#: stall clock is checked — record delivery itself is event-driven.
_POOL_POLL_S = 0.25


def _test_crash_hook(unit: int, sent: int) -> None:
    """Deterministic worker-crash injection for the pool-loss tests.

    ``REPRO_POOLSTREAM_KILL="<unit>:<after>"`` hard-kills the worker
    (``os._exit``, no cleanup, no exception — exactly what a segfault or
    OOM kill looks like to the parent) right after it has streamed
    ``after`` records of dispatch unit ``unit``.  Unset in production.
    """
    spec = os.environ.get("REPRO_POOLSTREAM_KILL")
    if not spec:
        return
    try:
        kill_unit, after = (int(part) for part in spec.split(":"))
    except ValueError:
        return
    if unit == kill_unit and sent >= after:
        os._exit(1)


def _run_unit_streaming(
    kind: str, payload, handle
) -> Iterator[Tuple[int, RunRecord]]:
    """Execute one dispatch unit, yielding ``(local_index, record)``.

    Worker-side unit body: attach the published shared-memory topology
    (regenerate on attach failure), then run — per cell, or through the
    in-group streaming generator so each stacked instance surfaces at its
    termination-mask flip.
    """
    if kind == "cell":
        network = None
        if handle is not None:
            from repro.experiments.sharedmem import attach_network

            try:
                network = attach_network(handle)
            except Exception:  # pragma: no cover - attach races are host-specific
                network = None  # fall back to regenerating in the worker
        yield 0, _run_cell_record(payload, network=network)
        return
    networks: Optional[List[Optional[Network]]] = None
    if handle is not None:
        from repro.experiments.sharedmem import attach_stacked

        try:
            networks = list(attach_stacked(handle))
        except Exception:  # pragma: no cover - attach races are host-specific
            networks = None
    yield from _iter_batched_group_records(payload, networks=networks)


def _pool_stream_worker(task_queue, conn) -> None:
    """Worker loop: pull dispatch units, push every record immediately.

    The per-record sentinel protocol over the worker's private pipe:

    * ``("unit_start", unit, None)`` — the worker claimed unit ``unit``;
      from here until ``unit_done`` the parent attributes a death of this
      worker to that unit.
    * ``("record", unit, (local, record))`` — one cell's record, sent the
      moment it exists (for stacked groups: at the instance's
      termination-mask flip), never buffered until group end.
    * ``("unit_done", unit, None)`` — the unit's generator is exhausted.
    * ``("worker_done", None, None)`` — clean shutdown (queue drained).

    ``Pipe`` sends are synchronous writes from this process only, so a
    crash cannot interleave with (or corrupt) another worker's stream —
    the reason each worker gets a private channel rather than one shared
    result queue with feeder threads.
    """
    try:
        while True:
            task = task_queue.get()
            if task is None:
                break
            unit, kind, payload, handle = task
            conn.send(("unit_start", unit, None))
            sent = 0
            for local, record in _run_unit_streaming(kind, payload, handle):
                conn.send(("record", unit, (local, record)))
                sent += 1
                _test_crash_hook(unit, sent)
            conn.send(("unit_done", unit, None))
        conn.send(("worker_done", None, None))
    finally:
        conn.close()


def _iter_units_sequential(
    cells: List[GridCell], plan: List[PlanUnit]
) -> Iterator[Tuple[int, RunRecord]]:
    """In-process execution, one record at a time, topologies cached by key.

    Batch groups stream *per instance*: each stacked record is yielded at
    its instance's termination (not when the whole group finishes), so a
    group's early finishers interleave ahead of its stragglers.
    """
    networks: Dict[tuple, Optional[Network]] = {}

    def net_for(cell: GridCell) -> Optional[Network]:
        key = cell.topology_key
        if key not in networks:
            try:
                networks[key] = build_network(cell)
            except Exception:  # noqa: BLE001 - recorded per cell later
                networks[key] = None
        return networks[key]

    for kind, indices in plan:
        if kind == "cell":
            cell = cells[indices[0]]
            yield indices[0], _run_cell_record(cell, network=net_for(cell))
        else:
            group = [cells[i] for i in indices]
            for local, record in _iter_batched_group_records(
                group, networks=[net_for(c) for c in group]
            ):
                yield indices[local], record


def _iter_units_pool(
    cells: List[GridCell],
    plan: List[PlanUnit],
    jobs: int,
) -> Iterator[Tuple[int, RunRecord]]:
    """Worker-pool execution: publish topologies once, stream *per record*.

    Workers pull dispatch units from a shared task queue and push each
    ``(local, record)`` through their private result pipe the moment the
    record exists (see :func:`_pool_stream_worker`), so in-group streaming
    crosses the process boundary: an early-terminating instance of one
    stacked group surfaces here while its siblings — and other groups on
    other workers — are still running.  The parent drains all pipes with
    ``multiprocessing.connection.wait`` and yields records as they
    arrive, interleaved across concurrent units in true completion order.

    **Worker loss.** A pipe hitting EOF (or, with
    ``REPRO_POOLSTREAM_STALL_S`` set, a global stall) means its worker
    died mid-unit.  The parent re-dispatches exactly the cells of that
    unit that have not been yielded yet — per cell, in-process — so the
    record set survives any crash (at-least-once delivery with parent-side
    dedupe); the replacement records carry a ``plan`` block — the
    lost-worker annotation ``{fallback, actual_wall_s}``, ``fallback``
    describing the :class:`~repro.errors.WorkerLostError`.  Units the dead
    worker never claimed are still in the queue and migrate to surviving
    workers; if every worker dies, the parent finishes the grid itself.
    """
    import multiprocessing
    from multiprocessing.connection import wait as connection_wait

    from repro.experiments.sharedmem import SharedStackedTopology, SharedTopology

    ctx = multiprocessing.get_context()
    published: Dict[tuple, Optional[SharedTopology]] = {}
    stacks: List[SharedStackedTopology] = []
    procs: Dict[object, object] = {}
    readers: List[object] = []
    task_queue = None
    try:
        tasks = []
        for unit, (kind, indices) in enumerate(plan):
            if kind == "cell":
                cell = cells[indices[0]]
                key = cell.topology_key
                if key not in published:
                    try:
                        published[key] = SharedTopology.publish(build_network(cell))
                    except Exception:  # noqa: BLE001 - cell records the failure
                        published[key] = None
                topology = published[key]
                tasks.append(
                    (unit, "cell", cell, topology.handle if topology else None)
                )
            else:
                group = [cells[i] for i in indices]
                handle = None
                try:
                    stack = SharedStackedTopology.publish(
                        [build_network(c) for c in group]
                    )
                    stacks.append(stack)
                    handle = stack.handle
                except Exception:  # noqa: BLE001 - workers regenerate
                    handle = None
                tasks.append((unit, "batch", group, handle))

        workers = min(jobs, len(tasks))
        task_queue = ctx.Queue()
        for task in tasks:
            task_queue.put(task)
        for _ in range(workers):
            task_queue.put(None)  # one shutdown sentinel per worker
        for _ in range(workers):
            recv_conn, send_conn = ctx.Pipe(duplex=False)
            proc = ctx.Process(
                target=_pool_stream_worker,
                args=(task_queue, send_conn),
                daemon=True,
            )
            proc.start()
            send_conn.close()  # parent keeps only the read end
            readers.append(recv_conn)
            procs[recv_conn] = proc

        # Cells of each unit not yet yielded (by local index).  Records are
        # deduped against this on arrival, making redelivery after a crash
        # re-dispatch safe: at-least-once from workers, exactly-once out.
        pending: Dict[int, set] = {
            unit: set(range(len(plan[unit][1]))) for unit in range(len(plan))
        }
        claimed: Dict[object, set] = {}  # reader -> units started, not done
        stall_s = float(os.environ.get("REPRO_POOLSTREAM_STALL_S", "0") or 0)
        last_progress = time.monotonic()

        def redispatch(
            unit: int, pid: Optional[int], exitcode: Optional[int]
        ) -> Iterator[Tuple[int, RunRecord]]:
            """Finish a lost unit's unfinished cells in-process, per cell."""
            indices = plan[unit][1]
            fallback = {
                "type": WorkerLostError.__name__,
                "message": str(WorkerLostError(unit, pid, exitcode)),
            }
            for local in sorted(pending[unit]):
                start = time.perf_counter()
                record = _run_cell_record(cells[indices[local]])
                record.plan = {
                    "fallback": dict(fallback),
                    "actual_wall_s": round(time.perf_counter() - start, 6),
                }
                yield indices[local], record
            pending[unit].clear()

        def worker_lost(reader) -> Iterator[Tuple[int, RunRecord]]:
            """Handle a dead worker: reap it, re-dispatch its open units."""
            proc = procs.pop(reader)
            readers.remove(reader)
            try:
                reader.close()
            except OSError:  # pragma: no cover - already closed by the OS
                pass
            proc.join(timeout=5)
            for unit in sorted(claimed.pop(reader, set())):
                if pending[unit]:
                    yield from redispatch(unit, proc.pid, proc.exitcode)

        while readers and any(pending.values()):
            ready = connection_wait(readers, timeout=_POOL_POLL_S)
            if not ready:
                if stall_s and time.monotonic() - last_progress > stall_s:
                    # Global stall: treat every live worker as lost.
                    for reader in list(readers):
                        procs[reader].terminate()
                        yield from worker_lost(reader)
                continue
            for reader in ready:
                try:
                    tag, unit, body = reader.recv()
                except EOFError:
                    yield from worker_lost(reader)
                    continue
                last_progress = time.monotonic()
                if tag == "unit_start":
                    claimed.setdefault(reader, set()).add(unit)
                elif tag == "record":
                    local, record = body
                    if local in pending[unit]:
                        pending[unit].discard(local)
                        yield plan[unit][1][local], record
                elif tag == "unit_done":
                    claimed.get(reader, set()).discard(unit)
                    if pending[unit]:  # defensive: done without all records
                        yield from redispatch(unit, procs[reader].pid, None)
                elif tag == "worker_done":
                    proc = procs.pop(reader)
                    readers.remove(reader)
                    reader.close()
                    proc.join(timeout=5)
        # Every worker is gone but cells remain (mass crash): the parent
        # finishes the grid itself so the record set is complete anyway.
        for unit in range(len(plan)):
            if pending[unit]:
                yield from redispatch(unit, None, None)
    finally:
        for proc in list(procs.values()):
            if proc.is_alive():
                proc.terminate()
            proc.join(timeout=5)
        for reader in list(readers):
            try:
                reader.close()
            except OSError:  # pragma: no cover
                pass
        if task_queue is not None:
            task_queue.close()
            task_queue.cancel_join_thread()
        for topology in published.values():
            if topology is not None:
                topology.unlink()
        for stack in stacks:
            stack.unlink()


def _iter_units(
    cells: List[GridCell], jobs: int, strategy: str, batch_size: int
) -> Iterator[Tuple[int, RunRecord]]:
    """Yield ``(cell_index, record)`` per record, in completion order."""
    plan = _plan_units(cells, strategy, batch_size)
    if jobs <= 1 or len(plan) <= 1:
        yield from _iter_units_sequential(cells, plan)
    else:
        yield from _iter_units_pool(cells, plan, jobs)


# -- parent-side certification -------------------------------------------------


def _certify_record(record: RunRecord, oracle: str) -> RunRecord:
    """Attach the oracle's ``quality`` block to one success record.

    Runs in the parent so every cell of the grid shares one in-process
    oracle cache (cells revisiting a topology at the same solution size —
    another engine, another strategy, a post-crash re-dispatch — reuse
    the certificate instead of re-solving) and so pool workers never
    carry solver state.  Only specs that declare a ``quality_metric``
    whose value is present in the record's metrics are certified; other
    records pass through untouched.  An oracle failure degrades to a
    ``status="failed"`` quality block — certification must never turn a
    measured success record into a grid failure.
    """
    from repro.errors import ReproError
    from repro.oracle import certify, oracle_cache, topology_cache_key

    if not record.ok or record.metrics is None:
        return record
    spec = program_spec(record.cell.program)
    if spec.quality_metric is None or spec.quality_metric not in record.metrics:
        return record
    size = int(record.metrics[spec.quality_metric])  # type: ignore[arg-type]
    cache = oracle_cache()
    hits_before = cache.hits
    try:
        graph = suite_instance(
            record.cell.family, record.cell.n, seed=record.cell.seed
        ).graph
        certificate = certify(
            graph,
            size,
            oracle=oracle,
            cache_key=topology_cache_key(
                record.cell.family, record.cell.n, record.cell.seed
            ),
        )
    except ReproError as exc:
        record.quality = {
            "oracle": oracle,
            "status": "failed",
            "error": {"type": type(exc).__name__, "message": str(exc)},
        }
        return record
    quality: Dict[str, object] = {
        "oracle": oracle,
        "method": certificate.method,
        "status": certificate.status,
        "opt": certificate.opt,
        "lp_bound": round(certificate.lp_bound, 6),
        "ratio_vs_opt": (
            round(certificate.ratio_vs_opt, 6)
            if certificate.ratio_vs_opt is not None
            else None
        ),
        "ratio_vs_lp": round(certificate.ratio_vs_lp, 6),
        "solve_wall_s": round(certificate.solve_wall_s, 6),
        "cache_hit": cache.hits > hits_before,
    }
    if spec.quality_bound is not None:
        max_degree = record.metrics.get("max_degree")
        if max_degree is None:
            max_degree = max((d for _, d in graph.degree()), default=0)
        bound = float(spec.quality_bound(int(max_degree)))  # type: ignore[arg-type]
        # Gate on the proven-optimum ratio when a ladder rung closed the
        # instance; otherwise the LP ratio stands in (conservative: it is
        # never smaller than the true ratio, so within-via-LP is a proof).
        ratio = (
            certificate.ratio_vs_opt
            if certificate.ratio_vs_opt is not None
            else certificate.ratio_vs_lp
        )
        quality["bound"] = round(bound, 6)
        quality["within_bound"] = bool(ratio <= bound + 1e-9)
    record.quality = quality
    return record


def _iter_records(
    cells: List[GridCell],
    jobs: int,
    strategy: str,
    batch_size: int,
    certify: Optional[str],
) -> Iterator[Tuple[int, RunRecord]]:
    """``(cell_index, record)`` in completion order, certified when asked.

    Bad axis values (strategy, oracle mode) raise here, at the call — not
    on first iteration — so the error surfaces at the faulty call site
    even if the iterator is handed off or never consumed.
    """
    if strategy not in STRATEGIES:
        raise UnknownStrategyError(strategy, available_strategies())
    pairs = _iter_units(cells, jobs, strategy, batch_size)
    if certify is None:
        return pairs
    from repro.oracle import check_oracle_mode

    check_oracle_mode(certify)
    return ((index, _certify_record(record, certify)) for index, record in pairs)


def iter_grid_records(
    cells: Iterable[GridCell],
    jobs: int = 1,
    strategy: str = "cell",
    batch_size: int = 0,
    certify: Optional[str] = None,
) -> Iterator[RunRecord]:
    """Stream typed records in *completion* order, record by record.

    ``certify`` (an oracle mode: ``"auto"``, ``"exact"``, ``"ilp"`` or
    ``"lp"``) attaches the certification oracle's ``quality`` block to
    each eligible success record as it streams by — computed parent-side
    against the shared oracle cache (see :func:`_certify_record`).

    Stacked batch groups stream per instance: when an instance's
    termination mask flips inside a ragged group, its record is yielded
    immediately — in-process *and* across pool workers, where each record
    is pushed through the worker's result channel the moment it exists,
    so records of concurrently-running units interleave here in true
    completion order.  The record set is identical to
    :func:`run_grid_records`'s — only the order differs (and only under
    worker parallelism or batching); sort by cell position to restore the
    deterministic order.  Bad axis values raise eagerly, at the call.
    """
    pairs = _iter_records(list(cells), jobs, strategy, batch_size, certify)
    return (record for _index, record in pairs)


def run_grid_records(
    cells: Iterable[GridCell],
    jobs: int = 1,
    strategy: str = "cell",
    batch_size: int = 0,
    certify: Optional[str] = None,
) -> List[RunRecord]:
    """Run every cell; typed records in deterministic cell order.

    ``strategy="cell"`` executes one simulation per cell;
    ``strategy="batch"`` stacks each group of vector-engine sweep cells —
    seeds and sizes alike, as one ragged multi-instance plane —
    (``batch_size`` caps the stack width; 0 means one stack per group).
    Results come back in cell order under every combination, and each
    unique (family, n, seed) topology is generated exactly once — reused
    in-process sequentially, published through shared memory to workers.
    """
    cells = list(cells)
    results: List[Optional[RunRecord]] = [None] * len(cells)
    for index, record in _iter_records(cells, jobs, strategy, batch_size, certify):
        results[index] = record
    return results  # type: ignore[return-value]


def run_grid(
    cells: Iterable[GridCell],
    jobs: int = 1,
    strategy: str = "cell",
    batch_size: int = 0,
    certify: Optional[str] = None,
    stream: bool = False,
):
    """Run every cell, optionally across ``jobs`` worker processes.

    Returns legacy dict records (the JSON artifact shape) in cell order.
    With ``stream=True`` it instead returns an iterator that yields each
    record as it completes — per instance inside stacked batch groups,
    across pool workers too, in completion order, incremental — for
    progress rendering and pipelined consumers; the record *set* is
    identical either way.  Typed-record equivalents:
    :func:`run_grid_records` / :func:`iter_grid_records`.
    """
    if stream:
        records = iter_grid_records(
            cells, jobs=jobs, strategy=strategy, batch_size=batch_size, certify=certify
        )
        return (rec.to_dict() for rec in records)
    return [
        rec.to_dict()
        for rec in run_grid_records(
            cells, jobs=jobs, strategy=strategy, batch_size=batch_size, certify=certify
        )
    ]


def summarize_results(results: Sequence[Mapping[str, object]]) -> Dict[str, object]:
    """Aggregate a grid run: totals per engine plus cross-engine speedups.

    Accepts legacy dict records or typed :class:`RunRecord` objects.  The
    ``speedup_vs_reference`` map reports, for every non-reference engine,
    total-reference-wall / total-engine-wall over the cells where *both*
    engines succeeded on the same (family, n, program, seed) work item —
    the apples-to-apples wall-clock ratio.
    """
    per_engine: Dict[str, Dict[str, float]] = {}
    walls: Dict[tuple, Dict[str, float]] = {}
    failures = []
    for rec in as_record_dicts(results):
        cell = rec["cell"]  # type: ignore[index]
        engine = cell["engine"]  # type: ignore[index]
        agg = per_engine.setdefault(
            engine, {"cells": 0, "ok": 0, "wall_s": 0.0, "rounds": 0, "messages": 0}
        )
        agg["cells"] += 1
        if rec.get("ok"):
            metrics = rec["metrics"]  # type: ignore[index]
            agg["ok"] += 1
            agg["wall_s"] += rec["wall_s"]  # type: ignore[operator]
            agg["rounds"] += metrics["rounds"]  # type: ignore[index]
            agg["messages"] += metrics["total_messages"]  # type: ignore[index]
            item = (cell["family"], cell["n"], cell["program"], cell["seed"])  # type: ignore[index]
            walls.setdefault(item, {})[engine] = rec["wall_s"]  # type: ignore[assignment]
        else:
            failures.append({"key": rec["key"], "error": rec["error"]})
    speedups: Dict[str, float] = {}
    for engine in per_engine:
        if engine == "reference":
            continue
        ref_total = eng_total = 0.0
        for by_engine in walls.values():
            if "reference" in by_engine and engine in by_engine:
                ref_total += by_engine["reference"]
                eng_total += by_engine[engine]
        if eng_total > 0:
            speedups[engine] = round(ref_total / eng_total, 3)
    return {
        "per_engine": per_engine,
        "speedup_vs_reference": speedups,
        "failures": failures,
    }


def results_payload(
    results: Sequence[Mapping[str, object]], meta: Mapping[str, object] | None = None
) -> Dict[str, object]:
    """The canonical JSON document for one grid run."""
    return {
        "generator": "repro.experiments.runner",
        "meta": dict(meta or {}),
        "summary": summarize_results(results),
        "cells": as_record_dicts(results),
    }


def write_results(
    path: str | Path,
    results: Sequence[Mapping[str, object]],
    meta: Mapping[str, object] | None = None,
) -> Path:
    """Write the grid run to ``path`` as pretty-printed JSON."""
    path = Path(path)
    path.write_text(json.dumps(results_payload(results, meta), indent=2) + "\n")
    return path
