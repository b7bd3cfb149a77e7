"""The in-process simulation service: admission windows over the runner.

:class:`SimulationService` turns the run-to-completion experiment stack
into an always-on facade: callers (*tenants*) submit grid cells at any
time from any thread, a dispatcher thread groups concurrently-pending
cells into **batch windows**, and each window executes as one coalesced
dispatch through the existing runner — compatible cells across tenants
stack into a single ragged :class:`~repro.congest.engine.batched.
StackedPlane`, and every record streams back to its requester the moment
its instance's termination mask flips.  The JSON-lines server
(:mod:`repro.service.server`) is a thin shell over this class; tests and
library callers drive it directly.

Why coalescing is legal
-----------------------
Runs are deterministic: a cell's record depends only on the cell.  The
ragged stacked plane (PR 5) is bit-for-bit equal to per-cell execution,
so stacking *different tenants'* cells into one plane changes wall-clock
attribution and nothing else.  The service leans on both facts twice
over — once to coalesce, once to cache (:mod:`repro.service.cache`).

Window policy
-------------
A window opens when the first cell becomes pending and closes on the
first of: **deadline** (``window_s`` after opening), **width**
(``max_window_width`` admitted cells), an explicit :meth:`~
SimulationService.flush`, or service **drain** at :meth:`~
SimulationService.stop`.  While open, newly-arriving cells are admitted
round-robin across tenants, at most ``max_inflight_per_client`` per
tenant per window — a heavy sweep fills *its* share of the window and
queues the rest, it cannot starve other tenants.  Each tenant's pending
queue is bounded (``max_pending_per_client``); an overflowing submission
is rejected whole with :class:`~repro.errors.ClientQueueFullError`.

While the window waits for its deadline, the dispatcher prepares the
topologies of the cells it has admitted: it generates and publishes them
to the topology cache one at a time, in admission order, without holding
the service lock.  It skips cells the result cache will serve and stops
at ``topology_cache_entries`` distinct topologies per window, so
execution finds them published.  The window is checked again after each
preparation, so a deadline closes it at most one preparation late, and
flush, width and drain close it once the preparation in flight is done.

Execution of a window: entries are deduped by cell identity (two tenants
asking for the same cell simulate it once), the result cache serves what
it can (per-ticket opt-out respected), and the residue runs through the
runner's batch planner (fixed ``batch_size`` chunking) — stackable cells
as ragged planes with topologies attached from the shared-memory
topology cache, the rest per cell.  Records are delivered per ticket as they stream; success records
enter the result cache normalized to the solo shape.

Certification (``certify=`` on :meth:`~SimulationService.submit`) runs
per delivery on the requester's own copy, against the process-wide
oracle cache — the service's "quality twin": ``ServiceConfig.
oracle_cache_path`` loads persisted certificates at :meth:`~
SimulationService.start` and dumps them at :meth:`~SimulationService.
stop`, so certificates survive across service lifetimes exactly like
results survive across tenants.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from pathlib import Path
from queue import Empty, Queue
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Set, Union

from repro.api.records import RunRecord
from repro.api.registry import program_spec
from repro.congest.engine import available_engines
from repro.errors import (
    ClientQueueFullError,
    ServiceClosedError,
    UnknownEngineError,
)
from repro.experiments.runner import (
    GridCell,
    _batch_plan,
    _certify_record,
    _iter_batched_group_records,
    _run_cell_record,
)
from repro.service.cache import ResultCache, TopologyCache, normalized_record

__all__ = ["ServedRecord", "ServiceConfig", "SimulationService", "Ticket"]

#: What :meth:`SimulationService.submit` accepts as one cell.
CellLike = Union[GridCell, Mapping[str, object]]


@dataclass(frozen=True)
class ServiceConfig:
    """Tuning knobs of one :class:`SimulationService` (all deterministic).

    ``window_s`` is the admission deadline — the latency a lone request
    pays to give concurrent tenants a chance to coalesce.  ``0`` for the
    width cap means unbounded (deadline/flush close the window).
    ``batch_size`` passes through to the runner's planner as the stack
    width cap inside one dispatch.  ``oracle_cache_path`` persists the
    certification memo across service lifetimes (loaded on start, dumped
    on stop).
    """

    window_s: float = 0.05
    max_window_width: int = 64
    batch_size: int = 0
    max_pending_per_client: int = 256
    max_inflight_per_client: int = 32
    result_cache_entries: int = 1024
    topology_cache_entries: int = 64
    oracle_cache_path: Optional[str] = None


@dataclass
class ServedRecord:
    """One delivered record plus the service's per-delivery meta.

    ``record`` is solo-parity (normalized: no ``batch``/``plan`` blocks —
    identical fields to a ``strategy="cell"`` :meth:`Experiment.run`
    record up to wall-clock, plus ``quality`` when the ticket asked to
    certify).  ``meta`` is where the service's own telemetry lives:
    ``window`` (the 1-based window ordinal that served it), ``cache_hit``
    (served from the result cache), ``stack_width`` (instances in the
    plane that computed it; 1 for per-cell and cached records) and
    ``latency_s`` (submit-to-delivery, the figure the service benchmark
    reports).  Keeping telemetry out of the record is what makes the
    parity guarantee checkable field for field.
    """

    index: int
    record: RunRecord
    meta: Dict[str, object] = field(default_factory=dict)


class Ticket:
    """One submission's handle: a thread-safe stream of served records.

    Iterate to receive :class:`ServedRecord` objects in completion order;
    the iterator ends when every cell of the submission was delivered (or
    accounted as cancelled).  :meth:`collect` gathers records back into
    submission order.  :meth:`cancel` is the client-disconnect path: the
    service skips delivery for cancelled tickets (their cells may still
    execute inside an already-coalesced window — determinism makes that
    harmless, and siblings in the window still get their records).
    """

    def __init__(
        self,
        client: str,
        cells: Sequence[GridCell],
        use_cache: bool = True,
        certify: Optional[str] = None,
    ):
        self.client = client
        self.cells = list(cells)
        self.use_cache = bool(use_cache)
        self.certify = certify
        self.submitted_at = time.monotonic()
        self._events: "Queue[Optional[ServedRecord]]" = Queue()
        self._accounted = 0
        self._state_lock = threading.Lock()
        self._cancelled = threading.Event()
        if not self.cells:
            self._events.put(None)

    @property
    def cancelled(self) -> bool:
        return self._cancelled.is_set()

    def cancel(self) -> None:
        """Stop deliveries to this ticket and end its event stream."""
        self._cancelled.set()
        self._events.put(None)

    def _account(self) -> bool:
        with self._state_lock:
            self._accounted += 1
            return self._accounted >= len(self.cells)

    def _push(self, served: ServedRecord) -> None:
        done = self._account()
        if not self.cancelled:
            self._events.put(served)
        if done:
            self._events.put(None)

    def _skip(self) -> None:
        """Account one cancelled-entry delivery without an event."""
        if self._account():
            self._events.put(None)

    def next_event(self, timeout: Optional[float] = None) -> Optional[ServedRecord]:
        """Block for the next served record; ``None`` means the stream ended.

        With a ``timeout``, a stalled service surfaces as
        :class:`~repro.errors.ServiceClosedError` instead of a hang.
        """
        try:
            return self._events.get(timeout=timeout)
        except Empty:
            raise ServiceClosedError(
                f"no record within {timeout}s (service stalled or stopped)"
            ) from None

    def __iter__(self) -> Iterator[ServedRecord]:
        while True:
            served = self.next_event()
            if served is None:
                return
            yield served

    def collect(self, timeout: Optional[float] = 120.0) -> List[RunRecord]:
        """Every record of the submission, restored to submission order."""
        records: List[Optional[RunRecord]] = [None] * len(self.cells)
        remaining = len(self.cells)
        while remaining:
            served = self.next_event(timeout=timeout)
            if served is None:
                raise ServiceClosedError(
                    f"submission ended after {len(self.cells) - remaining} of "
                    f"{len(self.cells)} records (cancelled or service stopped)"
                )
            records[served.index] = served.record
            remaining -= 1
        return records  # type: ignore[return-value]


class _Entry:
    """One pending cell: its ticket and submission index."""

    __slots__ = ("ticket", "index", "cell")

    def __init__(self, ticket: Ticket, index: int, cell: GridCell):
        self.ticket = ticket
        self.index = index
        self.cell = cell


class SimulationService:
    """The always-on multi-tenant facade over the experiment runner."""

    def __init__(self, config: Optional[ServiceConfig] = None):
        self.config = config or ServiceConfig()
        self.results = ResultCache(self.config.result_cache_entries)
        self.topologies = TopologyCache(self.config.topology_cache_entries)
        self._cond = threading.Condition()
        self._queues: "OrderedDict[str, deque]" = OrderedDict()
        self._pending = 0
        self._flush_requested = False
        self._stopping = False
        self._running = False
        self._thread: Optional[threading.Thread] = None
        # Stats (guarded by self._cond):
        self._windows = 0
        self._coalesced_windows = 0
        self._records_served = 0
        self._cache_served = 0
        self._close_reasons: Dict[str, int] = {}

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> "SimulationService":
        with self._cond:
            if self._running:
                return self
            self._running = True
            self._stopping = False
        path = self.config.oracle_cache_path
        if path and Path(path).exists():
            from repro.oracle import oracle_cache

            oracle_cache().load(path)
        self._thread = threading.Thread(
            target=self._dispatch_loop, name="repro-service-dispatch", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, drain: bool = True) -> None:
        """Shut down: by default finish every pending cell first.

        ``drain=False`` cancels all pending work instead — affected
        tickets' streams end early (their :meth:`Ticket.collect` raises
        :class:`~repro.errors.ServiceClosedError`).
        """
        with self._cond:
            if not self._running:
                return
            self._stopping = True
            if not drain:
                for queue in self._queues.values():
                    for entry in queue:
                        entry.ticket.cancel()
                        entry.ticket._skip()
                        self._pending -= 1
                    queue.clear()
            self._cond.notify_all()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        with self._cond:
            self._running = False
        path = self.config.oracle_cache_path
        if path:
            from repro.oracle import oracle_cache

            oracle_cache().dump(path)
        self.topologies.clear()

    def __enter__(self) -> "SimulationService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- client surface --------------------------------------------------------

    @staticmethod
    def _as_cell(cell: CellLike) -> GridCell:
        if isinstance(cell, GridCell):
            return cell
        return GridCell(
            family=str(cell["family"]),
            n=int(cell["n"]),  # type: ignore[arg-type]
            program=str(cell["program"]),
            engine=str(cell["engine"]),
            seed=int(cell.get("seed", 7)),  # type: ignore[arg-type, union-attr]
        )

    def submit(
        self,
        client: str,
        cells: Sequence[CellLike],
        use_cache: bool = True,
        certify: Optional[str] = None,
    ) -> Ticket:
        """Enqueue a tenant's cells; returns the delivery :class:`Ticket`.

        Grid axes are validated eagerly — an unknown program/engine (or
        oracle mode) raises the same structured error the builder raises,
        before anything enqueues — mirroring the grid-expansion contract
        that one bad axis value must not poison a queue.  ``use_cache=
        False`` opts this submission out of result-cache *reads* (fresh
        execution guaranteed; the fresh results still refresh the cache).
        """
        resolved = [self._as_cell(cell) for cell in cells]
        registered = set(available_engines())
        for cell in resolved:
            program_spec(cell.program)  # raises UnknownProgramError
            if cell.engine not in registered:
                raise UnknownEngineError(cell.engine, available_engines())
        if certify is not None:
            from repro.oracle import check_oracle_mode

            check_oracle_mode(certify)
        ticket = Ticket(client, resolved, use_cache=use_cache, certify=certify)
        entries = [_Entry(ticket, i, cell) for i, cell in enumerate(resolved)]
        with self._cond:
            if not self._running or self._stopping:
                raise ServiceClosedError()
            queue = self._queues.setdefault(client, deque())
            limit = self.config.max_pending_per_client
            if len(queue) + len(entries) > limit:
                raise ClientQueueFullError(client, len(queue), limit)
            queue.extend(entries)
            self._pending += len(entries)
            self._cond.notify_all()
        return ticket

    def flush(self) -> None:
        """Close the current (or next) batch window immediately.

        Primarily a determinism aid for tests and drains: everything
        pending at flush time is admitted (fairness caps permitting) and
        executed without waiting out the window deadline.
        """
        with self._cond:
            self._flush_requested = True
            self._cond.notify_all()

    def stats(self) -> Dict[str, object]:
        with self._cond:
            return {
                "running": self._running,
                "pending": self._pending,
                "clients": len(self._queues),
                "windows": self._windows,
                "coalesced_windows": self._coalesced_windows,
                "records_served": self._records_served,
                "cache_served": self._cache_served,
                "window_close_reasons": dict(self._close_reasons),
                "result_cache": self.results.stats(),
                "topology_cache": self.topologies.stats(),
            }

    # -- dispatcher ------------------------------------------------------------

    def _admit(self, window: List[_Entry], taken: Dict[str, int]) -> None:
        """Move pending entries into the window, round-robin across tenants.

        Caller holds ``self._cond``.  Respects the per-tenant in-flight
        cap and the window width cap; cancelled entries are
        accounted and dropped here (the disconnect path for cells whose
        window had not opened yet).
        """
        cfg = self.config
        progress = True
        while progress:
            progress = False
            for client, queue in list(self._queues.items()):
                if not queue:
                    continue
                if taken.get(client, 0) >= cfg.max_inflight_per_client:
                    continue
                if cfg.max_window_width and len(window) >= cfg.max_window_width:
                    return
                entry = queue.popleft()
                self._pending -= 1
                progress = True
                if entry.ticket.cancelled:
                    entry.ticket._skip()
                    continue
                window.append(entry)
                taken[client] = taken.get(client, 0) + 1

    def _dispatch_loop(self) -> None:
        cfg = self.config
        while True:
            with self._cond:
                while self._pending == 0 and not self._stopping:
                    self._flush_requested = False  # nothing to flush
                    self._cond.wait()
                if self._pending == 0 and self._stopping:
                    return
                deadline = time.monotonic() + cfg.window_s
                window: List[_Entry] = []
                taken: Dict[str, int] = {}
                prepared: Set[tuple] = set()
                while True:
                    self._admit(window, taken)
                    if self._stopping:
                        reason = "drain"
                        break
                    if self._flush_requested:
                        reason = "flush"
                        break
                    if cfg.max_window_width and len(window) >= cfg.max_window_width:
                        reason = "width"
                        break
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        reason = "deadline"
                        break
                    cell = self._next_to_prepare(window, prepared)
                    if cell is None:
                        self._cond.wait(timeout=remaining)
                        continue
                    # Generation must not hold up submit, flush, stats or stop.
                    self._cond.release()
                    try:
                        self.topologies.prepare(cell)
                    finally:
                        self._cond.acquire()
                self._flush_requested = False
            if window:
                self._execute_window(window, reason)

    def _next_to_prepare(
        self, window: List[_Entry], prepared: Set[tuple]
    ) -> Optional[GridCell]:
        """The next admitted cell whose topology the open window prepares.

        Caller holds ``self._cond``.  Walks the cells the window will run
        (the result cache serves the others) in the order
        :meth:`_execute_window` runs them, :func:`_batch_plan`'s, and
        returns the first whose topology this window has not prepared, or
        ``None`` when nothing is left to prepare for now.  Stops at
        ``topology_cache_entries`` distinct topologies, so one preparation
        never evicts another of the same window, and execution uses the
        prepared ones before any miss can evict them.
        """
        if len(prepared) >= self.topologies.max_entries:
            return None
        runs: Dict[GridCell, bool] = {}
        for entry in window:
            cached = entry.ticket.use_cache and entry.cell in self.results
            runs[entry.cell] = runs.get(entry.cell, False) or not cached
        cells = [cell for cell, run in runs.items() if run]
        for _, indices in _batch_plan(cells, self.config.batch_size):
            for i in indices:
                key = cells[i].topology_key
                if key not in prepared:
                    prepared.add(key)
                    return cells[i]
        return None

    # -- window execution ------------------------------------------------------

    def _execute_window(self, window: List[_Entry], reason: str) -> None:
        cfg = self.config
        with self._cond:
            self._windows += 1
            window_id = self._windows
            self._close_reasons[reason] = self._close_reasons.get(reason, 0) + 1

        # Dedupe: all entries wanting one cell identity share one execution.
        wanted: "OrderedDict[GridCell, List[_Entry]]" = OrderedDict()
        for entry in window:
            wanted.setdefault(entry.cell, []).append(entry)

        # Result-cache pass.  A cached cell is delivered immediately to its
        # cache-willing requesters; it re-runs only if an opt-out requester
        # remains (whose fresh — identical — record then refreshes the
        # cache and also serves any cache-willing co-requesters).
        to_run: List[GridCell] = []
        for cell, entries in list(wanted.items()):
            if any(entry.ticket.use_cache for entry in entries):
                cached = self.results.get(cell)
            else:
                cached = None
            if cached is None:
                to_run.append(cell)
                continue
            opted_out = [e for e in entries if not e.ticket.use_cache]
            for entry in entries:
                if entry.ticket.use_cache:
                    self._deliver(entry, cached, window_id, cache_hit=True, width=1)
            if opted_out:
                wanted[cell] = opted_out
                to_run.append(cell)
            else:
                del wanted[cell]

        # Coalesced execution of the residue through the runner's planner:
        # stackable cells as ragged planes, the rest per cell — identical
        # machinery, records stream out at instance termination.
        coalesced = False
        for kind, indices in _batch_plan(to_run, cfg.batch_size):
            if kind == "cell":
                cell = to_run[indices[0]]
                record = _run_cell_record(
                    cell, network=self.topologies.network_for(cell)
                )
                self._finish(cell, record, wanted, window_id, width=1)
            else:
                group = [to_run[i] for i in indices]
                tenants = {e.ticket.client for c in group for e in wanted[c]}
                if len(tenants) >= 2:
                    coalesced = True
                networks = [self.topologies.network_for(c) for c in group]
                for local, record in _iter_batched_group_records(
                    group, networks=networks
                ):
                    self._finish(
                        group[local], record, wanted, window_id, width=len(group)
                    )
        if coalesced:
            with self._cond:
                self._coalesced_windows += 1

    def _finish(
        self,
        cell: GridCell,
        record: RunRecord,
        wanted: Mapping[GridCell, List[_Entry]],
        window_id: int,
        width: int,
    ) -> None:
        """Normalize, cache, and fan one fresh record out to its requesters."""
        normalized = normalized_record(record)
        self.results.store(normalized)
        for entry in wanted.get(cell, ()):
            self._deliver(entry, normalized, window_id, cache_hit=False, width=width)

    def _deliver(
        self,
        entry: _Entry,
        record: RunRecord,
        window_id: int,
        cache_hit: bool,
        width: int,
    ) -> None:
        if entry.ticket.cancelled:
            entry.ticket._skip()
            return
        # Every requester owns an independent copy: certification mutates
        # it, and two tenants served by one execution must not share state.
        copy = RunRecord.from_dict(record.to_dict())
        if entry.ticket.certify is not None:
            copy = _certify_record(copy, entry.ticket.certify)
        meta: Dict[str, object] = {
            "window": window_id,
            "cache_hit": cache_hit,
            "stack_width": width,
            "latency_s": round(time.monotonic() - entry.ticket.submitted_at, 6),
        }
        with self._cond:
            self._records_served += 1
            if cache_hit:
                self._cache_served += 1
        entry.ticket._push(ServedRecord(index=entry.index, record=copy, meta=meta))
