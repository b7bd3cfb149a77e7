"""The simulation service: windows, coalescing, caches, fairness, protocol.

The load-bearing guarantee is **cross-tenant coalescing determinism**:
records served through the service — coalesced into ragged stacked planes
with other tenants' cells, deduped, or replayed from the result cache —
are field-for-field identical to solo ``Experiment.run()`` records on the
strategy-invariant fields (cell identity, ok, the whole metrics block;
the same :func:`~repro.experiments.harness.comparable_records` contract
every other execution strategy is held to).  Wall-clock differs by
nature; everything else must not.
"""

from __future__ import annotations

import asyncio
import json
import socket
import sys
import threading
import time
from contextlib import contextmanager

import pytest

from repro.api import Experiment
from repro.errors import (
    ClientQueueFullError,
    ServiceClosedError,
    UnknownEngineError,
    UnknownProgramError,
)
from repro.experiments.harness import comparable_records
from repro.experiments.runner import GridCell
from repro.service import (
    RemoteServiceError,
    ServiceClient,
    ServiceConfig,
    ServiceServer,
    SimulationService,
)
from repro.service.protocol import cell_to_wire, encode_frame

#: A generous window: tests close windows explicitly with flush() so
#: nothing races the deadline, and a stuck test fails fast via timeouts.
SLOW_WINDOW = ServiceConfig(window_s=30.0)

COLLECT_TIMEOUT = 60.0

#: How long a test waits for an open window to prepare its topologies.
PREPARE_TIMEOUT = 30.0


def _cells(sizes, seeds, program="greedy", engine="vector", family="gnp"):
    return [
        GridCell(family, n, program, engine, seed=s) for n in sizes for s in seeds
    ]


def _solo_records(cells):
    """The ground truth: each cell run solo through the builder."""
    records = []
    for cell in cells:
        sweep = (
            Experiment(cell.program)
            .on(cell.family)
            .sizes(cell.n)
            .engines(cell.engine)
            .seeds([cell.seed])
            .strategy("cell")
            .run()
        )
        assert len(sweep) == 1
        records.append(sweep[0])
    return records


@pytest.fixture()
def service():
    svc = SimulationService(SLOW_WINDOW).start()
    yield svc
    svc.stop(drain=False)


@contextmanager
def _running_server(config):
    """A :class:`ServiceServer` on its own event-loop thread, stopped on exit."""
    loop = asyncio.new_event_loop()
    srv = ServiceServer(SimulationService(config))
    started = threading.Event()

    def run():
        asyncio.set_event_loop(loop)
        loop.run_until_complete(srv.start())
        started.set()
        loop.run_forever()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert started.wait(timeout=30)
    try:
        yield srv
    finally:
        asyncio.run_coroutine_threadsafe(srv.stop(), loop).result(timeout=30)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=30)
        assert not thread.is_alive()
        loop.close()


def _wait_for(predicate, timeout=PREPARE_TIMEOUT):
    """Poll ``predicate`` until it holds; whether it did within ``timeout`` s."""
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.005)
    return True


def _topology_stats(service):
    return service.stats()["topology_cache"]


def _returns_within(fn, timeout=5.0):
    """``fn()``'s result, called on another thread that must return in time."""
    result = []
    thread = threading.Thread(target=lambda: result.append(fn()), daemon=True)
    thread.start()
    thread.join(timeout)
    assert result, f"{fn.__name__}() blocked behind a topology preparation"
    return result[0]


class _HeldBuild:
    """Holds the service's first build of one topology until :attr:`release`
    is set; :attr:`started` is set once that build is running."""

    def __init__(self, monkeypatch, cell):
        import repro.service.cache as cache_module

        self.started = threading.Event()
        self.release = threading.Event()
        build = cache_module.build_network

        def held(built):
            if built.topology_key == cell.topology_key and not self.started.is_set():
                self.started.set()
                self.release.wait(timeout=COLLECT_TIMEOUT)
            return build(built)

        monkeypatch.setattr(cache_module, "build_network", held)


def _is_stats(frame):
    return frame.get("type") == "stats"


def _raw_exchange(port, payload: bytes, until=_is_stats, eof=False):
    """Send raw wire bytes on a fresh connection (then half-close it if
    ``eof``); return the frames received up to and including the first one
    ``until`` accepts."""
    with socket.create_connection(("127.0.0.1", port), timeout=30) as raw:
        raw.sendall(payload)
        if eof:
            raw.shutdown(socket.SHUT_WR)
        with raw.makefile("rb") as reader:
            received = []
            while not received or not until(received[-1]):
                line = reader.readline()
                assert line, f"connection closed after {received}"
                received.append(json.loads(line))
    return received


class TestServiceBasics:
    def test_submit_before_start_raises(self):
        svc = SimulationService(SLOW_WINDOW)
        with pytest.raises(ServiceClosedError):
            svc.submit("t", _cells((20,), (0,)))

    def test_submit_after_stop_raises(self):
        svc = SimulationService(SLOW_WINDOW).start()
        svc.stop()
        with pytest.raises(ServiceClosedError):
            svc.submit("t", _cells((20,), (0,)))

    def test_bad_axes_rejected_eagerly(self, service):
        with pytest.raises(UnknownProgramError):
            service.submit("t", [GridCell("gnp", 20, "nope", "vector", 0)])
        with pytest.raises(UnknownEngineError):
            service.submit("t", [GridCell("gnp", 20, "greedy", "warp", 0)])
        with pytest.raises(ValueError):
            service.submit("t", _cells((20,), (0,)), certify="psychic")

    def test_empty_submission_completes_immediately(self, service):
        ticket = service.submit("t", [])
        assert ticket.collect(timeout=5.0) == []

    def test_dict_cells_accepted(self, service):
        ticket = service.submit(
            "t",
            [{"family": "gnp", "n": 20, "program": "greedy", "engine": "vector"}],
        )
        service.flush()
        (record,) = ticket.collect(timeout=COLLECT_TIMEOUT)
        assert record.ok
        assert record.cell == GridCell("gnp", 20, "greedy", "vector", 7)

    def test_unknown_family_degrades_to_error_record(self, service):
        ticket = service.submit("t", [GridCell("mobius", 20, "greedy", "vector", 0)])
        service.flush()
        (record,) = ticket.collect(timeout=COLLECT_TIMEOUT)
        assert not record.ok
        assert record.error and record.error["type"]

    def test_stop_drains_pending_work(self):
        svc = SimulationService(SLOW_WINDOW).start()
        ticket = svc.submit("t", _cells((20, 30), (0, 1)))
        svc.stop(drain=True)  # no flush: drain itself must finish the work
        records = ticket.collect(timeout=COLLECT_TIMEOUT)
        assert len(records) == 4 and all(r.ok for r in records)

    def test_stop_without_drain_cancels(self):
        svc = SimulationService(SLOW_WINDOW).start()
        ticket = svc.submit("t", _cells((20,), range(4)))
        svc.stop(drain=False)
        with pytest.raises(ServiceClosedError):
            ticket.collect(timeout=5.0)


class TestCoalescingDeterminism:
    def test_single_tenant_records_match_solo_runs(self, service):
        cells = _cells((20, 30), (0, 1, 2))
        ticket = service.submit("t", cells)
        service.flush()
        served = ticket.collect(timeout=COLLECT_TIMEOUT)
        assert comparable_records(served) == comparable_records(_solo_records(cells))
        # Normalized delivery: no batch/plan leakage from the coalesced path.
        assert all(rec.batch is None and rec.plan is None for rec in served)

    def test_two_tenants_coalesce_and_match_solo(self, service):
        cells_a = _cells((20, 30), (0, 1))
        cells_b = _cells((30, 40), (1, 2))  # overlaps a on (30, 1)
        ticket_a = service.submit("tenant-a", cells_a)
        ticket_b = service.submit("tenant-b", cells_b)
        service.flush()
        served_a = ticket_a.collect(timeout=COLLECT_TIMEOUT)
        served_b = ticket_b.collect(timeout=COLLECT_TIMEOUT)
        assert comparable_records(served_a) == comparable_records(
            _solo_records(cells_a)
        )
        assert comparable_records(served_b) == comparable_records(
            _solo_records(cells_b)
        )
        stats = service.stats()
        assert stats["coalesced_windows"] >= 1
        # 8 submitted cells, 7 unique: the shared cell simulated once.
        assert stats["result_cache"]["entries"] == 7

    def test_concurrent_submitting_threads_match_solo(self, service):
        tenants = {
            f"tenant-{i}": _cells((20, 30, 40), (i, i + 1)) for i in range(4)
        }
        tickets = {}
        barrier = threading.Barrier(len(tenants) + 1)

        def tenant(name, cells):
            barrier.wait()
            tickets[name] = service.submit(name, cells)

        threads = [
            threading.Thread(target=tenant, args=item) for item in tenants.items()
        ]
        for t in threads:
            t.start()
        barrier.wait()
        for t in threads:
            t.join()
        # All submissions are queued; close the window around all of them.
        service.flush()
        for name, cells in tenants.items():
            served = tickets[name].collect(timeout=COLLECT_TIMEOUT)
            assert comparable_records(served) == comparable_records(
                _solo_records(cells)
            )

    def test_mixed_programs_and_engines_in_one_window(self, service):
        cells = _cells((20,), (0, 1)) + _cells(
            (20,), (0,), program="color-reduction"
        ) + _cells((20,), (0,), engine="fast")
        ticket = service.submit("t", cells)
        service.flush()
        served = ticket.collect(timeout=COLLECT_TIMEOUT)
        assert comparable_records(served) == comparable_records(_solo_records(cells))

    def test_certified_delivery_matches_solo_certify(self, service):
        cells = _cells((20,), (0, 1))
        ticket = service.submit("t", cells, certify="auto")
        service.flush()
        served = ticket.collect(timeout=COLLECT_TIMEOUT)
        solo = (
            Experiment("greedy")
            .on("gnp")
            .sizes(20)
            .engines("vector")
            .seeds([0, 1])
            .strategy("cell")
            .certify("auto")
            .run()
        )
        # Solve wall and oracle-cache warmth vary run to run; every other
        # quality field is deterministic and must agree.
        volatile = ("solve_wall_s", "cache_hit")
        for got, want in zip(served, solo):
            assert got.quality is not None and want.quality is not None
            assert {k: v for k, v in got.quality.items() if k not in volatile} == {
                k: v for k, v in want.quality.items() if k not in volatile
            }


class TestResultCache:
    def test_repeat_submission_hits_the_cache(self, service):
        cells = _cells((20, 30), (0,))
        first = service.submit("t", cells)
        service.flush()
        records_first = first.collect(timeout=COLLECT_TIMEOUT)
        second = service.submit("t", cells)
        service.flush()
        records_second = second.collect(timeout=COLLECT_TIMEOUT)
        assert comparable_records(records_first) == comparable_records(
            records_second
        )
        stats = service.stats()
        assert stats["result_cache"]["hits"] == 2
        assert stats["cache_served"] == 2

    def test_cache_hits_are_flagged_in_delivery_meta(self, service):
        cells = _cells((20,), (0,))
        first = service.submit("t", cells)
        service.flush()
        assert [s.meta["cache_hit"] for s in first] == [False]
        second = service.submit("t", cells)
        service.flush()
        assert [s.meta["cache_hit"] for s in second] == [True]

    def test_use_cache_false_bypasses_reads(self, service):
        cells = _cells((20,), (0,))
        warm = service.submit("t", cells)
        service.flush()
        warm.collect(timeout=COLLECT_TIMEOUT)
        opt_out = service.submit("t", cells, use_cache=False)
        service.flush()
        (served,) = list(opt_out)
        assert served.meta["cache_hit"] is False
        # The fresh run still refreshed the cache (entry count unchanged,
        # no hit counted for the opted-out read).
        assert service.stats()["result_cache"]["hits"] == 0

    def test_opt_out_and_cached_requester_share_one_execution(self, service):
        cells = _cells((20,), (0,))
        warm = service.submit("t", cells)
        service.flush()
        warm.collect(timeout=COLLECT_TIMEOUT)  # cache is warm from here
        cached = service.submit("a", cells)  # will be served from cache
        fresh = service.submit("b", cells, use_cache=False)  # forces a run
        service.flush()
        (from_cache,) = list(cached)
        (from_run,) = list(fresh)
        assert from_cache.meta["cache_hit"] is True
        assert from_run.meta["cache_hit"] is False
        assert comparable_records([from_cache.record]) == comparable_records(
            [from_run.record]
        )

    def test_failure_records_are_not_cached(self, service):
        bad = [GridCell("mobius", 20, "greedy", "vector", 0)]
        first = service.submit("t", bad)
        service.flush()
        assert not list(first)[0].record.ok
        ticket = service.submit("t", bad)
        service.flush()
        (served,) = list(ticket)
        assert served.meta["cache_hit"] is False
        assert service.stats()["result_cache"]["entries"] == 0

    def test_lru_bound_evicts_oldest(self):
        svc = SimulationService(
            ServiceConfig(window_s=30.0, result_cache_entries=2)
        ).start()
        try:
            for seed in (0, 1, 2):
                ticket = svc.submit("t", _cells((20,), (seed,)))
                svc.flush()
                ticket.collect(timeout=COLLECT_TIMEOUT)
            assert svc.stats()["result_cache"]["entries"] == 2
            # seed 0 evicted: resubmitting it misses.
            ticket = svc.submit("t", _cells((20,), (0,)))
            svc.flush()
            (served,) = list(ticket)
            assert served.meta["cache_hit"] is False
        finally:
            svc.stop(drain=False)


class TestWindowPreparation:
    """An open window generates and publishes its admitted cells'
    topologies while it waits, so execution finds them published.  Every
    window here is closed by flush() or stop(): no test depends on the
    deadline."""

    def test_topologies_are_published_inside_the_open_window(self, service):
        cells_a = _cells((20, 30), (0, 1))
        cells_b = _cells((30, 40), (1, 2)) + _cells((20,), (0,), program="color-reduction")
        # 8 distinct cells (the tenants share (30, 1)) on 7 topologies
        # (color-reduction runs on greedy's gnp-20 seed-0 graph).
        ticket_a = service.submit("tenant-a", cells_a)
        ticket_b = service.submit("tenant-b", cells_b)
        assert _wait_for(lambda: _topology_stats(service)["misses"] == 7)
        service.flush()
        assert comparable_records(ticket_a.collect(timeout=COLLECT_TIMEOUT)) == (
            comparable_records(_solo_records(cells_a))
        )
        assert comparable_records(ticket_b.collect(timeout=COLLECT_TIMEOUT)) == (
            comparable_records(_solo_records(cells_b))
        )
        # Execution generated nothing: all 8 runs found their topology.
        assert _topology_stats(service) == {"hits": 8, "misses": 7, "entries": 7}

    def test_concurrent_submits_and_stats_during_preparation(self, service):
        """More tenant threads than cores submit, and a poller reads stats,
        while the dispatcher prepares with the lock released; a lost update
        of the pending count or of the window would lose or repeat work."""
        tenants = {f"tenant-{i}": _cells((20, 30), (i, i + 1, i + 2)) for i in range(6)}
        distinct = {c.topology_key for cells in tenants.values() for c in cells}
        tickets = {}
        barrier = threading.Barrier(len(tenants) + 1)
        polling = threading.Event()

        def tenant(name, cells):
            barrier.wait()
            tickets[name] = [service.submit(name, cells[:3]), service.submit(name, cells[3:])]

        def poll():
            while not polling.is_set():
                service.stats()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        poller = threading.Thread(target=poll)
        threads = [threading.Thread(target=tenant, args=item) for item in tenants.items()]
        try:
            poller.start()
            for t in threads:
                t.start()
            barrier.wait()
            for t in threads:
                t.join(timeout=COLLECT_TIMEOUT)
                assert not t.is_alive()
            assert _wait_for(lambda: _topology_stats(service)["misses"] == len(distinct))
        finally:
            polling.set()
            poller.join(timeout=COLLECT_TIMEOUT)
            sys.setswitchinterval(interval)
        assert not poller.is_alive()
        service.flush()
        for name, cells in tenants.items():
            first, second = tickets[name]
            served = first.collect(timeout=COLLECT_TIMEOUT) + second.collect(
                timeout=COLLECT_TIMEOUT
            )
            assert comparable_records(served) == comparable_records(_solo_records(cells))
        stats = service.stats()
        assert stats["pending"] == 0 and stats["windows"] == 1
        assert stats["records_served"] == sum(len(c) for c in tenants.values())
        # One execution per distinct cell (one program: one per topology).
        assert stats["topology_cache"]["hits"] == len(distinct)
        assert stats["topology_cache"]["misses"] == len(distinct)

    def test_result_cache_cells_are_not_prepared(self):
        # One topology fits the cache, so gnp-20 seed 0's is evicted by
        # seed 1's in the first window: preparing it again would regenerate it.
        svc = SimulationService(
            ServiceConfig(window_s=30.0, topology_cache_entries=1)
        ).start()
        try:
            cached = _cells((20,), (0,))
            first = svc.submit("t", cached + _cells((20,), (1,)))
            svc.flush()
            first.collect(timeout=COLLECT_TIMEOUT)
            misses = _topology_stats(svc)["misses"]
            fresh = _cells((30,), (0,))
            ticket = svc.submit("t", cached + fresh)
            assert _wait_for(lambda: _topology_stats(svc)["misses"] == misses + 1)
            svc.flush()
            served = sorted(ticket, key=lambda s: s.index)
            assert [s.meta["cache_hit"] for s in served] == [True, False]
            assert comparable_records([s.record for s in served]) == comparable_records(
                _solo_records(cached + fresh)
            )
            # Only the fresh cell's topology was generated, and it was used.
            assert _topology_stats(svc) == {"hits": 1, "misses": misses + 1, "entries": 1}
        finally:
            svc.stop(drain=False)

    def test_preparation_stops_at_the_topology_capacity(self):
        svc = SimulationService(
            ServiceConfig(window_s=30.0, topology_cache_entries=2)
        ).start()
        try:
            cells = _cells((20,), range(4))
            ticket = svc.submit("t", cells)
            assert _wait_for(lambda: _topology_stats(svc)["misses"] >= 2)
            time.sleep(0.2)  # room for a third preparation, were there one
            assert _topology_stats(svc)["misses"] == 2
            svc.flush()
            assert comparable_records(ticket.collect(timeout=COLLECT_TIMEOUT)) == (
                comparable_records(_solo_records(cells))
            )
            # The two prepared topologies ran before the others evicted
            # them: each of the four was generated exactly once.
            assert _topology_stats(svc) == {"hits": 2, "misses": 4, "entries": 2}
        finally:
            svc.stop(drain=False)

    def test_preparation_follows_the_execution_plan(self):
        """Admitted greedy, color-reduction, greedy, color-reduction on four
        topologies run as the greedy group, then the color-reduction one.
        With room for two topologies the window prepares the greedy
        group's, so no preparation is evicted before it is used: four
        generations for four topologies (five when it prepared in
        admission order, seeds 0 and 1)."""
        svc = SimulationService(
            ServiceConfig(window_s=30.0, topology_cache_entries=2)
        ).start()
        try:
            cells = [
                GridCell("gnp", 20, program, "vector", seed=seed)
                for seed, program in enumerate(
                    ("greedy", "color-reduction", "greedy", "color-reduction")
                )
            ]
            ticket = svc.submit("t", cells)
            assert _wait_for(lambda: _topology_stats(svc)["misses"] >= 2)
            time.sleep(0.2)  # room for a third preparation, were there one
            svc.flush()
            assert comparable_records(ticket.collect(timeout=COLLECT_TIMEOUT)) == (
                comparable_records(_solo_records(cells))
            )
            assert _topology_stats(svc) == {"hits": 2, "misses": 4, "entries": 2}
        finally:
            svc.stop(drain=False)

    def test_flush_closes_the_window_during_a_preparation(self, monkeypatch, service):
        cells = _cells((400,), (0,)) + _cells((20,), (0,))
        held = _HeldBuild(monkeypatch, cells[0])
        ticket = service.submit("t", cells)
        try:
            assert held.started.wait(timeout=PREPARE_TIMEOUT)
            # The service lock is free while the dispatcher generates.
            stats = _returns_within(service.stats)
            assert stats["windows"] == 0
            assert stats["topology_cache"]["misses"] == 1
            _returns_within(service.flush)
        finally:
            held.release.set()
        assert comparable_records(ticket.collect(timeout=COLLECT_TIMEOUT)) == (
            comparable_records(_solo_records(cells))
        )
        stats = service.stats()
        assert stats["window_close_reasons"] == {"flush": 1}
        # The held topology finished its preparation; the other one, never
        # prepared, was generated at execution.
        assert stats["topology_cache"] == {"hits": 1, "misses": 2, "entries": 2}

    @pytest.mark.usefixtures("no_shared_memory_leak")
    def test_drain_closes_the_window_during_a_preparation(self, monkeypatch):
        svc = SimulationService(SLOW_WINDOW).start()
        cells = _cells((400,), (0,)) + _cells((20,), (0,))
        held = _HeldBuild(monkeypatch, cells[0])
        ticket = svc.submit("t", cells)
        stopper = threading.Thread(target=svc.stop)  # drain=True
        try:
            assert held.started.wait(timeout=PREPARE_TIMEOUT)
            stopper.start()
            stopper.join(timeout=0.1)
            assert stopper.is_alive()  # drain waits for the preparation
        finally:
            held.release.set()
        stopper.join(timeout=COLLECT_TIMEOUT)
        assert not stopper.is_alive()
        assert comparable_records(ticket.collect(timeout=COLLECT_TIMEOUT)) == (
            comparable_records(_solo_records(cells))
        )
        assert svc.stats()["window_close_reasons"] == {"drain": 1}


class TestFairnessAndBackpressure:
    def test_overflowing_submission_rejected_whole(self):
        svc = SimulationService(
            ServiceConfig(window_s=30.0, max_pending_per_client=3)
        ).start()
        try:
            svc.submit("greedy-tenant", _cells((20,), (0, 1)))
            # 4 cells can never fit a 3-entry queue, whatever the window
            # already admitted: the submission is rejected whole.
            with pytest.raises(ClientQueueFullError) as excinfo:
                svc.submit("greedy-tenant", _cells((20,), (2, 3, 4, 5)))
            assert excinfo.value.client == "greedy-tenant"
            assert excinfo.value.limit == 3
            # Other tenants are unaffected by one tenant's full queue.
            svc.submit("other-tenant", _cells((20,), (9,)))
        finally:
            svc.stop(drain=False)

    def test_per_window_inflight_cap_shares_the_window(self):
        # Deadline-closed windows here: flush() only closes one window,
        # and the capped heavy tenant needs three to drain.
        svc = SimulationService(
            ServiceConfig(window_s=0.25, max_inflight_per_client=2)
        ).start()
        try:
            heavy = svc.submit("heavy", _cells((20,), range(6)))
            light = svc.submit("light", _cells((30,), (0,)))
            # The light tenant's lone cell shares the first window with
            # exactly 2 of the heavy tenant's 6; the tail waits its turn.
            (light_served,) = list(light)
            assert light_served.meta["window"] == 1
            heavy_windows = [s.meta["window"] for s in heavy]
            assert min(heavy_windows) == 1
            assert max(heavy_windows) > 1
            assert sum(1 for w in heavy_windows if w == 1) == 2
        finally:
            svc.stop(drain=False)

    def test_window_width_cap_closes_the_window(self):
        svc = SimulationService(
            ServiceConfig(window_s=30.0, max_window_width=3)
        ).start()
        try:
            ticket = svc.submit("t", _cells((20,), range(3)))
            records = ticket.collect(timeout=COLLECT_TIMEOUT)  # no flush needed
            assert len(records) == 3
            assert svc.stats()["window_close_reasons"].get("width", 0) >= 1
        finally:
            svc.stop(drain=False)


@pytest.mark.usefixtures("no_shared_memory_leak")
class TestDisconnect:
    def test_mid_window_cancel_skips_delivery_but_serves_siblings(self, service):
        cells_a = _cells((20, 30), (0,))
        cells_b = _cells((20, 30), (0,))
        ticket_a = service.submit("a", cells_a)
        ticket_b = service.submit("b", cells_b)
        ticket_a.cancel()  # disconnect after admission, before execution
        service.flush()
        served_b = ticket_b.collect(timeout=COLLECT_TIMEOUT)
        assert comparable_records(served_b) == comparable_records(
            _solo_records(cells_b)
        )
        # The cancelled ticket's stream ended without its records.
        assert ticket_a.next_event(timeout=5.0) is None

    def test_cancel_before_window_drops_queued_entries(self, service):
        ticket = service.submit("t", _cells((20,), range(3)))
        ticket.cancel()
        other = service.submit("u", _cells((30,), (0,)))
        service.flush()
        other.collect(timeout=COLLECT_TIMEOUT)
        # Whether the cancelled entries were dropped at admission or their
        # window was already open, nothing was delivered for them.
        assert ticket.next_event(timeout=5.0) is None
        assert service.stats()["records_served"] == 1


class TestServerProtocol:
    """End-to-end over TCP: asyncio server, two real client connections."""

    @pytest.fixture()
    def server(self):
        with _running_server(ServiceConfig(window_s=0.25)) as srv:
            yield srv

    def test_two_concurrent_tenants_coalesce_with_solo_parity(self, server):
        cells_a = _cells((20, 30), (0, 1))
        cells_b = _cells((30, 40), (1, 2))
        results = {}
        barrier = threading.Barrier(2)

        def tenant(name, cells):
            with ServiceClient(port=server.port, client=name) as client:
                barrier.wait()
                results[name] = client.run(cells)

        threads = [
            threading.Thread(target=tenant, args=("a", cells_a)),
            threading.Thread(target=tenant, args=("b", cells_b)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert comparable_records(results["a"]) == comparable_records(
            _solo_records(cells_a)
        )
        assert comparable_records(results["b"]) == comparable_records(
            _solo_records(cells_b)
        )
        with ServiceClient(port=server.port, client="probe") as probe:
            stats = probe.stats()
        assert stats["coalesced_windows"] >= 1
        assert stats["records_served"] == 8

    def test_repeat_request_serves_from_cache(self, server):
        cells = _cells((20,), (0, 1))
        with ServiceClient(port=server.port, client="t") as client:
            client.run(cells)
            metas = [meta for _i, _r, meta in client.stream(cells)]
            stats = client.stats()
        assert all(meta["cache_hit"] for meta in metas)
        assert stats["result_cache"]["hits"] >= 2

    def test_structured_error_frame_for_bad_program(self, server):
        with ServiceClient(port=server.port, client="t") as client:
            with pytest.raises(RemoteServiceError) as excinfo:
                client.submit([GridCell("gnp", 20, "nope", "vector", 0)])
        assert excinfo.value.code == "UnknownProgramError"

    def test_backpressure_surfaces_as_error_frame(self):
        config = ServiceConfig(window_s=30.0, max_pending_per_client=1)
        with _running_server(config) as srv:
            with ServiceClient(port=srv.port, client="t") as client:
                client.submit(_cells((20,), (0,)))
                with pytest.raises(RemoteServiceError) as excinfo:
                    client.submit(_cells((20,), (1, 2)))
        assert excinfo.value.code == "ClientQueueFullError"

    @pytest.mark.parametrize("cells", [[1], [None], ["abc"]])
    def test_non_object_cell_gets_malformed_frame_error(self, server, cells):
        submit = encode_frame({"type": "submit", "id": "bad", "cells": cells})
        probe = encode_frame({"type": "stats", "id": "probe"})
        error, stats = _raw_exchange(server.port, submit + probe)
        assert error["type"] == "error" and error["id"] == "bad"
        assert error["error"]["type"] == "MalformedFrameError"
        assert stats["id"] == "probe"
        assert _raw_exchange(server.port, probe)[0]["type"] == "stats"

    def test_overlong_frame_gets_malformed_frame_error(self, monkeypatch):
        """A line over the frame limit is answered with an error frame; the
        connection, and the server, keep serving."""
        import repro.service.server as server_module

        monkeypatch.setattr(server_module, "_MAX_FRAME_BYTES", 1024)
        overlong = encode_frame({"type": "stats", "id": "big", "pad": "x" * 4096})
        probe = encode_frame({"type": "stats", "id": "probe"})
        with _running_server(ServiceConfig(window_s=0.25)) as srv:
            *errors, stats = _raw_exchange(srv.port, overlong + probe)
            assert stats["id"] == "probe"
            assert errors
            assert all(f["error"]["type"] == "MalformedFrameError" for f in errors)
            assert _raw_exchange(srv.port, probe)[0]["type"] == "stats"

    def test_truncated_frame_gets_malformed_frame_error(self, server):
        """A line cut mid-JSON is answered with an error frame, and the same
        connection keeps serving."""
        probe = encode_frame({"type": "stats", "id": "probe"})
        error, stats = _raw_exchange(server.port, b'{"type": "sub\n' + probe)
        assert error["type"] == "error"
        assert error["error"]["type"] == "MalformedFrameError"
        assert stats["id"] == "probe"

    def test_partial_line_then_eof_gets_malformed_frame_error(self, server):
        """A partial line ended by EOF is still decoded and answered; the
        server keeps serving fresh connections."""
        (error,) = _raw_exchange(
            server.port,
            b'{"type": "stats", "id": "cut',
            until=lambda frame: frame.get("type") == "error",
            eof=True,
        )
        assert error["error"]["type"] == "MalformedFrameError"
        probe = encode_frame({"type": "stats", "id": "probe"})
        assert _raw_exchange(server.port, probe)[0]["type"] == "stats"

    @pytest.mark.usefixtures("no_shared_memory_leak")
    def test_client_disconnect_mid_window_leaves_siblings_served(self, server):
        """A tenant dropping its socket after submitting must not disturb
        the window its cells were admitted to."""
        cells = _cells((20, 30), (0,))
        raw = socket.create_connection(("127.0.0.1", server.port))
        raw.sendall(
            encode_frame(
                {
                    "type": "submit",
                    "id": "doomed",
                    "cells": [cell_to_wire(c) for c in cells],
                }
            )
        )
        time.sleep(0.05)  # let the submit frame land in the window
        raw.close()  # disconnect before (or during) execution
        survivor_cells = _cells((20, 30), (0,))
        with ServiceClient(port=server.port, client="survivor") as client:
            records = client.run(survivor_cells)
        assert comparable_records(records) == comparable_records(
            _solo_records(survivor_cells)
        )

    def test_flush_frame_closes_the_window(self):
        with _running_server(SLOW_WINDOW) as srv:
            # Window deadline is 30 s: without the flush frame this would
            # time out, so completing quickly proves flush worked.
            with ServiceClient(port=srv.port, client="t") as client:
                request = client.submit(_cells((20,), (0,)))
                client.flush()
                seen_done = False
                for frame in client.events():
                    if frame.get("id") == request and frame.get("type") == "done":
                        seen_done = True
                        break
                assert seen_done


class TestLemma310Coalescing:
    """Service-path coverage for the last kernel to join the stackable
    set: lemma310 cells in a multi-tenant window must coalesce into a
    stacked plane — not fall back per cell — and the served records must
    be solo-parity."""

    def test_multi_tenant_lemma310_window_matches_solo(self, service):
        cells_a = _cells((20, 30), (0, 1), program="lemma310")
        cells_b = _cells((30, 24), (1, 2), program="lemma310")
        ticket_a = service.submit("tenant-a", cells_a)
        ticket_b = service.submit("tenant-b", cells_b)
        service.flush()
        widths = []
        records_a: dict = {}
        for served in ticket_a:
            records_a[served.index] = served.record
            widths.append(served.meta["stack_width"])
        served_a = [records_a[i] for i in range(len(cells_a))]
        served_b = ticket_b.collect(timeout=COLLECT_TIMEOUT)
        assert comparable_records(served_a) == comparable_records(
            _solo_records(cells_a)
        )
        assert comparable_records(served_b) == comparable_records(
            _solo_records(cells_b)
        )
        # The window really stacked the cells: multi-instance planes, and
        # the cross-tenant coalescing counter moved.
        assert max(widths) >= 2
        assert service.stats()["coalesced_windows"] >= 1

    def test_lemma310_group_stacks_without_fallback(self):
        """Runner-level witness that the service's batch arm does not take
        the silent per-cell fallback for lemma310: stacked-path records
        carry the ``batch`` annotation, fallback records never do."""
        from repro.experiments.runner import _iter_batched_group_records

        cells = _cells((20, 30, 24), (0, 1), program="lemma310")
        records = [record for _i, record in _iter_batched_group_records(cells)]
        assert len(records) == len(cells)
        assert all(rec.ok for rec in records)
        assert all(
            rec.batch is not None and rec.batch["k"] == len(cells)
            for rec in records
        ), "a lemma310 group fell back to per-cell execution"

    def test_mixed_program_window_keeps_groups_separate(self, service):
        """lemma310 and greedy cells in one window coalesce per program
        group and every record still matches its solo run."""
        cells = _cells((20,), (0, 1), program="lemma310") + _cells(
            (20,), (0, 1), program="greedy"
        )
        ticket = service.submit("t", cells)
        service.flush()
        served = ticket.collect(timeout=COLLECT_TIMEOUT)
        assert comparable_records(served) == comparable_records(
            _solo_records(cells)
        )
