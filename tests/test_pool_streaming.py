"""Per-record streaming across the pool boundary (``jobs > 1``).

The contract under test: a stacked batch group executed by a pool worker
pushes **each** record through the worker's result channel the moment
its instance's termination mask flips — never buffered until group end —
and a worker dying mid-unit costs nothing but wall-clock: the parent
re-dispatches exactly the not-yet-yielded cells in-process, so the
record set (and every metrics block) is identical to the sequential
run's.

The decisive no-buffering probe is the deterministic crash hook
(``REPRO_POOLSTREAM_KILL``): hard-kill a worker right after it streamed
one record of a group.  If records were buffered worker-side until group
end, the parent would have received *nothing* before the crash and every
cell of the unit would come back as a fallback record; with true
per-record streaming, exactly the pre-crash records survive and only the
remainder is re-dispatched.  Timing-free, so it cannot flake.
"""

import time

import pytest

from repro.experiments.runner import (
    GridCell,
    _batch_plan,
    _plan_units,
    iter_grid_records,
    run_grid_records,
)


def _sweep_cells(sizes=(20, 30), seeds=(0, 1, 2), family="gnp"):
    return [
        GridCell(family, n, "greedy", "vector", seed=s) for n in sizes for s in seeds
    ]


def _metrics_by_key(records):
    assert all(rec.ok for rec in records), [
        rec.error for rec in records if not rec.ok
    ]
    return {rec.key: rec.metrics for rec in records}


class TestPoolParity:
    def test_pool_batch_matches_sequential(self):
        cells = _sweep_cells()
        seq = _metrics_by_key(run_grid_records(cells, jobs=1, strategy="batch"))
        pool = _metrics_by_key(
            run_grid_records(cells, jobs=2, strategy="batch", batch_size=3)
        )
        assert pool == seq

    def test_default_records_carry_no_plan_block(self):
        # Only a lost worker's re-dispatched records carry a ``plan`` block:
        # jobs/strategy parity comparisons rely on the plain shape.
        cells = _sweep_cells()
        for rec in run_grid_records(cells, jobs=2, strategy="batch", batch_size=3):
            assert rec.plan is None
            assert "plan" not in rec.to_dict()


class TestPoolInGroupStreaming:
    @pytest.mark.usefixtures("no_shared_memory_leak")
    @pytest.mark.parametrize("sent", [1, 2, 3, 4])
    def test_records_stream_individually_across_pool(self, monkeypatch, sent):
        """Kill a worker after ``sent`` streamed records of its width-4
        unit (after the last one, ``unit_done`` is still unsent): with
        per-record delivery the parent already holds those records, so
        exactly the other 4 - ``sent`` cells come back as crash-fallback
        records — group-at-a-time buffering would have lost all of them."""
        cells = _sweep_cells(sizes=(20,), seeds=(0, 1, 2, 3))
        plan = _plan_units(cells, "batch", 0)
        assert plan[0][0] == "batch" and len(plan[0][1]) == 4
        # A second unit so the pool path engages (len(plan) > 1).
        cells.append(GridCell("gnp", 20, "greedy", "fast", seed=0))

        seq = _metrics_by_key(run_grid_records(cells, jobs=1, strategy="batch"))
        monkeypatch.setenv("REPRO_POOLSTREAM_KILL", f"0:{sent}")
        pool = run_grid_records(cells, jobs=2, strategy="batch")
        assert _metrics_by_key(pool) == seq

        fallbacks = [
            rec for rec in pool if rec.plan and "fallback" in rec.plan
        ]
        streamed = [
            rec
            for rec in pool
            if rec.batch is not None and (rec.plan is None or "fallback" not in rec.plan)
        ]
        # ``sent`` records crossed the boundary before the crash ...
        assert len(streamed) == sent
        # ... and only the remaining ones were re-dispatched.
        assert len(fallbacks) == 4 - sent
        for rec in fallbacks:
            assert set(rec.plan) == {"fallback", "actual_wall_s"}
            assert rec.plan["fallback"]["type"] == "WorkerLostError"
            assert "dispatch unit 0" in rec.plan["fallback"]["message"]
            assert rec.plan["actual_wall_s"] >= 0

    def test_stream_latency_monotone_within_unit(self):
        """Records of one stacked unit carry non-decreasing stream
        latencies in arrival order — each was stamped at its own
        termination flip, not at group teardown."""
        cells = _sweep_cells(sizes=(20, 30, 40), seeds=(0, 1))
        plan = _batch_plan(cells, 3)
        assert [kind for kind, _indices in plan] == ["batch", "batch"]
        unit_of = {
            cells[i].key: unit for unit, (_kind, indices) in enumerate(plan) for i in indices
        }
        by_unit = {}
        for rec in iter_grid_records(cells, jobs=2, strategy="batch", batch_size=3):
            assert rec.ok and rec.batch is not None
            by_unit.setdefault(unit_of[rec.key], []).append(rec.batch["stream_latency_s"])
        assert sorted(by_unit) == [0, 1]
        for latencies in by_unit.values():
            assert latencies == sorted(latencies)


@pytest.mark.usefixtures("no_shared_memory_leak")
class TestWorkerLoss:
    def test_worker_kill_preserves_record_set(self, monkeypatch):
        cells = _sweep_cells(sizes=(20, 30), seeds=(0, 1, 2))
        seq = _metrics_by_key(run_grid_records(cells, jobs=1, strategy="batch"))
        monkeypatch.setenv("REPRO_POOLSTREAM_KILL", "0:1")
        pool = run_grid_records(cells, jobs=2, strategy="batch", batch_size=3)
        assert _metrics_by_key(pool) == seq

    def test_worker_kill_with_certify_keeps_quality_blocks(self, monkeypatch):
        """Certification happens in the parent as records stream by, so a
        re-dispatched record after ``WorkerLostError`` must carry the same
        quality block as an undisturbed run — exactly one certified record
        per cell, no duplicates, none uncertified."""
        cells = _sweep_cells(sizes=(20, 30), seeds=(0, 1, 2))
        seq = {
            rec.key: rec.quality
            for rec in run_grid_records(
                cells, jobs=1, strategy="batch", certify="auto"
            )
        }
        monkeypatch.setenv("REPRO_POOLSTREAM_KILL", "0:1")
        pool = run_grid_records(
            cells, jobs=2, strategy="batch", batch_size=3, certify="auto"
        )
        assert sorted(rec.key for rec in pool) == sorted(seq)
        fallbacks = [rec for rec in pool if rec.plan and "fallback" in rec.plan]
        assert fallbacks, "kill hook should have produced re-dispatched records"
        for rec in pool:
            quality = rec.quality
            assert quality is not None, rec.key
            assert quality["status"] != "failed", (rec.key, quality)
            assert quality["within_bound"], (rec.key, quality)
            # Everything but the wall-clock and the cache's warmth is
            # deterministic across runs.
            stable = {
                k: v
                for k, v in quality.items()
                if k not in ("solve_wall_s", "cache_hit")
            }
            expected = {
                k: v
                for k, v in seq[rec.key].items()
                if k not in ("solve_wall_s", "cache_hit")
            }
            assert stable == expected, rec.key

    def test_unclaimed_units_migrate_to_survivors(self, monkeypatch):
        """Units the dead worker never pulled stay in the queue and run on
        the surviving worker — every record still arrives."""
        cells = _sweep_cells(sizes=(20, 30, 40), seeds=(0, 1, 2))
        seq = _metrics_by_key(run_grid_records(cells, jobs=1, strategy="batch"))
        monkeypatch.setenv("REPRO_POOLSTREAM_KILL", "0:2")
        pool = run_grid_records(cells, jobs=2, strategy="batch", batch_size=3)
        assert _metrics_by_key(pool) == seq


class TestConsumerIndependence:
    def test_slow_consumer_gets_complete_set(self):
        """A consumer slower than the producers must not stall workers or
        drop records: the parent's drain loop buffers arrivals, workers
        never block on the consumer."""
        cells = _sweep_cells(sizes=(20, 30), seeds=(0, 1, 2))
        expected = {cell.key for cell in cells}
        seen = []
        for rec in iter_grid_records(
            cells, jobs=2, strategy="batch", batch_size=3
        ):
            time.sleep(0.02)  # slower than any single instance's sim time
            seen.append(rec)
        assert {rec.key for rec in seen} == expected
        assert all(rec.ok for rec in seen)

    @pytest.mark.usefixtures("no_shared_memory_leak")
    def test_abandoned_iterator_cleans_up(self):
        """Closing the streaming iterator mid-run terminates workers and
        unlinks shared memory (the finally path) without hanging."""
        cells = _sweep_cells(sizes=(20, 30), seeds=(0, 1, 2))
        it = iter_grid_records(cells, jobs=2, strategy="batch", batch_size=3)
        first = next(it)
        assert first.ok
        it.close()  # must not hang or leak


@pytest.mark.parametrize("batch_size", [2, 3])
def test_stream_and_run_record_sets_match(batch_size):
    """Both consumers see the same records with stacked units crossing the
    pool: at these widths the plan has several batch units, so the pool
    path (not the one-unit sequential shortcut) runs."""
    cells = _sweep_cells(sizes=(20, 30, 40), seeds=(0, 1))
    plan = _plan_units(cells, "batch", batch_size)
    assert sum(1 for kind, _indices in plan if kind == "batch") >= 2
    ran = _metrics_by_key(
        run_grid_records(cells, jobs=2, strategy="batch", batch_size=batch_size)
    )
    streamed = _metrics_by_key(
        list(iter_grid_records(cells, jobs=2, strategy="batch", batch_size=batch_size))
    )
    assert streamed == ran
