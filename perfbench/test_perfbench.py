"""Tests of the benchmark itself: span and reference-time arithmetic, smoke mode.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent


def _busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_self_time_excludes_children():
    tr = tracing.Tracer()
    inner = tracing.timed(tr, "inner", lambda: _busy(0.02))

    def outer_body():
        _busy(0.01)
        inner()

    outer = tracing.timed(tr, "outer", outer_body)
    with tr.iteration():
        outer()
    assert tr.self_s["inner"] == pytest.approx(0.02, abs=0.01)
    assert tr.self_s["outer"] == pytest.approx(0.01, abs=0.01)
    assert tr.calls["outer"] == tr.calls["inner"] == 1
    assert tr.self_s[tracing.UNACCOUNTED] >= 0.0


def test_disabled_wrapper_records_nothing():
    tr = tracing.Tracer()
    wrapped = tracing.timed(tr, "layer", lambda: 7)
    assert wrapped() == 7
    assert not tr.self_s and not tr.calls


def test_generator_wrapper_times_only_its_own_next():
    tr = tracing.Tracer()

    def produce():
        for i in range(3):
            _busy(0.01)
            yield i

    wrapped = tracing.timed_iter(tr, "gen", produce)
    with tr.iteration():
        for _ in wrapped():
            _busy(0.02)  # the consumer's time is not the generator's
    assert tr.self_s["gen"] == pytest.approx(0.03, abs=0.015)
    assert tr.self_s[tracing.UNACCOUNTED] == pytest.approx(0.06, abs=0.02)


def test_other_thread_spans_are_subtracted_from_the_root_once():
    tr = tracing.Tracer()
    work = tracing.timed(tr, "worker", lambda: _busy(0.03))
    start = time.perf_counter()
    with tr.iteration():
        thread = threading.Thread(target=work)
        thread.start()
        thread.join(timeout=10)
    wall = time.perf_counter() - start
    assert not thread.is_alive()
    assert tr.self_s["worker"] == pytest.approx(0.03, abs=0.015)
    assert tr.accounted_s() == pytest.approx(wall, rel=0.05)


def test_scaled_iteration_converts_wall_and_latencies_but_keeps_raw():
    class Doubling:
        def factor(self):
            return 2.0

    it = workloads.scaled(["out"], [0.5, 1.0], 1.5, Doubling())
    assert (it.wall_s, it.raw_s, it.latencies) == (3.0, 1.5, [1.0, 2.0])
    plain = workloads.scaled(["out"], [0.5], 1.5, None)
    assert (plain.wall_s, plain.latencies) == (1.5, [0.5])


def test_streamed_iteration_converts_every_segment():
    class Halving:
        probes = 0

        def factor(self):
            self.probes += 1
            return 0.5

    def items():
        for i in range(4):
            _busy(workloads.SEGMENT_S * 0.6)
            yield i

    clock = Halving()
    it = workloads.streamed(items(), clock)
    assert it.outputs == [0, 1, 2, 3]
    assert clock.probes == 3  # after items 1 and 3, and at the end
    assert it.wall_s == pytest.approx(0.5 * it.raw_s)
    assert it.latencies == sorted(it.latencies)
    assert it.latencies[-1] <= it.wall_s


def test_install_then_uninstall_restores_every_layer():
    import repro.congest.engine as engine
    import repro.experiments.runner as runner
    from repro.api.registry import program_spec
    from repro.congest.network import Network

    before = (
        runner.suite_instance,
        engine.iter_stacked,
        Network.__dict__["congest"],
        program_spec("lemma310"),
    )
    uninstall = tracing.install(tracing.Tracer())
    assert runner.suite_instance is not before[0]
    assert program_spec("lemma310") is not before[3]
    uninstall()
    after = (
        runner.suite_instance,
        engine.iter_stacked,
        Network.__dict__["congest"],
        program_spec("lemma310"),
    )
    assert after == before


def test_smoke_mode_emits_every_metric_and_passes_every_check():
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "ALL CHECKS PASS" in done.stdout
