"""The EXPERIMENTS.md generator script and remaining small helpers."""

import runpy
import sys
from pathlib import Path

import pytest

from repro.congest.cost import bits_for_id
from repro.spanner.baswana_sen import PhaseView


def test_run_experiments_script_fast(tmp_path, capsys):
    """The generator runs end to end in fast mode and reports all-pass."""
    script = Path(__file__).resolve().parent.parent / "scripts" / "run_experiments.py"
    out_file = tmp_path / "EXP.md"
    old_argv = sys.argv
    sys.argv = ["run_experiments.py", "--fast", "--out", str(out_file)]
    try:
        with pytest.raises(SystemExit) as exc:
            runpy.run_path(str(script), run_name="__main__")
        assert exc.value.code == 0
    finally:
        sys.argv = old_argv
    text = out_file.read_text()
    assert "# EXPERIMENTS" in text
    assert "## E1" in text and "## E12" in text
    assert "ALL PASS" in text
    assert "FAILED" not in text
    assert "## Summary" in text


def test_run_experiments_script_quick_bench(tmp_path, capsys):
    """``--quick`` emits the BENCH_engines.json artifact with parity PASS."""
    import json

    script = Path(__file__).resolve().parent.parent / "scripts" / "run_experiments.py"
    out_file = tmp_path / "BENCH_engines.json"
    old_argv = sys.argv
    sys.argv = [
        "run_experiments.py", "--quick", "--fast",
        "--bench-out", str(out_file),
    ]
    try:
        with pytest.raises(SystemExit) as exc:
            runpy.run_path(str(script), run_name="__main__")
        assert exc.value.code == 0
    finally:
        sys.argv = old_argv
    text = capsys.readouterr().out
    assert "engine_parity=PASS" in text
    payload = json.loads(out_file.read_text())
    assert payload["summary"]["failures"] == []
    assert payload["summary"]["speedup_vs_reference"].get("fast", 0) > 0
    assert payload["meta"]["cells"] == len(payload["cells"])


def test_check_artifact_drift(tmp_path, capsys):
    """Timings and quality blocks may move; a changed metric fails the gate."""
    import json

    root = Path(__file__).resolve().parent.parent
    drift_main = runpy.run_path(str(root / "scripts" / "check_artifact_drift.py"))["main"]

    def write(directory, rounds, wall_s, cache_hit):
        directory.mkdir()
        cell = {
            "key": "gnp-40/greedy/vector/s0", "ok": True, "wall_s": wall_s,
            "metrics": {"rounds": rounds}, "quality": {"cache_hit": cache_hit},
        }
        (directory / "BENCH_x.json").write_text(json.dumps({"cells": [cell]}))

    write(tmp_path / "committed", rounds=9, wall_s=0.5, cache_hit=False)
    write(tmp_path / "same", rounds=9, wall_s=0.7, cache_hit=True)
    write(tmp_path / "drifted", rounds=10, wall_s=0.5, cache_hit=False)
    committed = str(tmp_path / "committed")
    assert drift_main([committed, str(tmp_path / "same")]) == 0
    assert drift_main([committed, str(tmp_path / "drifted")]) == 1
    assert "gnp-40/greedy/vector/s0: metrics differ" in capsys.readouterr().out
    assert drift_main([str(root), str(root)]) == 0  # the committed artifacts parse


def test_bits_for_id():
    assert bits_for_id(2) == 1
    assert bits_for_id(1024) == 10
    assert bits_for_id(1) >= 1


def test_phase_view_dataclass():
    view = PhaseView(
        clusters={0: {1, 2}},
        adjacent_clusters={1: set(), 2: set()},
        cluster_of={1: 0, 2: 0},
    )
    assert view.clusters[0] == {1, 2}


def test_errors_hierarchy():
    """Every library error derives from ReproError and is catchable as one."""
    from repro import errors

    subclasses = [
        errors.GraphError,
        errors.CongestError,
        errors.MessageTooLargeError,
        errors.SimulationLimitError,
        errors.InfeasibleSolutionError,
        errors.DerandomizationError,
        errors.DecompositionError,
        errors.ColoringError,
        errors.RandomnessError,
        errors.LPError,
    ]
    for cls in subclasses:
        assert issubclass(cls, errors.ReproError)
    err = errors.MessageTooLargeError(1, 2, 100, 64)
    assert err.bits == 100 and err.budget == 64
    assert "100 bits" in str(err)


def test_package_version_and_api():
    import repro

    assert repro.__version__ == "2.0.0"
    for name in repro.__all__:
        assert hasattr(repro, name), f"__all__ exports missing {name}"
