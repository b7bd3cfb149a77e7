"""Engine selection errors: CLI flags and runner grids fail *structured*.

A typo in ``--engine`` must surface as a :class:`repro.errors` exception
(or a clean CLI exit) naming the bad value and the registered engines —
never a bare ``KeyError`` from a registry dict.
"""

from __future__ import annotations

import pytest

from repro.api import Experiment
from repro.congest.engine import (
    available_engines,
    resolve_engine,
    set_default_engine,
)
from repro.errors import (
    CongestError,
    ReproError,
    UnknownEngineError,
    UnknownProgramError,
)
from repro.experiments.runner import GridCell, _run_cell_record


class TestResolutionErrors:
    def test_resolve_unknown_names_available(self):
        with pytest.raises(UnknownEngineError) as exc:
            resolve_engine("warp-drive")
        assert exc.value.name == "warp-drive"
        assert set(exc.value.available) == set(available_engines())
        assert "vector" in str(exc.value)

    def test_set_default_unknown_is_structured(self):
        with pytest.raises(UnknownEngineError):
            set_default_engine("warp-drive")

    def test_unknown_engine_is_still_a_congest_error(self):
        # Backwards compatibility: callers catching CongestError keep working.
        with pytest.raises(CongestError):
            resolve_engine("warp-drive")
        assert issubclass(UnknownEngineError, CongestError)
        assert issubclass(UnknownEngineError, ReproError)
        assert issubclass(UnknownProgramError, ReproError)

    def test_never_a_key_error(self):
        with pytest.raises(Exception) as exc:
            resolve_engine("warp-drive")
        assert not isinstance(exc.value, KeyError)


class TestGridSelectionErrors:
    def test_expand_grid_rejects_unknown_engine(self):
        with pytest.raises(UnknownEngineError) as exc:
            Experiment("bfs").on("tree").sizes(16).engines("fast", "warp").cells()
        assert exc.value.name == "warp"

    def test_expand_grid_rejects_unknown_program(self):
        with pytest.raises(UnknownProgramError) as exc:
            Experiment("bfs", "dijkstra").on("tree").sizes(16).cells()
        assert exc.value.name == "dijkstra"

    def test_run_cell_records_structured_engine_error(self):
        cell = GridCell(family="tree", n=12, program="bfs", engine="warp")
        rec = _run_cell_record(cell).to_dict()
        assert rec["ok"] is False
        assert rec["error"]["type"] == "UnknownEngineError"
        assert "warp" in rec["error"]["message"]
        assert "KeyError" not in rec["error"]["type"]


class TestCliSelectionErrors:
    def test_grid_command_unknown_engine_exits_cleanly(self, capsys):
        from repro.__main__ import main

        code = main(
            ["grid", "--families", "tree", "--sizes", "12", "--engines", "warp"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "warp" in err
        assert "available" in err

    def test_engine_flag_rejects_unknown_choice(self, capsys):
        from repro.__main__ import main

        # argparse enforces the registered-engine choices before anything runs.
        with pytest.raises(SystemExit) as exc:
            main(["mds", "--engine", "warp"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_engine_flag_lists_vector(self):
        from repro.__main__ import build_parser

        parser = build_parser()
        args = parser.parse_args(["bench", "E10", "--engine", "vector"])
        assert args.engine == "vector"
