"""CLI entry point (python -m repro) and result serialization."""

import json

import pytest

from repro.__main__ import build_parser, main
from repro.cds.pipeline import approx_cds
from repro.mds.deterministic import approx_mds_coloring


class TestCLI:
    def test_mds_json(self, capsys):
        rc = main(
            ["mds", "--family", "gnp", "-n", "40", "--seed", "1",
             "--algorithm", "coloring", "--json"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["algorithm"] == "coloring"
        assert payload["ratio_vs_lp"] <= payload["bound"]
        assert payload["size"] >= 1

    def test_mds_plain_verbose(self, capsys):
        rc = main(
            ["mds", "--family", "tree", "-n", "30", "--algorithm",
             "decomposition", "--verbose"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "ratio_vs_lp" in out
        assert "stage ledger" in out

    def test_mds_randomized(self, capsys):
        rc = main(["mds", "-n", "30", "--algorithm", "randomized", "--json"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["size"] >= 1

    @pytest.mark.parametrize(
        "algorithm", ["coloring", "decomposition", "local", "randomized"]
    )
    def test_mds_solves_its_lp_once(self, capsys, monkeypatch, algorithm):
        """The payload's LP optimum is the one Part I solved for."""
        import repro.fractional.lp as lp_module
        from repro.fractional.lp import lp_fractional_mds
        from repro.graphs.suite import suite_instance

        solve = lp_module.solve_covering_lp
        solves = []

        def counted(instance):
            solves.append(instance)
            return solve(instance)

        monkeypatch.setattr(lp_module, "solve_covering_lp", counted)
        rc = main(["mds", "-n", "120", "--seed", "3", "--algorithm", algorithm, "--json"])
        assert rc == 0
        assert len(solves) == 1
        payload = json.loads(capsys.readouterr().out)
        monkeypatch.undo()
        optimum = lp_fractional_mds(suite_instance("gnp", 120, seed=3).graph).optimum
        assert payload["lp_optimum"] == round(optimum, 4)
        assert payload["ratio_vs_lp"] == round(payload["size"] / optimum, 4)

    def test_lp_optimum_only_from_the_lp_provider(self, small_gnp):
        from repro.fractional.lp import lp_fractional_mds
        from repro.mds.pipeline import PipelineParams

        lp = approx_mds_coloring(small_gnp, eps=0.5)
        assert lp.lp_optimum == lp_fractional_mds(small_gnp).optimum
        water = approx_mds_coloring(
            small_gnp, params=PipelineParams(eps=0.5, part1_provider="distributed")
        )
        assert water.lp_optimum is None
        assert "lp_optimum" not in lp.to_dict()

    def test_cds_json(self, capsys):
        rc = main(["cds", "--family", "geometric", "-n", "50", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cds_size"] >= payload["mds_size"]

    def test_suite_listing(self, capsys):
        rc = main(["suite", "--sizes", "20"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "gnp-20" in out
        assert "geometric-20" in out

    def test_bench_known(self, capsys):
        rc = main(["bench", "E9"])
        assert rc == 0
        assert "E9" in capsys.readouterr().out

    def test_bench_unknown(self, capsys):
        rc = main(["bench", "E99"])
        assert rc == 2

    def test_mds_engine_flag(self, capsys):
        from repro.congest.engine import default_engine_name, set_default_engine

        original = default_engine_name()
        try:
            rc = main(
                ["mds", "-n", "30", "--engine", "reference", "--json"]
            )
            assert rc == 0
            assert json.loads(capsys.readouterr().out)["size"] >= 1
            assert default_engine_name() == "reference"
        finally:
            set_default_engine(original)

    def test_grid_command(self, capsys, tmp_path):
        out = tmp_path / "grid.json"
        rc = main(
            ["grid", "--families", "tree", "--sizes", "16", "--programs",
             "bfs", "--engines", "reference,fast", "--json-out", str(out)]
        )
        assert rc == 0
        text = capsys.readouterr().out
        assert "engine_parity=PASS" in text
        payload = json.loads(out.read_text())
        assert len(payload["cells"]) == 2
        assert payload["summary"]["failures"] == []

    def test_grid_command_unknown_family_fails_checks(self, capsys):
        rc = main(
            ["grid", "--families", "nope", "--sizes", "16",
             "--programs", "bfs", "--engines", "fast"]
        )
        assert rc == 1
        assert "no_failures=FAIL" in capsys.readouterr().out

    def test_grid_sizes_skip_empty_entries(self, tmp_path):
        out = tmp_path / "grid.json"
        rc = main(
            ["grid", "--families", "tree", "--sizes", "16,", "--programs",
             "bfs", "--engines", "fast", "--json-out", str(out)]
        )
        assert rc == 0
        cells = json.loads(out.read_text())["cells"]
        assert [rec["cell"]["n"] for rec in cells] == [16]

    def test_submit_sizes_skip_empty_entries(self, monkeypatch, capsys):
        import repro.service.client as client_module

        sent = []

        class FakeClient:
            def __init__(self, **_kwargs):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *_exc):
                return False

            def stream(self, cells, **_kwargs):
                sent.extend(cells)
                for index, cell in enumerate(cells):
                    yield index, {"key": cell.key, "ok": True}, {}

        monkeypatch.setattr(client_module, "ServiceClient", FakeClient)
        assert main(["submit", "--sizes", "60,", "--seeds", "0..1"]) == 0
        assert [(cell.n, cell.seed) for cell in sent] == [(60, 0), (60, 1)]
        assert len(capsys.readouterr().out.splitlines()) == 2

    @pytest.mark.parametrize("command", ["grid", "submit"])
    @pytest.mark.parametrize(
        "flag, value",
        [("--sizes", ","), ("--sizes", "60,x"), ("--seeds", "5..2"),
         ("--seeds", "0..x"), ("--seeds", ",")],
    )
    def test_malformed_axes_are_usage_errors(self, capsys, command, flag, value):
        """An unparsable or empty --sizes/--seeds exits 2 with an error
        line, before anything runs or connects (exit 1 means a record
        failed)."""
        argv = [command, flag, value, "--programs", "greedy", "--engines", "vector"]
        if command == "grid":
            argv += ["--stream", "--no-report"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {flag} ")
        assert captured.out == ""

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestSerialization:
    def test_mds_to_dict_round_trips_json(self, small_gnp):
        result = approx_mds_coloring(small_gnp, eps=0.5)
        payload = result.to_dict()
        text = json.dumps(payload)
        restored = json.loads(text)
        assert restored["size"] == result.size
        assert set(restored["dominating_set"]) == result.dominating_set
        assert restored["trace"][0]["stage"] == "part1-fractional"

    def test_cds_to_dict(self, small_geometric):
        result = approx_cds(small_geometric, eps=0.5)
        payload = result.to_dict()
        json.dumps(payload)
        assert payload["cds_size"] == result.size
        assert payload["overhead"] == pytest.approx(result.overhead)
        assert payload["route"] in ("tree", "spanner", "trivial")
