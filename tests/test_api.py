"""The unified experiment API: registry, builder, records, streaming."""

from __future__ import annotations

import copy
import json

import pytest

from repro.api import (
    Experiment,
    ProgramSpec,
    RunRecord,
    SweepResult,
    available_programs,
    batchable_programs,
    program_spec,
    register_program,
    registered_specs,
)
from repro.congest.node import NodeProgram
from repro.errors import (
    UnknownEngineError,
    UnknownProgramError,
    UnknownStrategyError,
)
from repro.experiments.runner import (
    GridCell,
    _run_cell_record,
    iter_grid_records,
    run_grid,
    run_grid_records,
)


def _strip(records):
    """Drop the wall/batch fields that legitimately differ between runs."""
    stripped = copy.deepcopy(records)
    for rec in stripped:
        rec.pop("wall_s", None)
        rec.pop("batch", None)
    return stripped


class TestRegistry:
    def test_every_node_program_has_a_spec(self):
        """Registry completeness: each concrete NodeProgram is registered."""
        import repro.congest.programs  # noqa: F401 - triggers registration

        registered = {spec.program for spec in registered_specs()}
        program_classes = [
            cls
            for cls in NodeProgram.__subclasses__()
            if cls.__module__.startswith("repro.congest.programs")
        ]
        assert len(program_classes) == 6
        for cls in program_classes:
            assert cls in registered, f"{cls.__name__} has no ProgramSpec"

    def test_available_programs_covers_all_six(self):
        """The old hard-coded list silently omitted three programs."""
        assert available_programs() == [
            "bfs",
            "color-reduction",
            "greedy",
            "lemma310",
            "rounding-exec",
            "tree-sum",
        ]

    def test_composite_listed_only_on_request(self):
        assert "cds" not in available_programs()
        assert "cds" in available_programs(include_composite=True)
        assert program_spec("cds").composite is True

    def test_batchable_programs_derive_from_registry(self):
        assert batchable_programs() == [
            "color-reduction",
            "greedy",
            "lemma310",
            "rounding-exec",
        ]
        for name in batchable_programs():
            assert program_spec(name).batch_factory is not None

    def test_unknown_program_is_structured(self):
        with pytest.raises(UnknownProgramError) as exc:
            program_spec("quicksort")
        assert "cds" in str(exc.value)  # the error lists composites too

    def test_duplicate_registration_rejected(self):
        spec = program_spec("greedy")
        with pytest.raises(ValueError):
            register_program(spec)
        # replace=True is the explicit override
        register_program(spec, replace=True)

    def test_simulation_spec_requires_program_class(self):
        with pytest.raises(ValueError):
            register_program(
                ProgramSpec(name="broken", description="", drive=lambda n, e: None)
            )


class TestAllProgramsGridDrivable:
    """Acceptance: all 6 CONGEST programs + the CDS composite run via the grid."""

    def test_six_programs_on_every_engine(self):
        cells = (
            Experiment()
            .on("tree")
            .sizes(16)
            .engines("reference", "fast", "vector")
            .seed(3)
            .cells()
        )
        assert {c.program for c in cells} == set(available_programs())
        records = run_grid_records(cells)
        assert all(rec.ok for rec in records), [
            (rec.key, rec.error) for rec in records if not rec.ok
        ]
        # Engine parity on the full metrics block per (program, seed) item.
        by_program = {}
        for rec in records:
            by_program.setdefault(rec.cell.program, set()).add(
                json.dumps(rec.metrics, sort_keys=True)
            )
        for program, blocks in by_program.items():
            assert len(blocks) == 1, f"{program} metrics diverge across engines"

    def test_cds_composite_runs_through_grid(self):
        sweep = Experiment("cds").on("tree").sizes(20).run()
        assert sweep.ok
        metrics = sweep.records[0].metrics
        assert metrics["cds_size"] >= metrics["mds_size"] >= 1
        for key in ("rounds", "total_messages", "total_bits", "all_halted"):
            assert key in metrics  # standard block keys, summary-compatible

    def test_program_specific_summaries(self):
        sweep = Experiment("lemma310", "rounding-exec", "tree-sum").on(
            "gnp"
        ).sizes(20).seed(1).run()
        assert sweep.ok
        by_program = {rec.cell.program: rec.metrics for rec in sweep}
        assert by_program["lemma310"]["decided"] == 20
        assert 0 < by_program["lemma310"]["joined"] <= 20
        assert 0 < by_program["rounding-exec"]["joined"] <= 20
        assert by_program["tree-sum"]["tree_total"] == by_program["tree-sum"]["reached"]


class TestBuilder:
    def test_builder_matches_legacy_run_grid(self):
        """Parity: builder output record-for-record equal to the legacy path."""
        cells = [
            GridCell(family=f, n=16, program=p, engine=e, seed=3)
            for f in ("tree", "gnp")
            for p in ("bfs", "greedy")
            for e in ("reference", "fast")
        ]
        legacy = run_grid(cells, strategy="cell")
        sweep = (
            Experiment("bfs", "greedy")
            .on("tree", "gnp")
            .sizes(16)
            .engines("reference", "fast")
            .seed(3)
            .strategy("cell")
            .run()
        )
        assert sweep.cells() if False else True  # builder object stays reusable
        assert _strip(sweep.to_dicts()) == _strip(legacy)

    def test_builder_batch_matches_legacy_batch(self):
        cells = (
            Experiment("greedy")
            .on("gnp")
            .sizes(24)
            .engine("vector")
            .seeds(4)
            .cells()
        )
        legacy = run_grid(cells, strategy="batch")
        sweep = (
            Experiment("greedy")
            .on("gnp")
            .sizes(24)
            .engine("vector")
            .seeds(4)
            .strategy("batch")
            .run()
        )
        assert _strip(sweep.to_dicts()) == _strip(legacy)
        assert all(rec.batch for rec in sweep)

    def test_auto_strategy_negotiation(self):
        stackable = Experiment("greedy").engine("vector").seeds(4)
        assert stackable.resolved_strategy() == "batch"
        assert Experiment("bfs").engine("vector").seeds(4).resolved_strategy() == "cell"
        assert Experiment("greedy").engine("fast").seeds(4).resolved_strategy() == "cell"
        assert Experiment("greedy").engine("vector").seed(7).resolved_strategy() == "cell"
        # auto-batch produces the same records as forced per-cell execution
        auto = stackable.on("gnp").sizes(20).run()
        forced = (
            Experiment("greedy").on("gnp").sizes(20).engine("vector").seeds(4)
            .strategy("cell").run()
        )
        assert _strip(auto.to_dicts()) == _strip(forced.to_dicts())

    def test_auto_negotiates_batch_for_mixed_size_sweeps(self):
        """Ragged planes made size an instance axis: a mixed-size
        single-seed sweep batches just like a seed ensemble."""
        mixed = Experiment("greedy").engine("vector").sizes(16, 24).seed(7)
        assert mixed.resolved_strategy() == "batch"
        solo = Experiment("greedy").engine("vector").sizes(16).seed(7)
        assert solo.resolved_strategy() == "cell"
        auto = mixed.on("gnp").run()
        forced = (
            Experiment("greedy").on("gnp").sizes(16, 24).engine("vector")
            .seed(7).strategy("cell").run()
        )
        assert _strip(auto.to_dicts()) == _strip(forced.to_dicts())
        assert all(rec.batch for rec in auto)  # the ragged group stacked

    def test_engine_restriction_enforced_in_negotiation(self):
        """A spec's ``engines`` tuple is a hard gate at expansion time."""
        import dataclasses

        from repro.api.registry import _REGISTRY
        from repro.errors import EngineRestrictionError

        restricted = dataclasses.replace(
            program_spec("greedy"), name="greedy-fast-only", engines=("fast",)
        )
        register_program(restricted)
        try:
            with pytest.raises(EngineRestrictionError) as exc:
                Experiment("greedy-fast-only").engine("vector").cells()
            assert exc.value.program == "greedy-fast-only"
            assert exc.value.engine == "vector"
            assert exc.value.allowed == ["fast"]
            assert "fast" in str(exc.value)
            # The allowed engine still runs end to end.
            sweep = (
                Experiment("greedy-fast-only")
                .on("tree").sizes(12).engine("fast").run()
            )
            assert sweep.ok and sweep.records[0].metrics["ds_size"] >= 1
            # Defaulted all-programs grids drop the restricted pairs
            # instead of failing: one restricted spec must never make
            # the engine-comparison grids unbuildable.
            cells = (
                Experiment().on("tree").sizes(12)
                .engines("fast", "vector").cells()
            )
            pairs = {(c.program, c.engine) for c in cells}
            assert ("greedy-fast-only", "fast") in pairs
            assert ("greedy-fast-only", "vector") not in pairs
            assert ("greedy", "vector") in pairs  # unrestricted untouched
        finally:
            _REGISTRY.pop("greedy-fast-only", None)

    def test_unknown_axes_fail_fast(self):
        with pytest.raises(UnknownProgramError):
            Experiment("dijkstra").cells()
        with pytest.raises(UnknownEngineError):
            Experiment("bfs").engine("warp").cells()
        with pytest.raises(UnknownStrategyError):
            Experiment("bfs").strategy("warp")

    def test_seeds_int_expands_to_range(self):
        cells = Experiment("bfs").engine("fast").seeds(3).cells()
        assert [c.seed for c in cells] == [0, 1, 2]

    def test_builder_surface_does_not_warn(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            Experiment("bfs").on("tree").sizes(12).engine("fast").run()

    def test_sweep_result_surface(self, tmp_path):
        sweep = Experiment("bfs").on("tree").sizes(12).engine("fast").run()
        assert len(sweep) == 1 and sweep.ok and not sweep.failures()
        assert sweep[0] is sweep.records[0]
        assert sweep.meta["strategy"] == "cell"
        summary = sweep.summary()
        assert summary["per_engine"]["fast"]["ok"] == 1
        out = sweep.write(tmp_path / "sweep.json", meta={"extra": 1})
        payload = json.loads(out.read_text())
        assert payload["meta"]["extra"] == 1
        assert payload["cells"] == sweep.to_dicts()
        assert sweep.report().all_checks_pass


class TestStreaming:
    CELLS = [
        GridCell(family=f, n=16, program=p, engine="fast", seed=s)
        for f in ("tree", "gnp")
        for p in ("bfs", "greedy")
        for s in (0, 1)
    ]

    def test_streamed_records_sorted_equal_batch_records(self):
        """Order independence: streamed set == ordered run, any strategy."""
        order = {cell.key: i for i, cell in enumerate(self.CELLS)}
        for strategy in ("cell", "batch"):
            ordered = run_grid(self.CELLS, strategy=strategy)
            streamed = list(
                run_grid(self.CELLS, strategy=strategy, stream=True)
            )
            streamed.sort(key=lambda rec: order[rec["key"]])
            assert _strip(streamed) == _strip(ordered)

    def test_streamed_batch_groups_match_cell_records(self):
        cells = (
            Experiment("greedy", "color-reduction")
            .on("gnp")
            .sizes(20)
            .engine("vector")
            .seeds(3)
            .cells()
        )
        order = {cell.key: i for i, cell in enumerate(cells)}
        streamed = sorted(
            iter_grid_records(cells, strategy="batch"),
            key=lambda rec: order[rec.key],
        )
        ordered = run_grid_records(cells, strategy="cell")
        assert _strip([r.to_dict() for r in streamed]) == _strip(
            [r.to_dict() for r in ordered]
        )

    def test_stream_is_lazy_and_incremental(self):
        stream = run_grid(self.CELLS, stream=True)
        assert not isinstance(stream, list)
        first = next(stream)
        assert first["key"] == self.CELLS[0].key  # sequential = plan order
        rest = list(stream)
        assert len(rest) == len(self.CELLS) - 1

    def test_stream_with_workers_matches_sequential_set(self):
        order = {cell.key: i for i, cell in enumerate(self.CELLS)}
        parallel = sorted(
            iter_grid_records(self.CELLS, jobs=2),
            key=lambda rec: order[rec.key],
        )
        sequential = run_grid_records(self.CELLS)
        assert _strip([r.to_dict() for r in parallel]) == _strip(
            [r.to_dict() for r in sequential]
        )

    def test_experiment_stream_matches_run(self):
        experiment = (
            Experiment("bfs", "greedy").on("tree").sizes(16).engine("fast").seeds(2)
        )
        order = {cell.key: i for i, cell in enumerate(experiment.cells())}
        streamed = sorted(experiment.stream(), key=lambda rec: order[rec.key])
        assert _strip([r.to_dict() for r in streamed]) == _strip(
            experiment.run().to_dicts()
        )

    def test_collect_restores_cell_order_and_meta(self):
        experiment = (
            Experiment("greedy").on("gnp").sizes(20).engine("vector").seeds(3)
        )
        sweep = experiment.collect(experiment.stream())
        assert [rec.key for rec in sweep] == [c.key for c in experiment.cells()]
        assert sweep.meta["streamed"] is True
        assert sweep.meta["strategy"] == "batch"  # the *resolved* strategy
        assert _strip(sweep.to_dicts()) == _strip(experiment.run().to_dicts())

    def test_bad_strategy_raises_eagerly_even_when_streaming(self):
        with pytest.raises(UnknownStrategyError):
            run_grid(self.CELLS, strategy="warp", stream=True)
        with pytest.raises(UnknownStrategyError):
            iter_grid_records(self.CELLS, strategy="warp")

    def test_cli_stream_emits_record_lines(self, capsys):
        from repro.__main__ import main

        assert main(["grid", "--quick", "--stream"]) == 0
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if line.startswith("{")]
        records = [json.loads(line) for line in lines]
        # 2 families x 2 sizes (mixed: the ragged smoke) x 4 stackable
        # programs x 5 seeds
        assert len(records) == 80
        assert all(rec["ok"] for rec in records)
        assert "no_failures=PASS" in out and "engine_parity=PASS" in out

    def test_batch_groups_stream_per_instance(self):
        """In-group streaming: a ragged group's records arrive in instance
        completion order, not all at once in cell order.

        Color reduction runs exactly n rounds, so in a mixed-size group
        the 12-node instances *must* surface before any 40-node instance
        even though the 40-node cells come first in cell order.
        """
        cells = (
            Experiment("color-reduction")
            .on("gnp")
            .sizes(40, 12)
            .engine("vector")
            .seeds(3)
            .cells()
        )
        streamed = list(iter_grid_records(cells, strategy="batch"))
        sizes_in_arrival_order = [rec.cell.n for rec in streamed]
        assert sizes_in_arrival_order == [12, 12, 12, 40, 40, 40]
        assert all(rec.batch["k"] == 6 for rec in streamed)
        assert all("stream_latency_s" in rec.batch for rec in streamed)
        latencies = [rec.batch["stream_latency_s"] for rec in streamed]
        assert latencies == sorted(latencies)  # monotone completion times


class TestRecords:
    def test_run_record_round_trip(self):
        rec = run_grid_records(
            [GridCell(family="tree", n=12, program="bfs", engine="fast")]
        )[0]
        clone = RunRecord.from_dict(rec.to_dict())
        assert clone == rec
        failure = run_grid_records(
            [GridCell(family="nope", n=12, program="bfs", engine="fast")]
        )[0]
        assert not failure.ok and failure.error["type"] == "GraphError"
        assert RunRecord.from_dict(failure.to_dict()) == failure

    def test_to_dict_matches_legacy_shape(self):
        cell = GridCell(family="tree", n=12, program="bfs", engine="fast")
        [typed] = run_grid_records([cell])
        legacy = _run_cell_record(cell).to_dict()
        assert _strip([typed.to_dict()]) == _strip([legacy])

    def test_sweep_result_iterates_in_cell_order(self):
        sweep = SweepResult(
            records=run_grid_records(TestStreaming.CELLS), meta={}
        )
        assert [rec.key for rec in sweep] == [c.key for c in TestStreaming.CELLS]

    def test_quality_block_round_trips(self):
        sweep = (
            Experiment("greedy")
            .on("tree")
            .sizes(16)
            .engine("vector")
            .certify("lp")
            .run()
        )
        [rec] = sweep.records
        assert rec.quality is not None
        assert rec.quality["oracle"] == "lp"
        payload = rec.to_dict()
        assert "quality" in payload
        clone = RunRecord.from_dict(payload)
        assert clone == rec and clone.quality == rec.quality
        assert sweep.meta["certify"] == "lp"

    def test_plan_round_trips_through_run_record(self):
        """``plan`` is the lost-worker annotation: a fallback-only block."""
        cell = GridCell("gnp", 20, "greedy", "vector", seed=0)
        plan = {
            "fallback": {"type": "WorkerLostError", "message": "dispatch unit 1"},
            "actual_wall_s": 0.25,
        }
        record = RunRecord(cell=cell, ok=True, wall_s=0.25, metrics={"rounds": 3}, plan=plan)
        parsed = RunRecord.from_dict(record.to_dict())
        assert parsed.plan == plan
        assert parsed.metrics == record.metrics

    def test_failure_records_keep_plan(self):
        cell = GridCell("gnp", 20, "greedy", "vector", seed=0)
        record = RunRecord(
            cell=cell,
            ok=False,
            error={"type": "X", "message": "boom"},
            plan={"fallback": {"type": "WorkerLostError", "message": ""}},
        )
        as_dict = record.to_dict()
        assert as_dict["plan"]["fallback"]["type"] == "WorkerLostError"
        assert RunRecord.from_dict(as_dict).plan == record.plan

    def test_absent_plan_stays_absent(self):
        cell = GridCell("gnp", 20, "greedy", "vector", seed=0)
        record = RunRecord(cell=cell, ok=True, wall_s=0.1, metrics={})
        assert "plan" not in record.to_dict()
        assert RunRecord.from_dict(record.to_dict()).plan is None

    def test_uncertified_records_keep_legacy_shape(self):
        """Without ``certify`` nothing about a record or the sweep meta may
        change — the quality block is strictly opt-in."""
        experiment = Experiment("greedy").on("tree").sizes(16).engine("vector")
        sweep = experiment.run()
        [rec] = sweep.records
        assert rec.quality is None
        assert "quality" not in rec.to_dict()
        assert "certify" not in sweep.meta
        certified = json.dumps(
            experiment.certify("lp").run().records[0].to_dict(), sort_keys=True
        )
        assert json.dumps(rec.to_dict(), sort_keys=True) != certified
