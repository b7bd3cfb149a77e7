"""Typed result objects for grid runs: :class:`RunRecord`, :class:`SweepResult`.

These replace the ad-hoc dicts the legacy runner returned.  The dict shape
remains the on-disk / cross-process interchange format (``BENCH_*.json``
artifacts, worker pickles predate this module), so every record converts
losslessly both ways: :meth:`RunRecord.to_dict` emits exactly the legacy
shape and :meth:`RunRecord.from_dict` parses it back.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Optional, Sequence


@dataclass
class RunRecord:
    """Outcome of one grid cell (success or structured failure).

    ``metrics`` is the per-program block (shared simulation totals plus the
    spec's summary values); ``batch`` annotates records produced by a
    stacked multi-instance run with the stack width and group wall-clock;
    ``plan`` is the lost-worker annotation ``{fallback, actual_wall_s}``,
    set only on a record re-dispatched after its pool worker died
    (``fallback`` describes the :class:`~repro.errors.WorkerLostError`)
    and ``None`` otherwise — before 2.0 it also carried the adaptive
    scheduler's decision meta, and such artifacts still parse.
    ``quality`` is the certification oracle's verdict (``oracle/method/
    status/opt/lp_bound/ratio_vs_opt/ratio_vs_lp/...``), attached only
    when a grid runs with ``certify`` set — records from uncertified runs
    are byte-identical to before the oracle existed.
    """

    cell: object  # a runner.GridCell (kept loose to avoid an import cycle)
    ok: bool
    wall_s: Optional[float] = None
    metrics: Optional[Dict[str, object]] = None
    error: Optional[Dict[str, str]] = None
    batch: Optional[Dict[str, object]] = None
    plan: Optional[Dict[str, object]] = None
    quality: Optional[Dict[str, object]] = None

    @property
    def key(self) -> str:
        """The cell's reproduction key, e.g. ``gnp-60/greedy/vector/s7``."""
        return self.cell.key  # type: ignore[attr-defined]

    def to_dict(self) -> Dict[str, object]:
        """The legacy dict shape (bit-for-bit what the old runner emitted)."""
        record: Dict[str, object] = {
            "cell": asdict(self.cell),  # type: ignore[call-overload]
            "key": self.key,
            "ok": self.ok,
        }
        if self.plan is not None:
            record["plan"] = dict(self.plan)
        if not self.ok:
            record["error"] = dict(self.error or {})
            return record
        record["wall_s"] = self.wall_s
        if self.batch is not None:
            record["batch"] = dict(self.batch)
        record["metrics"] = dict(self.metrics or {})
        if self.quality is not None:
            record["quality"] = dict(self.quality)
        return record

    @classmethod
    def from_dict(cls, record: Mapping[str, object]) -> "RunRecord":
        """Parse a legacy dict record (e.g. read back from a JSON artifact)."""
        from repro.experiments.runner import GridCell

        cell = GridCell(**record["cell"])  # type: ignore[arg-type]
        return cls(
            cell=cell,
            ok=bool(record.get("ok")),
            wall_s=record.get("wall_s"),  # type: ignore[arg-type]
            metrics=dict(record["metrics"]) if "metrics" in record else None,  # type: ignore[arg-type]
            error=dict(record["error"]) if "error" in record else None,  # type: ignore[arg-type]
            batch=dict(record["batch"]) if "batch" in record else None,  # type: ignore[arg-type]
            plan=dict(record["plan"]) if "plan" in record else None,  # type: ignore[arg-type]
            quality=dict(record["quality"]) if "quality" in record else None,  # type: ignore[arg-type]
        )


def as_record_dicts(
    results: Sequence[object],
) -> List[Dict[str, object]]:
    """Normalize a mixed record sequence to legacy dicts.

    Report and summary functions accept both :class:`RunRecord` objects
    (the builder surface) and plain dicts (legacy callers, JSON round
    trips); this is the single conversion point.
    """
    return [
        rec.to_dict() if isinstance(rec, RunRecord) else dict(rec)  # type: ignore[call-overload]
        for rec in results
    ]


@dataclass
class SweepResult:
    """An ordered grid run: one :class:`RunRecord` per cell, plus run meta.

    Iteration, indexing and ``len`` operate on the records in cell order
    (the deterministic order — never completion order, regardless of
    workers or strategy).
    """

    records: List[RunRecord]
    meta: Dict[str, object] = field(default_factory=dict)

    def __iter__(self) -> Iterator[RunRecord]:
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.records)

    def __getitem__(self, index):
        return self.records[index]

    @property
    def ok(self) -> bool:
        """True when every cell succeeded."""
        return all(rec.ok for rec in self.records)

    def failures(self) -> List[RunRecord]:
        return [rec for rec in self.records if not rec.ok]

    def to_dicts(self) -> List[Dict[str, object]]:
        """Legacy dict records (the ``run_grid`` return shape)."""
        return [rec.to_dict() for rec in self.records]

    def summary(self) -> Dict[str, object]:
        """Per-engine totals, speedups and failures (see the runner)."""
        from repro.experiments.runner import summarize_results

        return summarize_results(self.to_dicts())

    def payload(self, meta: Mapping[str, object] | None = None) -> Dict[str, object]:
        """The canonical JSON document for this run."""
        from repro.experiments.runner import results_payload

        merged = dict(self.meta)
        merged.update(meta or {})
        return results_payload(self.to_dicts(), meta=merged)

    def write(self, path, meta: Mapping[str, object] | None = None) -> Path:
        """Write the run to ``path`` as pretty-printed JSON."""
        import json

        path = Path(path)
        path.write_text(json.dumps(self.payload(meta), indent=2) + "\n")
        return path

    def report(self):
        """Render as the engine-comparison :class:`ExperimentReport`."""
        from repro.experiments.harness import engine_grid_report

        return engine_grid_report(self.to_dicts())
