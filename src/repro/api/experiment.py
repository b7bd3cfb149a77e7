"""The :class:`Experiment` builder: declarative grid runs with streaming.

One fluent object describes a grid run and executes it::

    from repro.api import Experiment

    sweep = (
        Experiment("greedy")
        .on("gnp", "tree").sizes(60)
        .seeds(50)
        .engine("vector")
        .strategy("batch")
        .run()
    )
    sweep.summary()["per_engine"]["vector"]["ok"]  # typed records underneath

Every setter returns the builder, so chains read as the experiment design.
``run()`` executes the grid and returns a :class:`~repro.api.records.
SweepResult` in deterministic cell order; ``stream()`` yields
:class:`~repro.api.records.RunRecord` objects in *completion* order as
cells or batch groups finish — the streaming path behind
``python -m repro grid --stream``.

Strategy negotiation: ``strategy("auto")`` (the default) resolves to
``batch`` exactly when the selected axes contain a stackable
multi-instance sweep (a registry-batchable program on the vector engine
with more than one instance per group — seeds *and* sizes both count,
since mixed-size groups stack as one ragged plane) and to ``cell``
otherwise.  The two strategies are guaranteed to produce identical
records, so the negotiation only ever changes wall-clock.  Engine
negotiation also enforces each spec's ``engines`` restriction: asking a
restricted program to run on an excluded engine raises a structured
:class:`~repro.errors.EngineRestrictionError` at expansion time.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence

from repro.api.records import RunRecord, SweepResult
from repro.api.registry import available_programs, program_spec
from repro.errors import (
    EngineRestrictionError,
    UnknownEngineError,
    UnknownStrategyError,
)

#: Strategies the builder accepts (``auto`` resolves to one of the others).
BUILDER_STRATEGIES = ("auto", "cell", "batch")


class Experiment:
    """Fluent builder over the (family x size x program x engine x seed) grid.

    Construct with the program names to run (``Experiment("greedy",
    "bfs")``); with none given, the sweep covers every registered
    simulation program.  Defaults: families ``("gnp",)``, sizes ``(60,)``,
    the process default engine, seed 7, strategy ``auto``, one process.
    """

    def __init__(self, *programs: str):
        self._programs: Optional[List[str]] = list(programs) or None
        self._families: List[str] = ["gnp"]
        self._sizes: List[int] = [60]
        self._engines: Optional[List[str]] = None
        self._seeds: List[int] = [7]
        self._strategy: str = "auto"
        self._batch_size: int = 0
        self._jobs: int = 1
        self._certify: Optional[str] = None

    # -- axes -----------------------------------------------------------------

    def programs(self, *names: str) -> "Experiment":
        """Select the program axis (alternative to the constructor)."""
        self._programs = list(names) or None
        return self

    def on(self, *families: str, sizes: Optional[Sequence[int]] = None) -> "Experiment":
        """Select the graph families (and optionally sizes in one call)."""
        if families:
            self._families = list(families)
        if sizes is not None:
            self._sizes = [int(s) for s in sizes]
        return self

    def sizes(self, *sizes: int) -> "Experiment":
        self._sizes = [int(s) for s in sizes]
        return self

    def seeds(self, seeds: int | Iterable[int]) -> "Experiment":
        """Seed ensemble: an int means ``range(seeds)``, else the given list."""
        if isinstance(seeds, int):
            self._seeds = list(range(seeds))
        else:
            self._seeds = [int(s) for s in seeds]
        return self

    def seed(self, seed: int) -> "Experiment":
        """Single-seed shorthand for :meth:`seeds`."""
        self._seeds = [int(seed)]
        return self

    def engine(self, *names: str) -> "Experiment":
        self._engines = list(names) or None
        return self

    #: Plural alias — ``.engines("reference", "fast", "vector")`` reads better
    #: for comparison grids.
    engines = engine

    # -- execution knobs ------------------------------------------------------

    def strategy(self, name: str) -> "Experiment":
        if name not in BUILDER_STRATEGIES:
            raise UnknownStrategyError(name, list(BUILDER_STRATEGIES))
        self._strategy = name
        return self

    def batch_size(self, size: int) -> "Experiment":
        """Cap the stack width of batched groups (0 = one stack per group)."""
        self._batch_size = int(size)
        return self

    def jobs(self, jobs: int) -> "Experiment":
        """Worker processes (topologies travel via shared memory)."""
        self._jobs = int(jobs)
        return self

    def certify(self, oracle: str = "auto") -> "Experiment":
        """Attach the certification oracle's ``quality`` block to records.

        ``oracle`` picks the bound ladder mode (see
        :func:`repro.oracle.certify`): ``"auto"`` walks exact → ILP → LP,
        ``"exact"``/``"ilp"`` pin a rung, ``"lp"`` computes only the LP
        lower bound.  Certification runs parent-side as records arrive,
        sharing one in-process oracle cache across the whole grid; only
        specs declaring a ``quality_metric`` are certified.  Without this
        call, records are byte-identical to uncertified runs.
        """
        from repro.oracle import check_oracle_mode

        self._certify = check_oracle_mode(oracle)
        return self

    # -- resolution -----------------------------------------------------------

    def _selected_programs(self) -> List[str]:
        return list(self._programs) if self._programs else available_programs()

    def _selected_engines(self) -> List[str]:
        if self._engines:
            return list(self._engines)
        from repro.congest.engine import default_engine_name

        return [default_engine_name()]

    def resolved_strategy(self) -> str:
        """What ``auto`` negotiates to for the current axes.

        ``batch`` exactly when a stackable multi-instance sweep is
        present: a registry-batchable program on the vector engine with
        ≥ 2 instances per (family, program) group.  Since the ragged
        stacked plane, the instance axis spans sizes *and* seeds — a
        mixed-size single-seed sweep batches just like a seed ensemble.
        """
        if self._strategy != "auto":
            return self._strategy
        if "vector" not in self._selected_engines():
            return "cell"
        if len(self._seeds) * len(self._sizes) < 2:
            return "cell"
        specs = [program_spec(name) for name in self._selected_programs()]
        return "batch" if any(spec.batchable for spec in specs) else "cell"

    def cells(self):
        """Expand the axes into concrete :class:`GridCell` objects.

        Unknown program or engine names fail fast here with structured
        errors, before any simulation runs.  Engine negotiation also
        enforces each spec's ``engines`` restriction: *explicitly*
        selecting a program together with an engine its
        :class:`~repro.api.registry.ProgramSpec` excludes raises a
        structured :class:`~repro.errors.EngineRestrictionError` — the
        builder refuses to schedule a workload on an unsupported engine
        rather than silently running it.  When the program axis is the
        registry default (no programs named), restricted (program,
        engine) pairs are dropped from the expansion instead, so one
        restricted spec never breaks all-programs comparison grids.
        """
        from repro.congest.engine import available_engines
        from repro.experiments.runner import GridCell

        engines = self._selected_engines()
        registered = set(available_engines())
        for engine in engines:
            if engine not in registered:
                raise UnknownEngineError(engine, sorted(registered))
        programs = self._selected_programs()
        explicit = self._programs is not None
        dropped = set()
        for name in programs:
            spec = program_spec(name)
            for engine in engines:
                if spec.supports_engine(engine):
                    continue
                if explicit:
                    raise EngineRestrictionError(
                        name, engine, list(spec.engines or ())
                    )
                dropped.add((name, engine))
        return [
            GridCell(family=f, n=n, program=p, engine=e, seed=s)
            for f in self._families
            for n in self._sizes
            for p in programs
            for e in engines
            for s in self._seeds
            if (p, e) not in dropped
        ]

    def _meta(self) -> Dict[str, object]:
        meta: Dict[str, object] = {
            "families": list(self._families),
            "sizes": list(self._sizes),
            "programs": self._selected_programs(),
            "engines": self._selected_engines(),
            "seeds": len(self._seeds),
            "strategy": self.resolved_strategy(),
            "batch_size": self._batch_size,
            "jobs": self._jobs,
        }
        if self._certify is not None:
            meta["certify"] = self._certify
        return meta

    # -- execution ------------------------------------------------------------

    def run(self) -> SweepResult:
        """Execute the grid; records come back in deterministic cell order."""
        from repro.experiments.runner import run_grid_records

        records = run_grid_records(
            self.cells(),
            jobs=self._jobs,
            strategy=self.resolved_strategy(),
            batch_size=self._batch_size,
            certify=self._certify,
        )
        return SweepResult(records=records, meta=self._meta())

    def stream(self) -> Iterator[RunRecord]:
        """Yield records in completion order, record by record.

        Stacked batch groups stream *per instance*: when an instance's
        termination mask flips inside a (possibly ragged) group, its
        record is yielded immediately — in-process and across pool
        workers alike, where each record is pushed through the worker's
        result channel the moment it exists, so concurrently-running
        groups interleave here in true completion order.  The
        deterministic cell order can always be restored afterwards with
        :meth:`collect` — the streamed record *set* is identical to
        :meth:`run`'s.
        """
        from repro.experiments.runner import iter_grid_records

        return iter_grid_records(
            self.cells(),
            jobs=self._jobs,
            strategy=self.resolved_strategy(),
            batch_size=self._batch_size,
            certify=self._certify,
        )

    def collect(self, records: Iterable[RunRecord]) -> SweepResult:
        """Assemble streamed records into a deterministic :class:`SweepResult`.

        Sorts the completion-order records from :meth:`stream` back into
        cell order (keys are unique per cell) and attaches the same run
        meta :meth:`run` would, plus ``streamed: True`` — so the
        "streamed set == run() set" contract is one code path for every
        consumer (the CLI's ``--stream``, scripts, user loops).
        """
        order = {cell.key: index for index, cell in enumerate(self.cells())}
        sorted_records = sorted(records, key=lambda rec: order[rec.key])
        meta = self._meta()
        meta["streamed"] = True
        return SweepResult(records=sorted_records, meta=meta)
