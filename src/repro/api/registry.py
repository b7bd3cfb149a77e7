"""Declarative program registry: one :class:`ProgramSpec` per workload.

A :class:`ProgramSpec` bundles everything the experiment layer needs to
drive one named workload over an arbitrary compiled topology — the driver
callable, the result-summary hook, batched-execution eligibility, engine
restrictions and default parameters.  Program modules register their own
spec at import time (:func:`register_program`), exactly like engines and
vector kernels register themselves, so the runner, the CLI and the
:class:`~repro.api.experiment.Experiment` builder all discover workloads
from one place instead of hard-coding driver closures.

Two kinds of spec exist:

* **simulation specs** (``program`` set, ``composite=False``) wrap one
  :class:`~repro.congest.node.NodeProgram`; their driver returns a
  :class:`~repro.congest.engine.base.SimulationResult` and the standard
  metrics block (rounds, messages, bits) is derived from it;
* **composite specs** (``composite=True``) wrap a multi-stage pipeline
  (e.g. the Theorem 1.4 CDS pipeline) whose driver returns a
  domain-specific result; they supply their own full ``metrics`` callable.

The registry is populated lazily: the first query imports
:mod:`repro.congest.programs` and :mod:`repro.cds.pipeline`, which register
the built-in specs as a side effect.  Third-party code can register
additional specs the same way before expanding a grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Mapping, Optional, Tuple

from repro.errors import UnknownProgramError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.congest.network import Network


@dataclass(frozen=True)
class ProgramSpec:
    """Everything needed to run one named workload on a compiled network.

    Attributes
    ----------
    name:
        Registry key; the value of a grid cell's ``program`` axis.
    description:
        One line for catalogs and ``--help`` output.
    drive:
        ``(network, engine, **default_params) -> outcome``.  For simulation
        specs the outcome is a ``SimulationResult``; composites return
        their pipeline result.  Network-only signature — shared-memory CSR
        reconstructions must plug in without a ``networkx`` graph (drivers
        needing one use the lazy ``network.graph``).
    program:
        The :class:`~repro.congest.node.NodeProgram` subclass executed, or
        ``None`` for composites.  Registry-completeness tests key off this.
    summarize:
        Optional ``SimulationResult -> dict`` of program-specific metrics
        (e.g. ``ds_size``), computed from node outputs only so per-cell and
        stacked executions produce identical values.
    metrics:
        Optional full override ``(network, outcome) -> metrics block``;
        composites use it to shape their block like a simulation record.
    batch_factory / batch_max_rounds / batch_inputs:
        Stacked-execution recipe: the program class handed to
        :func:`~repro.congest.engine.batched.run_stacked`, its round limit,
        and (optionally) per-instance input construction.  ``batch_factory``
        is ``None`` for programs the ``batch`` strategy cannot stack.
    engines:
        Engine names the spec is eligible for (``None`` = every registered
        engine).  Enforced by the :class:`~repro.api.experiment.Experiment`
        builder's engine negotiation: explicitly selecting this program
        with an excluded engine raises
        :class:`~repro.errors.EngineRestrictionError` at expansion time,
        while defaulted all-programs grids drop the restricted pairs.
    default_params:
        Keyword arguments applied to every ``drive`` call — the spec's
        canonical workload parameters.
    composite:
        ``True`` for multi-stage pipeline specs; excluded from the default
        grid axes (request them explicitly by name).
    quality_metric:
        Name of the metrics-block entry holding the spec's solution size
        (e.g. ``"ds_size"``), or ``None`` for specs that produce no
        certifiable solution.  Setting it opts the spec into the
        certification oracle (``--certify`` grids attach a ``quality``
        block to its records) *and* into the registry-wide paper-bound
        tripwire test, which certifies every such spec on the small zoo.
    quality_bound:
        ``max_degree -> float``: the spec's documented approximation
        guarantee against OPT (e.g. :func:`repro.analysis.bounds.greedy_bound`
        for the sequential greedy's ``H(Delta+1) <= ln(Delta+1)+1``).
        ``None`` means certified ratios are reported but not gated.
    """

    name: str
    description: str
    drive: Callable[..., object]
    program: Optional[type] = None
    summarize: Optional[Callable[[object], Dict[str, object]]] = None
    metrics: Optional[Callable[["Network", object], Dict[str, object]]] = None
    batch_factory: Optional[type] = None
    batch_max_rounds: Optional[Callable[["Network"], int]] = None
    batch_inputs: Optional[Callable[["Network"], Mapping[int, object]]] = None
    engines: Optional[Tuple[str, ...]] = None
    default_params: Mapping[str, object] = field(default_factory=dict)
    composite: bool = False
    quality_metric: Optional[str] = None
    quality_bound: Optional[Callable[[int], float]] = None

    @property
    def batchable(self) -> bool:
        """Whether the ``batch`` strategy can stack this spec's cells."""
        return self.batch_factory is not None and self.batch_max_rounds is not None

    def supports_engine(self, engine: str) -> bool:
        return self.engines is None or engine in self.engines

    def run(self, network: "Network", engine: str) -> object:
        """Execute the workload once (the driver plus default params)."""
        return self.drive(network, engine, **dict(self.default_params))

    def cell_metrics(self, network: "Network", outcome: object) -> Dict[str, object]:
        """The metrics block of one success record.

        Simulation specs share one canonical shape (so engine-parity and
        strategy-parity checks compare like with like); composites shape
        their own via ``metrics``.
        """
        if self.metrics is not None:
            return dict(self.metrics(network, outcome))
        sim = outcome  # a SimulationResult by the simulation-spec contract
        block: Dict[str, object] = {
            "n": network.n,
            "max_degree": network.max_degree,
            "rounds": sim.rounds,
            "total_messages": sim.total_messages,
            "total_bits": sim.total_bits,
            "max_message_bits": sim.max_message_bits,
            "all_halted": sim.all_halted,
        }
        if self.summarize is not None:
            block.update(self.summarize(sim))
        return block


_REGISTRY: Dict[str, ProgramSpec] = {}
#: "unloaded" -> "loading" (re-entrant imports short-circuit) -> "loaded".
#: Reset to "unloaded" on failure so a transient import error is retried —
#: and reported — on the next query instead of leaving a silently empty
#: registry for the rest of the process.
_BUILTINS_STATE = "unloaded"


def _ensure_builtin_specs() -> None:
    """Import the modules that register the built-in specs (idempotent)."""
    global _BUILTINS_STATE
    if _BUILTINS_STATE != "unloaded":
        return
    _BUILTINS_STATE = "loading"
    try:
        import repro.cds.pipeline  # noqa: F401  (registers the composite spec)
        import repro.congest.programs  # noqa: F401  (registers simulation specs)
    except BaseException:
        _BUILTINS_STATE = "unloaded"
        raise
    _BUILTINS_STATE = "loaded"


def register_program(spec: ProgramSpec, replace: bool = False) -> ProgramSpec:
    """Add ``spec`` to the registry; returns it so modules can keep a ref.

    Re-registering an existing name is an error unless ``replace=True`` —
    a silent overwrite would let two modules fight over one axis value.
    """
    if not spec.name:
        raise ValueError("a ProgramSpec needs a non-empty name")
    if not replace and spec.name in _REGISTRY:
        raise ValueError(f"program {spec.name!r} is already registered")
    if not spec.composite and spec.program is None:
        raise ValueError(
            f"simulation spec {spec.name!r} must name its NodeProgram class"
        )
    _REGISTRY[spec.name] = spec
    return spec


def program_spec(name: str) -> ProgramSpec:
    """Look up a spec by name; unknown names raise a structured error."""
    _ensure_builtin_specs()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownProgramError(
            name, available_programs(include_composite=True)
        ) from None


def registered_specs(include_composite: bool = True) -> List[ProgramSpec]:
    """All registered specs, sorted by name."""
    _ensure_builtin_specs()
    return [
        _REGISTRY[name]
        for name in sorted(_REGISTRY)
        if include_composite or not _REGISTRY[name].composite
    ]


def available_programs(include_composite: bool = False) -> List[str]:
    """Sorted names of the registered programs.

    Simulation programs only by default — the set grid axes expand over;
    composites (e.g. ``cds``) are runnable but must be requested by name.
    """
    return [spec.name for spec in registered_specs(include_composite)]


def batchable_programs() -> List[str]:
    """Sorted names of the programs the ``batch`` strategy can stack."""
    return [spec.name for spec in registered_specs() if spec.batchable]
