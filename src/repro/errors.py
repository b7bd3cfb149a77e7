"""Exception hierarchy for the :mod:`repro` library.

Every error raised intentionally by the library derives from
:class:`ReproError` so downstream users can catch library failures with a
single ``except`` clause while still distinguishing the failure domain.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class GraphError(ReproError):
    """A graph input violates a structural precondition.

    Examples: non-normalized node labels, disconnected input to an algorithm
    that requires connectivity, or an empty graph.
    """


class CongestError(ReproError):
    """The CONGEST simulator detected a protocol violation."""


class UnknownEngineError(CongestError):
    """A simulation engine was requested by a name that is not registered.

    Raised by engine resolution and by the batch runner's grid expansion so
    that a typo in ``--engine`` surfaces as one structured library error
    (never a bare ``KeyError``) listing the registered engine names.
    """

    def __init__(self, name: str, available: "list[str]"):
        self.name = name
        self.available = list(available)
        super().__init__(
            f"unknown engine {name!r}; available: {', '.join(self.available)}"
        )


class UnknownProgramError(ReproError):
    """A batch-runner node program was requested by an unknown name."""

    def __init__(self, name: str, available: "list[str]"):
        self.name = name
        self.available = list(available)
        super().__init__(
            f"unknown program {name!r}; available: {', '.join(self.available)}"
        )


class BatchEligibilityError(CongestError):
    """A group of instances cannot run as one stacked message plane.

    Raised by :func:`repro.congest.engine.batched.run_stacked` /
    :func:`~repro.congest.engine.batched.iter_stacked` when the call or
    the instances violate a stacking precondition: a program without a
    vector kernel, a round-limit or input-mapping count that differs from
    the instance count, or a kernel ``eligible`` gate that declines an
    instance.  Every instance joins the plane at round 1, booted from its
    inputs by the kernel's ``stacked_setup``; sizes and bit budgets may
    differ (the plane is ragged).  The batch runner treats this as a
    signal to fall back to per-cell execution, so callers never see it
    unless they invoke the stacked engine directly.
    """


class EngineRestrictionError(ReproError):
    """A workload was asked to run on an engine its spec excludes.

    :attr:`repro.api.registry.ProgramSpec.engines` lets a spec restrict
    which simulation engines can drive it; the
    :class:`~repro.api.experiment.Experiment` builder enforces the
    restriction during engine negotiation (at ``.cells()`` expansion, so
    the error surfaces before anything runs) instead of silently running
    the workload on an unsupported engine.
    """

    def __init__(self, program: str, engine: str, allowed: "list[str]"):
        self.program = program
        self.engine = engine
        self.allowed = list(allowed)
        super().__init__(
            f"program {program!r} does not support engine {engine!r}; "
            f"its spec allows: {', '.join(self.allowed)}"
        )


class UnknownStrategyError(ReproError):
    """A batch-runner execution strategy was requested by an unknown name."""

    def __init__(self, name: str, available: "list[str]"):
        self.name = name
        self.available = list(available)
        super().__init__(
            f"unknown strategy {name!r}; available: {', '.join(self.available)}"
        )


class WorkerLostError(ReproError):
    """A grid-pool worker process died (or stalled) mid-dispatch-unit.

    The streaming pool path (:func:`repro.experiments.runner.run_grid`
    with ``jobs > 1``) detects the loss through its sentinel protocol —
    the worker's result channel hits EOF with its claimed unit
    unfinished, or no sentinel arrives within the stall timeout — and
    **never surfaces this error to callers**: the parent re-dispatches
    the unit's not-yet-yielded cells per cell in-process, and each
    fallback record carries this error's structured description in its
    ``plan.fallback`` block.  The class exists so the event is a typed,
    inspectable member of the library error family rather than a bare
    string.
    """

    def __init__(self, unit: int, pid: "int | None", exitcode: "int | None"):
        self.unit = unit
        self.pid = pid
        self.exitcode = exitcode
        super().__init__(
            f"pool worker (pid={pid}, exitcode={exitcode}) lost while "
            f"running dispatch unit {unit}; unfinished cells re-dispatched "
            "in-process"
        )


class ServiceError(ReproError):
    """Base class for failures of the always-on simulation service.

    The :mod:`repro.service` layer never lets these escape as bare
    strings: the in-process facade raises them from ``submit`` and the
    JSON-lines protocol serializes them into structured error frames
    (``{"type": "error", "error": {"type": <class name>, ...}}``), so a
    remote client can pattern-match the same codes a library caller
    catches.
    """


class ClientQueueFullError(ServiceError):
    """A tenant's pending-cell queue hit the service's backpressure bound.

    Each client of :class:`repro.service.SimulationService` owns a
    bounded admission queue (``max_pending_per_client``).  A submission
    that would overflow it is rejected *whole* — no partial enqueue — so
    one tenant's runaway sweep fills its own queue and gets this
    structured rejection instead of starving every other tenant's batch
    windows.
    """

    def __init__(self, client: str, pending: int, limit: int):
        self.client = client
        self.pending = pending
        self.limit = limit
        super().__init__(
            f"client {client!r} has {pending} pending cells; submission "
            f"would exceed the per-client backpressure bound of {limit}"
        )


class ServiceClosedError(ServiceError):
    """A request reached a service that is not running (or shutting down)."""

    def __init__(self, detail: str = "service is not running"):
        super().__init__(detail)


class MessageTooLargeError(CongestError):
    """A node program attempted to send a message above the bit budget."""

    def __init__(self, sender: int, receiver: int, bits: int, budget: int):
        self.sender = sender
        self.receiver = receiver
        self.bits = bits
        self.budget = budget
        super().__init__(
            f"message from {sender} to {receiver} is {bits} bits, "
            f"budget is {budget} bits"
        )


class SimulationLimitError(CongestError):
    """The simulator exceeded the configured maximum number of rounds."""


class InfeasibleSolutionError(ReproError):
    """A (fractional) dominating set or covering solution is infeasible."""


class DerandomizationError(ReproError):
    """The conditional-expectation engine detected an internal inconsistency.

    This is raised, for instance, if the pessimistic estimator increases
    after fixing a coin, which would falsify the supermartingale invariant
    the method of conditional expectations relies on.
    """


class DecompositionError(ReproError):
    """A network decomposition violates Definition 3.1 / 3.2 invariants."""


class ColoringError(ReproError):
    """A produced coloring is not proper for its conflict relation."""


class RandomnessError(ReproError):
    """Invalid parameters for the k-wise independent generator."""


class LPError(ReproError):
    """The LP oracle failed to produce a feasible solution.

    Carries the HiGHS status code (``scipy.optimize.linprog``'s
    ``result.status``: 1 = iteration limit, 2 = infeasible, 3 = unbounded,
    4 = numerical difficulties) so callers can tell a genuinely infeasible
    instance from a solver hiccup — the certification oracle falls back to
    a weaker bound on numerical failure instead of aborting a sweep, but
    must *not* mask infeasibility (see :class:`LPInfeasibleError`).
    """

    def __init__(self, message: str, status: "int | None" = None):
        self.status = status
        super().__init__(message)


class LPInfeasibleError(LPError):
    """The covering LP itself is infeasible (HiGHS status 2).

    Distinguished from generic :class:`LPError` because infeasibility is a
    statement about the *instance*, not the solver: no fallback oracle can
    produce a bound for it, so sweeps surface it instead of degrading.
    """


class SearchBudgetExceededError(ReproError):
    """A branch-and-bound search exceeded its exploration budget.

    Raised by :func:`repro.baselines.exact.exact_mds` when ``search_budget``
    is set and the search tree outgrows it.  The certification oracle
    catches this to drop from the exact rung to the ILP rung of its bound
    ladder; the default (no budget) preserves the solver's original
    run-to-completion behaviour.
    """
