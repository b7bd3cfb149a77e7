"""Pluggable round-loop engines for the CONGEST simulator.

Importing this package registers the bundled engines:

``reference``
    The seed dict-of-dicts loop — readable, O(n) per round, the semantic
    baseline (:class:`~repro.congest.engine.reference.ReferenceEngine`).
``fast``
    Flat-array active-set loop, the default — per-round cost scales with
    live nodes and actual traffic
    (:class:`~repro.congest.engine.fast.FastEngine`).
``vector``
    Numpy message-plane loop for fixed-shape broadcast rounds — programs
    declare :class:`MessageSpec` shapes and register a
    :class:`VectorKernel`; everything else falls back to ``fast``
    semantics (:class:`~repro.congest.engine.vector.VectorEngine`).  A
    solo run is a one-instance group of the stacked round loop below.

Select an engine per run (``Simulator(..., engine="reference")``), process
wide (:func:`set_default_engine`, the ``--engine`` CLI flags), or via the
``REPRO_ENGINE`` environment variable.  ``docs/engines.md`` has the guide.

On top of the per-run engines, :func:`run_stacked` /
:func:`iter_stacked` (:mod:`repro.congest.engine.batched`) execute K
independent instances of one program family with a vector kernel as a
single stacked message plane — ragged (mixed instance sizes) or uniform
— the batched multi-instance mode behind the experiment runner's
``batch`` strategy; the ``iter`` variant streams each instance's result
the moment its termination mask flips.
"""

from repro.congest.engine.base import (
    Engine,
    EngineSpec,
    SimulationResult,
    available_engines,
    default_engine_name,
    register_engine,
    resolve_engine,
    set_default_engine,
)
from repro.congest.engine.batched import (
    StackedPlane,
    iter_stacked,
    run_stacked,
    stack_ineligibility,
)
from repro.congest.engine.fast import FastEngine
from repro.congest.engine.reference import ReferenceEngine
from repro.congest.engine.vector import (
    CsrPlane,
    MessageSpec,
    PendingBroadcast,
    PendingTargeted,
    VectorEngine,
    VectorKernel,
    kernel_for,
    pending_parts,
    register_kernel,
)

__all__ = [
    "Engine",
    "EngineSpec",
    "SimulationResult",
    "available_engines",
    "default_engine_name",
    "register_engine",
    "resolve_engine",
    "set_default_engine",
    "FastEngine",
    "ReferenceEngine",
    "VectorEngine",
    "CsrPlane",
    "MessageSpec",
    "PendingBroadcast",
    "PendingTargeted",
    "StackedPlane",
    "VectorKernel",
    "kernel_for",
    "pending_parts",
    "register_kernel",
    "iter_stacked",
    "run_stacked",
    "stack_ineligibility",
]
