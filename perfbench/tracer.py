"""Layer tracing for the benchmark's traced pass, installed from outside.

The program under test carries no spans of its own, so the traced pass
wraps the public functions at each layer boundary of ``repro`` with timing
wrappers (:func:`install`), runs the workload, and removes them again.
Each wrapper records a span: its duration, and the part of that interval
covered by child spans.  A layer's *self time* is duration minus children,
so the self times of all layers plus the iteration's own remainder
(``runner.unaccounted``) add up to the traced wall.

Spans nest per thread.  A span opened on a thread with no open span of its
own is a child of the *iteration root* — the span :meth:`Tracer.iteration`
opens on the driving thread — so work done on the service's dispatch
thread is subtracted from the root exactly once.

Generators (``iter_stacked``) are timed inside their own ``next()`` only;
time the consumer spends between items belongs to the consumer.
"""

from __future__ import annotations

import dataclasses
import functools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional

#: Name under which the root's self time is reported.
UNACCOUNTED = "runner.unaccounted"


class _Frame:
    __slots__ = ("name", "start", "child")

    def __init__(self, name: str, start: float):
        self.name = name
        self.start = start
        self.child = 0.0


class Tracer:
    """Self-time and counter accumulator; inert until :attr:`enabled`."""

    def __init__(self) -> None:
        self.enabled = False
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._root: Optional[_Frame] = None
        self._root_lock = threading.Lock()

    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str) -> _Frame:
        frame = _Frame(name, time.perf_counter())
        self._stack().append(frame)
        return frame

    def exit(self, frame: _Frame) -> None:
        duration = time.perf_counter() - frame.start
        stack = self._stack()
        stack.pop()
        self.self_s[frame.name] += duration - frame.child
        self.calls[frame.name] += 1
        if stack:
            stack[-1].child += duration
        elif self._root is not None and frame is not self._root:
            with self._root_lock:
                self._root.child += duration

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counts[name] += amount

    @contextmanager
    def iteration(self) -> Iterator[None]:
        """Trace one iteration: open the root span, enable every wrapper."""
        self._root = self.enter(UNACCOUNTED)
        self.enabled = True
        try:
            yield
        finally:
            self.enabled = False
            self.exit(self._root)
            self._root = None

    def accounted_s(self) -> float:
        """Sum of every self time recorded, root remainder included."""
        return sum(self.self_s.values())


def timed(tracer: Tracer, name: str, fn: Callable, on_return=None) -> Callable:
    """Wrap ``fn`` in a span named ``name`` (a no-op while disabled)."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        frame = tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(frame)
        if on_return is not None:
            on_return(result)
        return result

    return wrapper


def timed_iter(tracer: Tracer, name: str, fn: Callable, on_call=None) -> Callable:
    """Wrap a generator-returning ``fn``; only its ``next()`` calls are timed."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        if on_call is not None:
            on_call(*args, **kwargs)
        frame = tracer.enter(name)
        try:
            inner = fn(*args, **kwargs)
        finally:
            tracer.exit(frame)
        return _timed_items(tracer, name, inner)

    return wrapper


def _timed_items(tracer: Tracer, name: str, inner: Iterator) -> Iterator:
    try:
        while True:
            frame = tracer.enter(name)
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                tracer.exit(frame)
            yield item
    finally:
        close = getattr(inner, "close", None)
        if close is not None:
            close()


def _patch(undo: list, owner, attr: str, replacement) -> None:
    undo.append((owner, attr, owner.__dict__[attr]))
    setattr(owner, attr, replacement)


def _patch_classmethod(undo: list, owner, attr: str, wrap) -> None:
    original = owner.__dict__[attr]
    undo.append((owner, attr, original))
    setattr(owner, attr, classmethod(wrap(original.__func__)))


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every traced layer of ``repro``; returns the uninstaller.

    Names are patched where the caller looks them up: a function imported
    with ``from x import f`` is replaced in the importing module.
    """
    import repro.coloring.distance2 as distance2
    import repro.congest.engine as engine
    import repro.derand.coloring_based as coloring_based
    import repro.experiments.runner as runner
    import repro.fractional.lp as lp
    import repro.fractional.raising as raising
    import repro.mds.pipeline as pipeline
    import repro.service.cache as service_cache
    from repro.api import registry
    from repro.congest.network import Network
    from repro.derand.conditional import ConditionalExpectationEngine
    from repro.domsets.covering import CoveringInstance
    from repro.experiments.sharedmem import SharedTopology

    undo: list = []

    def wrap(name: str, on_return=None):
        return lambda fn: timed(tracer, name, fn, on_return)

    def count_colors(coloring) -> None:
        tracer.count("coloring.colors", coloring.num_colors)

    def count_waterfill(result) -> None:
        tracer.count("fractional.waterfill_iterations", result.iterations)

    def count_instances(networks, *_args, **_kwargs) -> None:
        tracer.count("engine.instances", len(networks))

    _patch(undo, runner, "suite_instance",
           wrap("graphs.generate")(runner.suite_instance))
    _patch_classmethod(undo, Network, "congest", wrap("network.compile"))
    _patch_classmethod(undo, Network, "from_csr", wrap("network.compile"))
    _patch_classmethod(undo, SharedTopology, "publish", wrap("sharedmem.publish"))
    _patch(undo, service_cache, "attach_network",
           wrap("sharedmem.attach")(service_cache.attach_network))
    _patch(undo, engine, "iter_stacked",
           timed_iter(tracer, "engine.stacked", engine.iter_stacked,
                      on_call=count_instances))
    _patch(undo, distance2, "distance2_coloring",
           wrap("coloring.distance2", count_colors)(distance2.distance2_coloring))
    _patch(undo, coloring_based, "bipartite_distance2_coloring",
           wrap("coloring.distance2", count_colors)(
               coloring_based.bipartite_distance2_coloring))
    _patch(undo, lp, "solve_covering_lp",
           wrap("fractional.lp")(lp.solve_covering_lp))
    _patch_classmethod(undo, CoveringInstance, "from_graph",
                       wrap("domsets.covering_build"))
    _patch(undo, raising, "distributed_fractional_mds",
           wrap("fractional.waterfill", count_waterfill)(
               raising.distributed_fractional_mds))
    _patch(undo, raising, "repair_feasibility",
           wrap("fractional.repair")(raising.repair_feasibility))
    _patch(undo, ConditionalExpectationEngine, "run",
           wrap("derand.cond_exp")(ConditionalExpectationEngine.run))
    _patch(undo, pipeline, "require_dominating_set",
           wrap("analysis.verify")(pipeline.require_dominating_set))

    replaced_specs = []
    for spec in registry.registered_specs():
        if spec.batch_inputs is not None:
            replaced_specs.append(spec)
            registry.register_program(
                dataclasses.replace(
                    spec,
                    batch_inputs=wrap("api.batch_inputs")(spec.batch_inputs),
                ),
                replace=True,
            )

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
        for spec in replaced_specs:
            registry.register_program(spec, replace=True)

    return uninstall
