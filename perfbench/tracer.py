"""Spans and counters around the public entry points of each simulator layer.

The benchmark's traced run patches each layer's public entry point (at the
name its callers resolve) with a wrapper that times the call, for the length
of :func:`instrument` only.  The program itself carries no telemetry, so the
untraced runs that give the end-to-end metrics execute unmodified code.

A span's *self* time is its duration minus the time of the spans it
encloses, so the self times of all spans add up to the time of the
outermost (top-level) spans.  Counters are read from the calls' arguments,
results or public attributes and must repeat exactly between runs.

Importing this module imports every instrumented layer, so a process that
imports it has paid for those imports before its first repetition.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.core.planner import ChannelPlanner
from repro.runtime.journal import SweepJournal
from repro.runtime.runner import ExperimentRunner
from repro.scenarios.spec import ScenarioSpec
from repro.sim.control import ControlUnit
from repro.sim.detailed import DetailedTransport
from repro.sim.engine import SimulationEngine
from repro.sim.flow import FlowTransport
from repro.sim.flowpack import FlowPack
from repro.sim.resources import ServiceCenter
from repro.trace.bus import TraceBus

from .metrics import COUNTERS

# ``repro.scenarios.run`` is shadowed by the ``run`` function the package
# exports, so the modules whose globals are patched are looked up by name.
scenarios_run = importlib.import_module("repro.scenarios.run")
service_engine = importlib.import_module("repro.service.engine")

Observer = Callable[["Tracer", Tuple[Any, ...], Any], None]


@dataclass
class SpanStats:
    """Aggregate of every activation of one span name."""

    calls: int = 0
    #: Inclusive time of the outermost activations (re-entry is not double counted).
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """In-memory span statistics and counters for one traced repetition."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: Dict[str, SpanStats] = {}
        self.counters: Dict[str, int] = {}
        #: Summed duration of spans opened while no other span was open.
        self.top_level_s = 0.0
        self._open_children: List[float] = []
        self._depth: Dict[str, int] = {}

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def span(self, name: str, fn: Callable[..., Any], observe: Optional[Observer] = None) -> Callable[..., Any]:
        """``fn`` wrapped so every call is timed under ``name``."""
        stats = self.spans.setdefault(name, SpanStats())
        clock = self.clock
        open_children = self._open_children
        depth = self._depth

        @functools.wraps(fn)
        def timed(*args: Any, **kwargs: Any) -> Any:
            open_children.append(0.0)
            level = depth.get(name, 0)
            depth[name] = level + 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = open_children.pop()
                depth[name] = level
                stats.calls += 1
                stats.self_s += elapsed - children
                if level == 0:
                    stats.total_s += elapsed
                if open_children:
                    open_children[-1] += elapsed
                else:
                    self.top_level_s += elapsed
            if observe is not None:
                observe(self, args, result)
            return result

        return timed

    def counting(self, fn: Callable[..., Any], observe: Observer) -> Callable[..., Any]:
        """``fn`` wrapped to feed counters only; its time stays with the caller."""

        @functools.wraps(fn)
        def counted(*args: Any, **kwargs: Any) -> Any:
            result = fn(*args, **kwargs)
            observe(self, args, result)
            return result

        return counted

    def self_s(self, name: str) -> float:
        stats = self.spans.get(name)
        return stats.self_s if stats is not None else 0.0

    def total_s(self, name: str) -> float:
        stats = self.spans.get(name)
        return stats.total_s if stats is not None else 0.0

    def calls(self, name: str) -> int:
        stats = self.spans.get(name)
        return stats.calls if stats is not None else 0


def _counter(name: str, amount: Callable[[Tuple[Any, ...], Any], int]) -> Observer:
    def observe(tracer: Tracer, args: Tuple[Any, ...], result: Any) -> None:
        tracer.count(name, amount(args, result))

    return observe


def _service_outcome(tracer: Tracer, args: Tuple[Any, ...], result: Any) -> None:
    tracer.count("service.offered", result.offered)
    tracer.count("service.dropped", result.dropped)


def _count_events(tracer: Tracer, run: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(run)
    def counted(engine: Any, *args: Any, **kwargs: Any) -> Any:
        before = engine.processed_events
        try:
            return run(engine, *args, **kwargs)
        finally:
            tracer.count("sim.engine.events", engine.processed_events - before)

    return counted


def _hooks(tracer: Tracer) -> List[Tuple[Any, str, Callable[[Callable[..., Any]], Callable[..., Any]]]]:
    """(owner, attribute, wrap) for every instrumented entry point."""

    def span(name: str, observe: Optional[Observer] = None) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
        return lambda fn: tracer.span(name, fn, observe)

    channels = _counter("sim.transport.channels", lambda args, result: len(args[0].records))
    return [
        (ScenarioSpec, "from_dict", span("scenarios.spec")),
        (ScenarioSpec, "spec_hash", span("scenarios.spec")),
        (scenarios_run, "build_machine", span("scenarios.build_machine")),
        (scenarios_run, "run", span("scenarios.run")),
        (
            scenarios_run,
            "build_stream",
            span("workloads.build", _counter("workloads.ops", lambda args, result: len(result.operations))),
        ),
        (ChannelPlanner, "plan", span("core.planner.plan")),
        (
            ChannelPlanner,
            "candidates",
            lambda fn: tracer.counting(fn, _counter("core.planner.candidates", lambda args, result: len(result))),
        ),
        (ControlUnit, "plan_operation", span("sim.control.plan")),
        (
            ControlUnit,
            "issue_messages",
            span("sim.control.issue", _counter("sim.control.messages", lambda args, result: len(result))),
        ),
        (SimulationEngine, "run", lambda fn: tracer.span("sim.engine.run", _count_events(tracer, fn))),
        (FlowTransport, "start", span("sim.flow.start")),
        (FlowTransport, "utilisation_report", span("sim.transport.report", channels)),
        (FlowPack, "reallocate", span("sim.flowpack.reallocate")),
        (FlowPack, "compact", span("sim.flowpack.compact")),
        (DetailedTransport, "start", span("sim.detailed.start")),
        (DetailedTransport, "utilisation_report", span("sim.transport.report", channels)),
        (ServiceCenter, "submit", span("sim.resources.submit")),
        (service_engine, "generate_requests", span("service.generate")),
        (service_engine.ServiceSimulator, "run", span("service.run", _service_outcome)),
        (TraceBus, "emit", span("trace.emit")),
        (ExperimentRunner, "sweep_records", span("runtime.sweep")),
        (SweepJournal, "append", span("runtime.journal.append")),
    ]


def _rewrap(descriptor: Any, wrap: Callable[[Callable[..., Any]], Callable[..., Any]]) -> Any:
    if isinstance(descriptor, classmethod):
        return classmethod(wrap(descriptor.__func__))
    if isinstance(descriptor, property):
        return property(wrap(descriptor.fget))
    return wrap(descriptor)


@contextlib.contextmanager
def instrument(tracer: Tracer) -> Iterator[Tracer]:
    """Route every layer entry point through ``tracer`` until the block exits."""
    saved: List[Tuple[Any, str, Any]] = []
    try:
        for owner, attribute, wrap in _hooks(tracer):
            original = vars(owner)[attribute]
            saved.append((owner, attribute, original))
            setattr(owner, attribute, _rewrap(original, wrap))
        yield tracer
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)


def layer_values(tracer: Tracer) -> Dict[str, float]:
    """Every per-layer metric of one traced repetition but ``trace.overhead_frac``."""
    counters = tracer.counters
    events = counters.get("sim.engine.events", 0)
    engine_self = tracer.self_s("sim.engine.run")
    values: Dict[str, float] = {
        "scenarios.spec_s": tracer.self_s("scenarios.spec"),
        "scenarios.build_machine_s": tracer.self_s("scenarios.build_machine"),
        "scenarios.assemble_s": tracer.self_s("scenarios.run"),
        "workloads.build_s": tracer.self_s("workloads.build"),
        "core.planner.plan_s": tracer.self_s("core.planner.plan"),
        "core.planner.plans": tracer.calls("core.planner.plan"),
        "sim.control.plan_s": tracer.self_s("sim.control.plan"),
        "sim.control.issue_s": tracer.self_s("sim.control.issue"),
        "sim.engine.run_s": tracer.total_s("sim.engine.run"),
        "sim.engine.self_s": engine_self,
        "sim.engine.us_per_event": engine_self / events * 1e6 if events else 0.0,
        "sim.flow.start_s": tracer.self_s("sim.flow.start"),
        "sim.flow.starts": tracer.calls("sim.flow.start"),
        "sim.flowpack.reallocate_s": tracer.self_s("sim.flowpack.reallocate"),
        "sim.flowpack.reallocations": tracer.calls("sim.flowpack.reallocate"),
        "sim.flowpack.compactions": tracer.calls("sim.flowpack.compact"),
        "sim.detailed.start_s": tracer.self_s("sim.detailed.start"),
        "sim.resources.submit_s": tracer.self_s("sim.resources.submit"),
        "sim.resources.submits": tracer.calls("sim.resources.submit"),
        "sim.transport.report_s": tracer.self_s("sim.transport.report"),
        "service.generate_s": tracer.self_s("service.generate"),
        "service.run_s": tracer.total_s("service.run"),
        "service.self_s": tracer.self_s("service.run"),
        "trace.emit_s": tracer.self_s("trace.emit"),
        "trace.records": tracer.calls("trace.emit"),
        "runtime.sweep_s": tracer.total_s("runtime.sweep"),
        "runtime.self_s": tracer.self_s("runtime.sweep"),
        "runtime.journal.append_s": tracer.self_s("runtime.journal.append"),
        "runtime.journal.appends": tracer.calls("runtime.journal.append"),
    }
    for name in COUNTERS:
        values.setdefault(name, counters.get(name, 0))
    return values
