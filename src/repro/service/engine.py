"""The open-loop service simulator: traffic in, steady-state metrics out.

:class:`ServiceSimulator` composes the pieces of this package around the same
discrete-event kernel and transport backends batch mode uses: requests are
generated up front (:mod:`repro.service.arrivals`), each arrival is gated by
the admission controller, admitted requests queue in the request scheduler,
and at most ``max_inflight`` requests at a time hold transport channels —
each request's channels serviced back-to-back between its fixed endpoints.

Every lifecycle milestone is emitted on the trace bus as a typed record
(arrive/admit/drop/dispatch/complete) and the
:class:`~repro.service.metrics.SteadyStateCollector` subscribes to exactly
those records, so the engine itself holds no metrics state; goldens diff the
same stream the metrics are computed from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from ..errors import ConfigurationError, SimulationError
from ..network.layout import CommRequest
from ..sim.control import PlannedCommunication
from ..sim.engine import SimulationEngine
from ..sim.machine import QuantumMachine
from ..sim.results import ChannelRecord
from ..sim.transport import create_transport
from ..trace import (
    REQUEST_KINDS,
    RequestAdmitted,
    RequestArrived,
    RequestCompleted,
    RequestDispatched,
    RequestDropped,
    RunEnded,
    TraceBus,
)
from ..trace.records import WarmStartApplied, machine_record, warm_start_record_fields
from .admission import create_admission
from .arrivals import ServiceRequest, generate_requests
from .metrics import SteadyStateCollector
from .schedulers import create_scheduler

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..scenarios.spec import TrafficSpec


@dataclass
class _RequestState:
    """Progress of one dispatched request through its channel sequence."""

    request: ServiceRequest
    dispatch_us: float
    plan: Any
    channels_done: int = 0


@dataclass
class ServiceResult:
    """Outcome of one open-loop service run.

    Duck-type-compatible with :class:`~repro.sim.results.SimulationResult`
    where the verify harness and CLI need it (``makespan_us``, ``channels``,
    ``channel_count``, ``resource_utilisation``, ``backend``,
    ``fidelity_summary()``), plus the steady-state ``metrics`` summary and
    the deterministic ``completion_order`` the traffic parity check diffs.
    """

    machine_description: str
    backend: str
    makespan_us: float
    duration_us: float
    channels: List[ChannelRecord] = field(default_factory=list)
    resource_utilisation: Dict[str, float] = field(default_factory=dict)
    metrics: Dict[str, Any] = field(default_factory=dict)
    completion_order: List[int] = field(default_factory=list)
    target_fidelity: Optional[float] = None
    metadata: Dict[str, object] = field(default_factory=dict)

    @property
    def channel_count(self) -> int:
        return len(self.channels)

    @property
    def operation_count(self) -> int:
        """Completed requests (the service-mode analogue of operations)."""
        return self.completed

    @property
    def offered(self) -> int:
        return int(self.metrics.get("offered", 0))

    @property
    def admitted(self) -> int:
        return int(self.metrics.get("admitted", 0))

    @property
    def dropped(self) -> int:
        return int(self.metrics.get("dropped", 0))

    @property
    def completed(self) -> int:
        return int(self.metrics.get("completed", 0))

    @property
    def drop_rate(self) -> float:
        return float(self.metrics.get("drop_rate", 0.0))

    def delivered_fidelities(self) -> List[float]:
        return [
            c.delivered_fidelity for c in self.channels if c.delivered_fidelity is not None
        ]

    def fidelity_summary(self) -> Optional[Dict[str, object]]:
        """Flat fidelity summary over serviced channels (None when untracked)."""
        values = self.delivered_fidelities()
        if not values:
            return None
        summary: Dict[str, object] = {
            "channels": len(values),
            "mean": sum(values) / len(values),
            "min": min(values),
            "max": max(values),
        }
        if self.target_fidelity is not None:
            summary["target"] = self.target_fidelity
            summary["below_target"] = sum(1 for v in values if v < self.target_fidelity)
        return summary

    def describe(self) -> str:
        """Human-readable steady-state report (the ``repro serve`` text view)."""
        m = self.metrics
        lines = [
            f"ServiceResult on {self.machine_description} ({self.backend} backend)",
            f"  horizon             : {self.duration_us:.1f} us offered,"
            f" drained at {self.makespan_us:.1f} us",
            f"  requests            : {self.offered} offered / {self.admitted} admitted /"
            f" {self.dropped} dropped / {self.completed} completed",
            f"  drop rate           : {self.drop_rate:6.1%}",
            f"  offered load        : {m.get('offered_load_per_ms', 0.0):.3f} channels/ms",
            f"  delivered load      : {m.get('delivered_load_per_ms', 0.0):.3f} channels/ms",
            f"  completion latency  : p50 {m.get('latency_p50_us', 0.0):.1f} us,"
            f" p99 {m.get('latency_p99_us', 0.0):.1f} us",
            f"  queueing delay      : p50 {m.get('wait_p50_us', 0.0):.1f} us,"
            f" p99 {m.get('wait_p99_us', 0.0):.1f} us",
            f"  peak queue depth    : {m.get('max_queue_depth', 0)}",
        ]
        fidelity = self.fidelity_summary()
        if fidelity is not None:
            line = (
                f"  delivered fidelity  : mean {fidelity['mean']:.6f}, "
                f"min {fidelity['min']:.6f} over {fidelity['channels']} channels"
            )
            if "target" in fidelity:
                line += f" (target {fidelity['target']:.6f}, {fidelity['below_target']} below)"
            lines.append(line)
        tenants = m.get("tenants", {})
        if tenants:
            lines.append("  tenants:")
            for name in sorted(tenants):
                t = tenants[name]
                lines.append(
                    f"    {name:16s}: {t['offered']:4d} offered,"
                    f" {t['drop_rate']:6.1%} dropped,"
                    f" p99 {t['latency_p99_us']:9.1f} us,"
                    f" peak queue {t['max_queue_depth']}"
                )
        if self.resource_utilisation:
            lines.append("  resource utilisation:")
            for name, value in sorted(self.resource_utilisation.items()):
                lines.append(f"    {name:20s}: {value:6.1%}")
        return "\n".join(lines)


class ServiceSimulator:
    """Drives a transport backend with an open-loop request stream.

    ``backend`` (``"fluid"`` or ``"detailed"``) and ``allocator``
    (``"incremental"``, ``"vectorized"`` or ``"reference"``) select the
    transport exactly as :class:`~repro.sim.simulator.CommunicationSimulator`
    does, so the same machine serves batch and service runs and the
    fluid-vs-detailed parity argument carries over to service mode.
    """

    def __init__(
        self,
        machine: QuantumMachine,
        *,
        allocator: str = "incremental",
        backend: str = "fluid",
    ) -> None:
        self.machine = machine
        self.allocator = allocator
        self.backend = backend

    def run(
        self,
        traffic: "TrafficSpec",
        *,
        trace: Optional[TraceBus] = None,
        max_events: Optional[int] = None,
    ) -> ServiceResult:
        """Generate, admit, schedule and service ``traffic`` to completion.

        Arrivals stop at the traffic horizon; the run then drains — every
        admitted request completes — so the makespan is horizon plus drain.
        A caller-provided ``trace`` must accept the request-lifecycle kinds
        (the steady-state metrics are computed from that stream); without
        one, a private non-accumulating bus carries them.  ``max_events``
        caps the events the engine dispatches (``runtime.max_events``); a run
        it cuts short raises :class:`~repro.errors.SimulationError` rather
        than report metrics of a truncated arrival stream.
        """
        if trace is None:
            bus = TraceBus(kinds=REQUEST_KINDS, keep_records=False)
        else:
            if not trace.wants(RequestArrived.kind):
                raise ConfigurationError(
                    "service-mode trace bus must accept the request-lifecycle "
                    "kinds; widen its 'kinds' filter to include REQUEST_KINDS"
                )
            bus = trace
        collector = SteadyStateCollector(duration_us=traffic.duration_us)
        bus.subscribe(collector, kinds=REQUEST_KINDS)
        completion_order: List[int] = []

        engine = SimulationEngine(trace=trace)
        transport = create_transport(
            self.backend, engine, self.machine, allocator=self.allocator
        )
        requests = generate_requests(traffic, list(self.machine.topology.nodes()))
        admission = create_admission(
            traffic.admission,
            rate_per_ms=traffic.admission_rate_per_ms,
            burst=traffic.admission_burst,
            queue_limit=traffic.queue_limit,
        )
        scheduler = create_scheduler(traffic.scheduler)
        inflight = 0
        tenant_count = len(traffic.tenants)
        if trace is not None:
            trace.emit(
                machine_record(
                    self.machine,
                    workload=f"service[{tenant_count} tenants]",
                    operations=len(requests),
                )
            )
        warm_start = self.machine.warm_start
        if trace is not None and warm_start is not None and trace.wants(WarmStartApplied.kind):
            trace.emit(WarmStartApplied(t_us=0.0, **warm_start_record_fields(warm_start)))

        def pump() -> None:
            nonlocal inflight
            while inflight < traffic.max_inflight and len(scheduler) > 0:
                request = scheduler.pop()
                inflight += 1
                bus.emit(
                    RequestDispatched(
                        t_us=engine.now,
                        request_id=request.request_id,
                        tenant=request.tenant,
                        waited_us=engine.now - request.arrival_us,
                        queue_depth=len(scheduler),
                    )
                )
                state = _RequestState(
                    request=request,
                    dispatch_us=engine.now,
                    plan=self.machine.planner.plan(request.source, request.dest),
                )
                start_channel(state)

        def start_channel(state: _RequestState) -> None:
            request = state.request
            planned = PlannedCommunication(
                request=CommRequest(
                    source=request.source,
                    dest=request.dest,
                    qubit=request.request_id,
                    purpose=f"service:{request.tenant}",
                ),
                plan=state.plan,
            )
            transport.start(planned, lambda s=state: channel_done(s))

        def channel_done(state: _RequestState) -> None:
            nonlocal inflight
            state.channels_done += 1
            if state.channels_done < state.request.channels:
                start_channel(state)
                return
            request = state.request
            completion_order.append(request.request_id)
            bus.emit(
                RequestCompleted(
                    t_us=engine.now,
                    request_id=request.request_id,
                    tenant=request.tenant,
                    channels=request.channels,
                    waited_us=state.dispatch_us - request.arrival_us,
                    service_us=engine.now - state.dispatch_us,
                )
            )
            inflight -= 1
            pump()

        def on_arrival(request: ServiceRequest) -> None:
            bus.emit(
                RequestArrived(
                    t_us=engine.now,
                    request_id=request.request_id,
                    tenant=request.tenant,
                    channels=request.channels,
                    source=request.source.as_tuple(),
                    destination=request.dest.as_tuple(),
                )
            )
            reason = admission.admit(
                request, now_us=engine.now, queue_depth=len(scheduler)
            )
            if reason is not None:
                bus.emit(
                    RequestDropped(
                        t_us=engine.now,
                        request_id=request.request_id,
                        tenant=request.tenant,
                        reason=reason,
                    )
                )
                return
            scheduler.push(request)
            bus.emit(
                RequestAdmitted(
                    t_us=engine.now,
                    request_id=request.request_id,
                    tenant=request.tenant,
                    queue_depth=len(scheduler),
                )
            )
            pump()

        for request in requests:
            engine.schedule_at(request.arrival_us, lambda r=request: on_arrival(r))
        engine.run(max_events=max_events)
        live_events = engine.pending_events - engine.cancelled_pending
        if live_events:
            raise SimulationError(
                f"service run stopped at {engine.now:.6g} us by runtime.max_events="
                f"{max_events} with {live_events} events still pending"
            )
        if inflight != 0 or len(scheduler) != 0:
            raise SimulationError(
                f"service run drained with {inflight} requests in flight and "
                f"{len(scheduler)} still queued"
            )
        makespan = engine.now
        if trace is not None:
            trace.emit(
                RunEnded(
                    t_us=makespan,
                    makespan_us=makespan,
                    operations=collector.completed,
                    channels=len(transport.records),
                )
            )
        return ServiceResult(
            machine_description=self.machine.describe(),
            backend=transport.name,
            makespan_us=makespan,
            duration_us=traffic.duration_us,
            channels=transport.records,
            resource_utilisation=transport.utilisation_report(makespan),
            metrics=collector.summary(makespan_us=makespan),
            completion_order=completion_order,
            target_fidelity=(
                self.machine.params.threshold_fidelity
                if self.machine.track_fidelity
                else None
            ),
            metadata={
                "requests": len(requests),
                "tenants": tenant_count,
                "admission": traffic.admission,
                "scheduler": traffic.scheduler,
                "max_inflight": traffic.max_inflight,
                "allocation": self.machine.allocation.label,
                "layout": self.machine.layout_name,
                "warm_start": dict(warm_start) if warm_start is not None else None,
            },
        )


def completion_time_percentiles(result: ServiceResult) -> Tuple[float, float]:
    """(p50, p99) request completion latency of a service run, in µs."""
    metrics = result.metrics
    return (
        float(metrics.get("latency_p50_us", 0.0)),
        float(metrics.get("latency_p99_us", 0.0)),
    )


__all__ = [
    "ServiceResult",
    "ServiceSimulator",
    "completion_time_percentiles",
]
