"""The open-loop service simulator: traffic in, a :class:`ServiceView` out.

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
same stream the metrics are computed from.  A run returns its
:class:`ServiceView` — the steady-state metrics, per-class utilisation and
fidelity summary — which :func:`repro.scenarios.run.run` places in the
``service`` slot of its :class:`~repro.scenarios.run.RunResult`.  Per-request
detail (completion order, per-channel fidelities) lives on the trace bus.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Optional

from ..errors import ConfigurationError, SimulationError
from ..network.layout import CommRequest
from ..sim.control import PlannedCommunication
from ..sim.engine import SimulationEngine
from ..sim.flow import DEFAULT_ALLOCATOR
from ..sim.machine import QuantumMachine
from ..sim.results import fidelity_summary
from ..sim.simulator import create_transport
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
from ..trace.records import machine_record
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


@dataclass(frozen=True)
class ServiceView:
    """The open-loop outcome: steady-state service metrics over the horizon."""

    duration_us: float
    makespan_us: float
    offered: int
    admitted: int
    dropped: int
    completed: int
    drop_rate: float
    offered_load_per_ms: float
    delivered_load_per_ms: float
    latency_p50_us: float
    latency_p99_us: float
    wait_p50_us: float
    wait_p99_us: float
    max_queue_depth: int
    utilisation: Dict[str, float] = field(default_factory=dict)
    tenants: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    fidelity: Optional[Dict[str, Any]] = None

    def to_payload(self) -> Dict[str, Any]:
        return {
            "duration_us": self.duration_us,
            "makespan_us": self.makespan_us,
            "offered": self.offered,
            "admitted": self.admitted,
            "dropped": self.dropped,
            "completed": self.completed,
            "drop_rate": self.drop_rate,
            "offered_load_per_ms": self.offered_load_per_ms,
            "delivered_load_per_ms": self.delivered_load_per_ms,
            "latency_p50_us": self.latency_p50_us,
            "latency_p99_us": self.latency_p99_us,
            "wait_p50_us": self.wait_p50_us,
            "wait_p99_us": self.wait_p99_us,
            "max_queue_depth": self.max_queue_depth,
            "utilisation": dict(self.utilisation),
            "tenants": {name: dict(stats) for name, stats in self.tenants.items()},
            "fidelity": dict(self.fidelity) if self.fidelity is not None else None,
        }


class ServiceSimulator:
    """Drives a transport backend with an open-loop request stream.

    ``backend`` (a :data:`~repro.sim.simulator.BACKENDS` name) and
    ``allocator`` (one of :data:`~repro.sim.flow.ALLOCATORS`) select the
    transport exactly as :class:`~repro.sim.simulator.CommunicationSimulator`
    does, so the same machine serves batch and service runs and the
    fluid-vs-detailed parity argument carries over to service mode.
    """

    def __init__(
        self,
        machine: QuantumMachine,
        *,
        allocator: str = DEFAULT_ALLOCATOR,
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
    ) -> ServiceView:
        """Generate, admit, schedule and service ``traffic`` to completion.

        Arrivals stop at the traffic horizon; the run then drains — every
        admitted request completes — so the makespan is horizon plus drain,
        and the returned :class:`ServiceView` summarises the whole run.
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
        if trace is not None:
            trace.emit(
                machine_record(
                    self.machine,
                    workload=f"service[{len(traffic.tenants)} tenants]",
                    operations=len(requests),
                )
            )

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
            engine.post_at(request.arrival_us, lambda r=request: on_arrival(r))
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
        metrics = collector.summary(makespan_us=makespan)
        # The view reports loads; the channel totals behind them stay per tenant.
        del metrics["offered_channels"], metrics["completed_channels"]
        return ServiceView(
            duration_us=traffic.duration_us,
            makespan_us=makespan,
            utilisation=transport.utilisation_report(makespan),
            fidelity=fidelity_summary(
                transport.records,
                self.machine.params.threshold_fidelity if self.machine.track_fidelity else None,
            ),
            **metrics,
        )


__all__ = [
    "ServiceSimulator",
    "ServiceView",
]
