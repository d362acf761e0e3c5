"""Building and running scenarios.

The bridge from declarative spec to simulation: a spec builds a
:class:`~repro.sim.machine.QuantumMachine` (through the fabric table)
and either an instruction stream (batch mode) or an open-loop traffic stream
(service mode, when the spec carries a ``traffic`` section), runs the
appropriate simulator, and reduces the outcome to a :class:`RunResult`.

:func:`run` is the only code that turns a spec into a simulator run.  Its
``trace`` argument attaches a :class:`~repro.trace.TraceBus`, which is how
the verify harness (and any other probe) observes a run: every caller gets
the same :class:`RunResult`, traced or not.

``RunResult`` is the typed result surface: one envelope of identity fields
(name, spec hash, machine, backend …) plus exactly one populated *view* —
:class:`BatchView` for closed batch runs, :class:`ServiceView` (defined by
:mod:`repro.service.engine`, which returns it) for open-loop service runs.

:func:`run_record` is the flat-dict entry point sweeps and the CLI use: it is
a module-level callable taking only the spec mapping, so
:meth:`repro.runtime.ExperimentRunner.sweep_records` can fan a scenario grid
across its multiprocessing pool and cache each point under the spec's hash.
For batch scenarios its output is byte-for-byte the historical schema-2 record.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Mapping, Optional, Union

from ..errors import ScenarioError
from ..network.nodes import ResourceAllocation
from ..network.routing import DimensionOrder
from ..physics.parameters import IonTrapParameters
from ..service.engine import ServiceSimulator, ServiceView
from ..sim.machine import QuantumMachine
from ..sim.simulator import CommunicationSimulator
from ..trace import TraceBus
from ..workloads.instructions import InstructionStream
from ..workloads.registry import build_workload
from .spec import NoiseSpec, ScenarioSpec
from .warmstart import global_cache

#: Results carry a schema version so downstream consumers (the sweep cache
#: and journal) can evolve without guessing.  Version 2 added the fidelity
#: accounting columns (``noise``, ``fidelity``); batch records stay at 2.
RESULT_SCHEMA_VERSION = 2
#: Flat records of open-loop service runs (new in the service-mode release).
SERVICE_SCHEMA_VERSION = 3


def _as_spec(spec: Union[ScenarioSpec, Mapping[str, Any]]) -> ScenarioSpec:
    if isinstance(spec, ScenarioSpec):
        return spec
    # Canonical (name-stripped) payloads arrive from the cache-keyed sweep
    # path; the caller reattaches its own naming to the result record.
    return ScenarioSpec.from_dict(spec, name="unnamed")


def _apply_noise(params: IonTrapParameters, noise: Optional[NoiseSpec]) -> IonTrapParameters:
    """Fold a scenario's noise overrides into the ion-trap parameter bundle."""
    if noise is None:
        return params
    errors = params.errors
    if noise.gate_error is not None:
        errors = replace(
            errors, one_qubit_gate=noise.gate_error, two_qubit_gate=noise.gate_error
        )
    if noise.measurement_error is not None:
        errors = replace(errors, measure=noise.measurement_error)
    if errors is not params.errors:
        params = params.with_errors(errors)
    if noise.base_fidelity is not None:
        params = replace(params, zero_prep_fidelity=noise.base_fidelity)
    return params


def build_machine(spec: Union[ScenarioSpec, Mapping[str, Any]]) -> QuantumMachine:
    """Construct the machine a scenario describes.

    A ``noise`` section turns fidelity tracking on: its error overrides fold
    into the parameter bundle and its ``target_fidelity`` (when given) drives
    purification-level selection machine-wide.  The planner's EPR budgets
    come from the process-wide memo of :mod:`repro.scenarios.warmstart`, so
    machines with the same physics share them across runs.
    """
    spec = _as_spec(spec)
    topo = spec.topology
    physics = spec.physics
    runtime = spec.runtime
    noise = spec.noise
    routing = spec.network.routing if spec.network is not None else None
    params = IonTrapParameters.default()
    if topo.cells_per_hop != params.cells_per_hop:
        params = params.with_hop_cells(topo.cells_per_hop)
    params = _apply_noise(params, noise)
    machine = QuantumMachine(
        topo.width,
        topo.height,
        topology_kind=topo.kind,
        allocation=ResourceAllocation(
            teleporters_per_node=physics.teleporters,
            generators_per_node=physics.generators,
            purifiers_per_node=physics.purifiers,
        ),
        layout=runtime.layout,
        num_qubits=spec.workload.num_qubits,
        params=params,
        protocol=physics.protocol,
        logical_gate_us=physics.logical_gate_us,
        routing_order=DimensionOrder(runtime.routing),
        generator_bandwidth_scale=physics.generator_bandwidth_scale,
        track_fidelity=noise is not None,
        target_fidelity=noise.target_fidelity if noise is not None else None,
        routing_policy=routing.policy if routing is not None else None,
        routing_hysteresis=routing.hysteresis if routing is not None else None,
        topology_options=dict(topo.options),
    )
    machine.planner.adopt_budgets(global_cache().budgets_for(machine.planner))
    return machine


def build_stream(spec: Union[ScenarioSpec, Mapping[str, Any]]) -> InstructionStream:
    """Construct the instruction stream a scenario describes."""
    spec = _as_spec(spec)
    return build_workload(spec.workload.kind, spec.workload.num_qubits, spec.workload.params)


# -- the typed result surface ---------------------------------------------------------


@dataclass(frozen=True)
class BatchView:
    """The closed-batch outcome: one instruction stream run to completion."""

    operations: int
    channel_count: int
    total_hops: int
    makespan_us: float
    classical_messages: Optional[int]
    utilisation: Dict[str, float] = field(default_factory=dict)
    fidelity: Optional[Dict[str, Any]] = None

    def to_payload(self) -> Dict[str, Any]:
        return {
            "operations": self.operations,
            "channel_count": self.channel_count,
            "total_hops": self.total_hops,
            "makespan_us": self.makespan_us,
            "classical_messages": self.classical_messages,
            "utilisation": dict(self.utilisation),
            "fidelity": dict(self.fidelity) if self.fidelity is not None else None,
        }


@dataclass(frozen=True)
class RunResult:
    """One scenario run: an identity envelope plus exactly one populated view.

    ``batch`` is set for closed batch runs, ``service`` for open-loop service
    runs; never both.  :meth:`to_dict` is the nested JSON form ``serve
    --format json`` prints, and :meth:`flat_record` produces the flat dict the
    sweep cache, journal and CLI tables consume (byte-identical
    to the historical schema-2 record for batch runs).
    """

    schema: int
    name: str
    label: str
    spec_hash: str
    spec: Dict[str, Any]
    machine: str
    workload: str
    topology_kind: str
    layout: str
    allocator: str
    backend: str
    wall_time_s: float
    batch: Optional[BatchView] = None
    service: Optional[ServiceView] = None

    def __post_init__(self) -> None:
        if (self.batch is None) == (self.service is None):
            raise ScenarioError(
                "a RunResult carries exactly one view: batch XOR service"
            )

    @property
    def mode(self) -> str:
        """``"batch"`` or ``"service"``."""
        return "service" if self.service is not None else "batch"

    @property
    def view(self) -> Union[BatchView, ServiceView]:
        """The populated view: ``batch`` or ``service``."""
        view = self.service if self.service is not None else self.batch
        assert view is not None  # __post_init__ guarantees one view
        return view

    @property
    def makespan_us(self) -> float:
        return self.view.makespan_us

    # -- codecs -----------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Nested JSON-safe form: the envelope plus both view slots."""
        return {
            "schema": self.schema,
            "mode": self.mode,
            "name": self.name,
            "label": self.label,
            "spec_hash": self.spec_hash,
            "spec": self.spec,
            "machine": self.machine,
            "workload": self.workload,
            "topology_kind": self.topology_kind,
            "layout": self.layout,
            "allocator": self.allocator,
            "backend": self.backend,
            "batch": self.batch.to_payload() if self.batch is not None else None,
            "service": self.service.to_payload() if self.service is not None else None,
            "wall_time_s": self.wall_time_s,
        }

    # -- the flat record ---------------------------------------------------------------

    def flat_record(self) -> Dict[str, Any]:
        """The flat dict the sweep cache, journal and CLI tables consume.

        Batch runs reproduce the historical schema-2 record byte-for-byte
        (same keys, same order, same values); service runs produce the flat
        schema-3 layout with the steady-state columns.
        """
        spec = self.spec
        noise = spec.get("noise")
        head: Dict[str, Any] = {
            "schema": self.schema,
            "name": self.name,
            "label": self.label,
            "spec_hash": self.spec_hash,
            "spec": self.spec,
            "machine": self.machine,
            "workload": self.workload,
            "topology_kind": self.topology_kind,
            "layout": self.layout,
            "allocator": self.allocator,
            "backend": self.backend,
        }
        if self.batch is not None:
            batch = self.batch
            head.update(
                {
                    "operations": batch.operations,
                    "channel_count": batch.channel_count,
                    "total_hops": batch.total_hops,
                    "makespan_us": batch.makespan_us,
                    "classical_messages": batch.classical_messages,
                    "utilisation": dict(batch.utilisation),
                    "noise": dict(noise) if noise is not None else None,
                    "fidelity": batch.fidelity,
                    "wall_time_s": self.wall_time_s,
                }
            )
            return head
        service = self.service
        assert service is not None  # __post_init__ guarantees one view
        head.update(
            {
                "offered": service.offered,
                "admitted": service.admitted,
                "dropped": service.dropped,
                "completed": service.completed,
                "drop_rate": service.drop_rate,
                "offered_load_per_ms": service.offered_load_per_ms,
                "delivered_load_per_ms": service.delivered_load_per_ms,
                "latency_p50_us": service.latency_p50_us,
                "latency_p99_us": service.latency_p99_us,
                "wait_p50_us": service.wait_p50_us,
                "wait_p99_us": service.wait_p99_us,
                "max_queue_depth": service.max_queue_depth,
                "duration_us": service.duration_us,
                "makespan_us": service.makespan_us,
                "utilisation": dict(service.utilisation),
                "tenants": {k: dict(v) for k, v in service.tenants.items()},
                "noise": dict(noise) if noise is not None else None,
                "fidelity": service.fidelity,
                "wall_time_s": self.wall_time_s,
            }
        )
        return head


# -- execution ------------------------------------------------------------------------


def run(
    spec: Union[ScenarioSpec, Mapping[str, Any]], *, trace: Optional[TraceBus] = None
) -> RunResult:
    """Build and simulate one scenario, returning the typed :class:`RunResult`.

    A spec with a ``traffic`` section runs in open-loop service mode through
    :class:`~repro.service.ServiceSimulator`; otherwise the workload's
    instruction stream runs to completion in batch mode.  Both paths share
    the machine construction, so a traffic section changes *what is offered*,
    never *what machine serves it*.  ``trace`` attaches a trace bus to the
    simulator; a service run needs it to accept the request-lifecycle kinds.
    """
    spec = _as_spec(spec)
    runtime = spec.runtime
    started = time.perf_counter()
    # An oversubscribed workload fails inside build_machine: the layout
    # refuses more logical qubits than the fabric has LQ sites.
    machine = build_machine(spec)
    batch: Optional[BatchView] = None
    service: Optional[ServiceView] = None
    if spec.traffic is not None:
        schema = SERVICE_SCHEMA_VERSION
        workload = f"service[{len(spec.traffic.tenants)} tenants]"
        service = ServiceSimulator(
            machine, allocator=runtime.allocator, backend=runtime.backend
        ).run(spec.traffic, trace=trace, max_events=runtime.max_events)
    else:
        stream = build_stream(spec)
        schema = RESULT_SCHEMA_VERSION
        workload = stream.name
        result = CommunicationSimulator(
            machine, allocator=runtime.allocator, backend=runtime.backend
        ).run(stream, max_events=runtime.max_events, trace=trace)
        messages = result.metadata.get("classical_messages")
        batch = BatchView(
            operations=len(result.operations),
            channel_count=result.channel_count,
            total_hops=sum(record.total_hops for record in result.operations),
            makespan_us=result.makespan_us,
            classical_messages=messages if isinstance(messages, int) else None,
            utilisation=dict(result.resource_utilisation),
            fidelity=result.fidelity_summary(),
        )
    wall_time_s = time.perf_counter() - started
    payload = spec.to_dict()
    return RunResult(
        schema=schema,
        name=spec.name,
        label=spec.label,
        spec_hash=spec.hash_of(payload),
        spec=payload,
        machine=machine.describe(),
        workload=workload,
        topology_kind=spec.topology.kind,
        layout=runtime.layout,
        allocator=runtime.allocator,
        backend=runtime.backend,
        wall_time_s=wall_time_s,
        batch=batch,
        service=service,
    )


def run_record(spec: Union[ScenarioSpec, Mapping[str, Any]]) -> Dict[str, Any]:
    """Run one scenario and return its flat record (the sweep/cache unit).

    This is the module-level callable :meth:`ExperimentRunner.sweep_records`
    ships to pool workers.  For batch scenarios the record is byte-identical
    to the historical schema-2 record.
    """
    return run(spec).flat_record()

