"""Top-level communication simulator (paper Section 5).

:class:`CommunicationSimulator` runs an instruction stream on a
:class:`~repro.sim.machine.QuantumMachine`: the scheduler issues operations as
their dependencies resolve, the control unit translates each operation into
planned communications via the machine's layout, and the selected transport
backend services them under contention.  The scheduler/control/issue-retire
loop is backend-agnostic — the fluid flow model and the detailed per-pair
model implement :class:`~repro.sim.transport.TransportBackend`, and
:data:`BACKENDS` names them — and the result is a
:class:`~repro.sim.results.SimulationResult` whose makespan is the paper's
"runtime" metric (Figure 16).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Type

from ..errors import ConfigurationError, SimulationError
from ..trace import OperationIssued, OperationRetired, RunEnded, TraceBus
from ..trace.records import machine_record
from ..workloads.instructions import InstructionStream, TwoQubitOp
from .control import ControlUnit, PlannedCommunication
from .detailed import DetailedTransport
from .engine import SimulationEngine
from .flow import DEFAULT_ALLOCATOR, FlowTransport
from .machine import QuantumMachine
from .results import OperationRecord, SimulationResult
from .scheduler import InstructionScheduler
from .transport import TransportBackend

#: The transport backends, by the name ``runtime.backend`` selects.
BACKENDS: Dict[str, Type[TransportBackend]] = {
    "fluid": FlowTransport,
    "detailed": DetailedTransport,
}


def create_transport(
    name: str,
    engine: SimulationEngine,
    machine: QuantumMachine,
    *,
    allocator: str = DEFAULT_ALLOCATOR,
) -> TransportBackend:
    """Instantiate the backend named ``name``.

    ``allocator`` reaches only the fluid backend, the one with a rate
    allocator.
    """
    key = (name or "").strip()
    cls = BACKENDS.get(key)
    if cls is None:
        raise ConfigurationError(
            f"unknown transport backend {name!r}; registered: {sorted(BACKENDS)}"
        )
    if cls is FlowTransport:
        return FlowTransport(engine, machine, allocator=allocator)
    return cls(engine, machine)


@dataclass
class _OpState:
    """Progress of one in-flight operation."""

    op: TwoQubitOp
    issue_us: float
    communications: List[PlannedCommunication]
    next_index: int = 0
    gate_done: bool = False
    total_hops: int = 0
    channel_count: int = 0


class CommunicationSimulator:
    """Runs instruction streams on a quantum machine and reports runtime.

    ``backend`` selects the transport granularity by its :data:`BACKENDS`
    name: ``"fluid"`` (the default) services communications as max-min fair
    flows, ``"detailed"`` simulates every EPR pair through the shared node
    hardware.  ``allocator`` (default
    :data:`~repro.sim.flow.DEFAULT_ALLOCATOR`) selects the fluid backend's
    rate allocator: ``"incremental"`` fills over a persistent resource→flows
    index, summing each resource's demand over its registered flows only,
    ``"vectorized"`` runs the same filling as numpy kernels over flat
    arrays, and ``"reference"`` recomputes every rate from scratch (the
    original, much slower behaviour kept as a correctness oracle).  The
    transport publishes rates once per simulated instant: ``incremental``
    and ``reference`` solve at every change to the set of live flows,
    ``vectorized`` only at the publish, and all three publish
    bitwise-identical rates (see :mod:`repro.sim.flow`).
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
        stream: InstructionStream,
        *,
        max_events: Optional[int] = None,
        trace: Optional[TraceBus] = None,
    ) -> SimulationResult:
        """Simulate ``stream`` to completion and return the result.

        ``trace`` attaches a trace bus for the run: the engine, the transport
        and this simulator emit typed records onto it (run header/footer,
        operation issue/retire, channel open/close, flow rate changes).
        Untraced runs skip all of it behind ``is not None`` guards.
        ``max_events`` caps the events the engine dispatches
        (``runtime.max_events``); a run it cuts short raises
        :class:`~repro.errors.SimulationError` naming the budget, while a run
        whose events drain with operations unfinished reports the stall.
        """
        if stream.num_qubits > self.machine.num_qubits:
            raise SimulationError(
                f"workload uses {stream.num_qubits} logical qubits but the machine "
                f"has only {self.machine.num_qubits}"
            )
        engine = SimulationEngine(trace=trace)
        transport = create_transport(
            self.backend, engine, self.machine, allocator=self.allocator
        )
        control = ControlUnit(self.machine)
        control.reset()
        scheduler = InstructionScheduler(stream)
        records: List[OperationRecord] = []
        states: Dict[int, _OpState] = {}
        if trace is not None:
            trace.emit(
                machine_record(
                    self.machine,
                    workload=stream.name,
                    operations=scheduler.total_operations,
                )
            )

        def issue_ready() -> None:
            for op in scheduler.ready_operations():
                scheduler.mark_issued(op.index)
                state = _OpState(
                    op=op,
                    issue_us=engine.now,
                    communications=control.plan_operation(op),
                )
                states[op.index] = state
                if trace is not None:
                    trace.emit(
                        OperationIssued(
                            t_us=engine.now,
                            op_index=op.index,
                            qubit_a=op.qubit_a,
                            qubit_b=op.qubit_b,
                        )
                    )
                advance(state)

        def advance(state: _OpState) -> None:
            """Run the operation's phase machine: comms, gate, remaining comms."""
            if state.next_index < len(state.communications):
                planned = state.communications[state.next_index]
                state.next_index += 1
                if planned.is_local:
                    advance(state)
                    return
                control.issue_messages(planned)
                state.total_hops += planned.hops
                state.channel_count += 1
                transport.start(planned, lambda s=state: after_communication(s))
                return
            if not state.gate_done:
                state.gate_done = True
                engine.post(self.machine.logical_gate_us, lambda s=state: complete(s))
                return
            complete(state)

        def after_communication(state: _OpState) -> None:
            # The logical gate executes after the first communication brings
            # the operands together; any remaining communications (return
            # trips) happen after the gate.
            if not state.gate_done and state.next_index >= 1:
                state.gate_done = True
                engine.post(self.machine.logical_gate_us, lambda s=state: advance(s))
                return
            advance(state)

        def complete(state: _OpState) -> None:
            records.append(
                OperationRecord(
                    index=state.op.index,
                    qubit_a=state.op.qubit_a,
                    qubit_b=state.op.qubit_b,
                    issue_us=state.issue_us,
                    complete_us=engine.now,
                    channel_count=state.channel_count,
                    total_hops=state.total_hops,
                )
            )
            del states[state.op.index]
            if trace is not None:
                trace.emit(
                    OperationRetired(
                        t_us=engine.now,
                        op_index=state.op.index,
                        channel_count=state.channel_count,
                        total_hops=state.total_hops,
                    )
                )
            scheduler.mark_completed(state.op.index)
            issue_ready()

        issue_ready()
        engine.run(max_events=max_events)
        live_events = engine.pending_events - engine.cancelled_pending
        if live_events:
            raise SimulationError(
                f"simulation stopped at {engine.now:.6g} us by runtime.max_events="
                f"{max_events} with {scheduler.completed_count}/"
                f"{scheduler.total_operations} operations completed and "
                f"{live_events} events still pending"
            )
        if not scheduler.finished:
            raise SimulationError(
                f"simulation ended with {scheduler.completed_count}/"
                f"{scheduler.total_operations} operations completed"
            )
        makespan = engine.now
        if trace is not None:
            trace.emit(
                RunEnded(
                    t_us=makespan,
                    makespan_us=makespan,
                    operations=len(records),
                    channels=len(transport.records),
                )
            )
        return SimulationResult(
            workload_name=stream.name,
            machine_description=self.machine.describe(),
            makespan_us=makespan,
            operations=records,
            channels=transport.records,
            resource_utilisation=transport.utilisation_report(makespan),
            backend=transport.name,
            target_fidelity=(
                self.machine.params.threshold_fidelity
                if self.machine.track_fidelity
                else None
            ),
            metadata={
                "classical_messages": control.messages_issued,
                "logical_gate_us": self.machine.logical_gate_us,
                "allocation": self.machine.allocation.label,
                "layout": self.machine.layout_name,
            },
        )
