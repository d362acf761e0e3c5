"""Typed trace records emitted on the simulation trace bus.

Every observable milestone of a simulation — an event dispatch, a flow rate
change, a channel opening or closing, an EPR pair leaving a generator, a
purification round producing a good pair, an operation issuing or retiring —
is a frozen dataclass with a stable ``kind`` tag.  Records serialize to flat
JSON-safe payloads (:meth:`TraceRecord.to_payload`) and back
(:func:`record_from_payload`), and the round trip is exact: floats survive
bitwise because JSON's shortest-repr encoding round-trips Python floats.

The ``CANONICAL_KINDS`` subset is the compact, allocator-invariant event
stream the golden fixtures pin: run header/footer, operation issue/retire and
channel open/close.  High-volume kinds (per-event dispatch, per-pair
generation, rate changes) are traceable but excluded from goldens so fixtures
stay small and stable under performance refactors that preserve the physics.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, ClassVar, Dict, Optional, Tuple, Type

from ..errors import ConfigurationError

#: Payload key under which a record's kind tag travels.
KIND_KEY = "kind"


@dataclass(frozen=True)
class TraceRecord:
    """Base class: a timestamped, typed simulation milestone."""

    kind: ClassVar[str] = "record"

    t_us: float

    def to_payload(self) -> Dict[str, Any]:
        """Flat JSON-safe dict, ``kind`` first, fields in declaration order."""
        payload: Dict[str, Any] = {KIND_KEY: self.kind}
        for spec in fields(self):
            value = getattr(self, spec.name)
            if isinstance(value, tuple):
                value = list(value)
            payload[spec.name] = value
        return payload


@dataclass(frozen=True)
class RunStarted(TraceRecord):
    """Header: the machine and workload a trace belongs to."""

    kind: ClassVar[str] = "run_start"

    machine: str
    workload: str
    width: int
    height: int
    topology: str
    layout: str
    allocation: str
    num_qubits: int
    operations: int


@dataclass(frozen=True)
class RunEnded(TraceRecord):
    """Footer: the headline result of the run."""

    kind: ClassVar[str] = "run_end"

    makespan_us: float
    operations: int
    channels: int


@dataclass(frozen=True)
class EventDispatched(TraceRecord):
    """One engine event executed (high volume; excluded from goldens)."""

    kind: ClassVar[str] = "event"

    sequence: int
    priority: int


@dataclass(frozen=True)
class OperationIssued(TraceRecord):
    """A two-qubit operation left the scheduler."""

    kind: ClassVar[str] = "op_issue"

    op_index: int
    qubit_a: int
    qubit_b: int


@dataclass(frozen=True)
class OperationRetired(TraceRecord):
    """A two-qubit operation completed (gate done, all channels serviced)."""

    kind: ClassVar[str] = "op_retire"

    op_index: int
    channel_count: int
    total_hops: int


@dataclass(frozen=True)
class ChannelOpened(TraceRecord):
    """A long-distance channel entered service on the transport backend."""

    kind: ClassVar[str] = "channel_open"

    flow_id: int
    source: Tuple[int, int]
    destination: Tuple[int, int]
    hops: int
    purpose: str


@dataclass(frozen=True)
class ChannelClosed(TraceRecord):
    """A channel finished: every pair transited and the data qubit arrived."""

    kind: ClassVar[str] = "channel_close"

    flow_id: int
    source: Tuple[int, int]
    destination: Tuple[int, int]
    hops: int
    pairs_transited: float


@dataclass(frozen=True)
class ChannelFidelity(TraceRecord):
    """Delivered EPR fidelity of one closed channel (noise-tracked runs only).

    Emitted immediately after :class:`ChannelClosed` when the machine carries
    a noise model: the purification level selected at channel-open time
    against the fault-tolerance threshold, the endpoint arrival fidelity and
    the fidelity actually delivered — analytical Werner algebra on the fluid
    backend, per-pair purification outcomes on the detailed backend.
    """

    kind: ClassVar[str] = "fidelity"

    flow_id: int
    hops: int
    purification_level: int
    arrival_fidelity: float
    delivered_fidelity: float
    target_fidelity: float
    meets_target: bool


@dataclass(frozen=True)
class RequestArrived(TraceRecord):
    """An open-loop service request entered the system (service mode only).

    One record per request the traffic generator offers, admitted or not:
    the offered-load side of every steady-state metric.
    """

    kind: ClassVar[str] = "req_arrive"

    request_id: int
    tenant: str
    channels: int
    source: Tuple[int, int]
    destination: Tuple[int, int]


@dataclass(frozen=True)
class RequestAdmitted(TraceRecord):
    """The admission controller accepted a request into the service queue."""

    kind: ClassVar[str] = "req_admit"

    request_id: int
    tenant: str
    queue_depth: int


@dataclass(frozen=True)
class RequestDropped(TraceRecord):
    """The admission controller rejected a request (it is never serviced)."""

    kind: ClassVar[str] = "req_drop"

    request_id: int
    tenant: str
    reason: str


@dataclass(frozen=True)
class RequestDispatched(TraceRecord):
    """A queued request left the scheduler and started on the transport."""

    kind: ClassVar[str] = "req_dispatch"

    request_id: int
    tenant: str
    waited_us: float
    queue_depth: int


@dataclass(frozen=True)
class RequestCompleted(TraceRecord):
    """Every channel of a service request finished transiting."""

    kind: ClassVar[str] = "req_complete"

    request_id: int
    tenant: str
    channels: int
    waited_us: float
    service_us: float


@dataclass(frozen=True)
class RouteChosen(TraceRecord):
    """A load balancer picked a candidate path at channel open.

    Emitted only when a ``network.routing`` policy is configured, immediately
    before :class:`ChannelOpened` — so scenarios without the section keep
    byte-identical goldens, the same presence contract as ``fidelity`` and
    the request lifecycle.  ``path`` is the chosen candidate's
    :attr:`~repro.network.routing.Path.stable_name` (payloads stay flat;
    nested coordinate tuples would not survive the JSONL round trip), and
    ``candidates`` counts the fabric's full enumeration for the pair.
    """

    kind: ClassVar[str] = "route"

    flow_id: int
    policy: str
    path: str
    candidates: int


@dataclass(frozen=True)
class FlowRateChanged(TraceRecord):
    """An instant's publish of max-min rates changed one flow's service rate."""

    kind: ClassVar[str] = "flow_rate"

    flow_id: int
    rate: float


@dataclass(frozen=True)
class EprPairGenerated(TraceRecord):
    """A G node finished producing one raw link pair (detailed backend)."""

    kind: ClassVar[str] = "epr_generated"

    link: str
    produced: int


@dataclass(frozen=True)
class PurificationMilestone(TraceRecord):
    """An endpoint queue purifier emitted one above-threshold pair."""

    kind: ClassVar[str] = "purified"

    purifier: str
    good_pairs: int
    rounds_executed: int


@dataclass(frozen=True)
class TeleportPerformed(TraceRecord):
    """A T' node serviced one chained-teleportation swap (detailed backend)."""

    kind: ClassVar[str] = "teleport"

    node: Tuple[int, int]
    dimension: str
    turn: bool


#: kind tag -> record class, for deserialization.
RECORD_TYPES: Dict[str, Type[TraceRecord]] = {
    cls.kind: cls
    for cls in (
        RunStarted,
        RunEnded,
        EventDispatched,
        OperationIssued,
        OperationRetired,
        ChannelOpened,
        ChannelClosed,
        ChannelFidelity,
        RequestArrived,
        RequestAdmitted,
        RequestDropped,
        RequestDispatched,
        RequestCompleted,
        RouteChosen,
        FlowRateChanged,
        EprPairGenerated,
        PurificationMilestone,
        TeleportPerformed,
    )
}

#: Request-lifecycle kinds emitted only by the open-loop service mode.
REQUEST_KINDS = frozenset(
    {
        RequestArrived.kind,
        RequestAdmitted.kind,
        RequestDropped.kind,
        RequestDispatched.kind,
        RequestCompleted.kind,
    }
)

#: The compact allocator-invariant stream pinned by golden fixtures.
#: ``fidelity`` records only exist on noise-tracked runs and the request
#: lifecycle only on service-mode runs, so fixtures of scenarios without a
#: ``noise``/``traffic`` section are byte-identical to before those
#: pipelines existed.
CANONICAL_KINDS = (
    frozenset(
        {
            RunStarted.kind,
            RunEnded.kind,
            OperationIssued.kind,
            OperationRetired.kind,
            ChannelOpened.kind,
            ChannelClosed.kind,
            ChannelFidelity.kind,
            RouteChosen.kind,
        }
    )
    | REQUEST_KINDS
)


def record_from_payload(payload: Dict[str, Any]) -> TraceRecord:
    """Rebuild a typed record from its :meth:`TraceRecord.to_payload` dict."""
    if not isinstance(payload, dict) or KIND_KEY not in payload:
        raise ConfigurationError(f"trace payload needs a {KIND_KEY!r} tag, got {payload!r}")
    kind = payload[KIND_KEY]
    cls = RECORD_TYPES.get(kind)
    if cls is None:
        raise ConfigurationError(
            f"unknown trace record kind {kind!r}; known: {sorted(RECORD_TYPES)}"
        )
    kwargs: Dict[str, Any] = {}
    known = {spec.name: spec for spec in fields(cls)}
    for key, value in payload.items():
        if key == KIND_KEY:
            continue
        if key not in known:
            raise ConfigurationError(f"trace record {kind!r} has no field {key!r}")
        annotation = known[key].type
        if isinstance(value, list) and "Tuple" in str(annotation):
            value = tuple(value)
        kwargs[key] = value
    missing = sorted(set(known) - set(kwargs))
    if missing:
        raise ConfigurationError(f"trace record {kind!r} payload is missing fields {missing}")
    return cls(**kwargs)


def machine_record(
    machine: Any,
    *,
    workload: str,
    operations: int,
    t_us: float = 0.0,
    num_qubits: Optional[int] = None,
) -> RunStarted:
    """The :class:`RunStarted` header for a run on ``machine``.

    Lives here (rather than on :class:`~repro.sim.machine.QuantumMachine`) so
    the machine module does not import the trace package.  Every trace opens
    with it, so a golden fixture is self-describing: a diff against a fixture
    recorded on a different machine or workload fails on line one instead of
    deep in the event stream.
    """
    return RunStarted(
        t_us=t_us,
        machine=machine.describe(),
        workload=workload,
        width=machine.topology.width,
        height=machine.topology.height,
        topology=machine.topology_kind,
        layout=machine.layout_name,
        allocation=machine.allocation.label,
        num_qubits=num_qubits if num_qubits is not None else machine.num_qubits,
        operations=operations,
    )
