"""Structured simulation observability: typed records on a trace bus.

The trace subsystem is how the simulators expose *what happened* without
perturbing *how fast it happens*: producers guard every emission with one
``is not None`` test, so an untraced run pays effectively nothing, and a
traced run yields a deterministic stream of typed records that serializes to
canonical JSONL.  :mod:`repro.verify` builds differential verification and
golden-trace regression on top of exactly this stream.
"""

from .bus import Probe, TraceBus
from .records import (
    CANONICAL_KINDS,
    RECORD_TYPES,
    REQUEST_KINDS,
    ChannelClosed,
    ChannelFidelity,
    ChannelOpened,
    EprPairGenerated,
    EventDispatched,
    FlowRateChanged,
    OperationIssued,
    OperationRetired,
    PurificationMilestone,
    RequestAdmitted,
    RequestArrived,
    RequestCompleted,
    RequestDispatched,
    RequestDropped,
    RouteChosen,
    RunEnded,
    RunStarted,
    TeleportPerformed,
    TraceRecord,
    machine_record,
    record_from_payload,
)
from .serialize import (
    line_to_record,
    read_jsonl,
    record_to_line,
    records_to_lines,
    trace_fingerprint,
    write_jsonl,
)

__all__ = [
    "CANONICAL_KINDS",
    "RECORD_TYPES",
    "REQUEST_KINDS",
    "ChannelClosed",
    "ChannelFidelity",
    "ChannelOpened",
    "EprPairGenerated",
    "EventDispatched",
    "FlowRateChanged",
    "OperationIssued",
    "OperationRetired",
    "Probe",
    "PurificationMilestone",
    "RequestAdmitted",
    "RequestArrived",
    "RequestCompleted",
    "RequestDispatched",
    "RequestDropped",
    "RouteChosen",
    "RunEnded",
    "RunStarted",
    "TeleportPerformed",
    "TraceBus",
    "TraceRecord",
    "line_to_record",
    "machine_record",
    "read_jsonl",
    "record_from_payload",
    "record_to_line",
    "records_to_lines",
    "trace_fingerprint",
    "write_jsonl",
]
