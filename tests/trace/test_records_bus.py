"""Trace bus and typed record semantics."""

import pytest

from repro.errors import ConfigurationError
from repro.sim.machine import QuantumMachine
from repro.trace import (
    CANONICAL_KINDS,
    RECORD_TYPES,
    ChannelClosed,
    ChannelOpened,
    EventDispatched,
    FlowRateChanged,
    OperationIssued,
    OperationRetired,
    RunEnded,
    RunStarted,
    TraceBus,
    record_from_payload,
)
from repro.trace.records import machine_record


def _sample_records():
    return [
        RunStarted(
            t_us=0.0, machine="m", workload="w", width=3, height=3, topology="mesh",
            layout="home_base", allocation="t=g=2p (p=1)", num_qubits=6, operations=15,
        ),
        OperationIssued(t_us=0.0, op_index=0, qubit_a=1, qubit_b=2),
        ChannelOpened(t_us=0.0, flow_id=0, source=(1, 0), destination=(0, 0), hops=1,
                      purpose="visit"),
        FlowRateChanged(t_us=0.5, flow_id=0, rate=0.25),
        ChannelClosed(t_us=4.0, flow_id=0, source=(1, 0), destination=(0, 0), hops=1,
                      pairs_transited=392.0),
        OperationRetired(t_us=304.0, op_index=0, channel_count=2, total_hops=2),
        RunEnded(t_us=304.0, makespan_us=304.0, operations=1, channels=2),
    ]


class TestRecords:
    def test_every_kind_is_registered_and_distinct(self):
        kinds = [cls.kind for cls in RECORD_TYPES.values()]
        assert len(kinds) == len(set(kinds))
        assert CANONICAL_KINDS < set(RECORD_TYPES)

    def test_payload_round_trip(self):
        for record in _sample_records():
            payload = record.to_payload()
            assert payload["kind"] == record.kind
            assert record_from_payload(payload) == record

    def test_tuples_survive_payload_round_trip(self):
        record = ChannelOpened(
            t_us=1.0, flow_id=3, source=(2, 5), destination=(0, 1), hops=6, purpose="visit"
        )
        rebuilt = record_from_payload(record.to_payload())
        assert rebuilt.source == (2, 5)
        assert isinstance(rebuilt.source, tuple)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            record_from_payload({"kind": "nope", "t_us": 0.0})

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigurationError):
            record_from_payload({"kind": "op_issue", "t_us": 0.0, "bogus": 1})

    def test_missing_field_rejected(self):
        with pytest.raises(ConfigurationError):
            record_from_payload({"kind": "op_issue", "t_us": 0.0})

    def test_machine_snapshot_is_run_header(self):
        machine = QuantumMachine(3, num_qubits=6)
        header = machine_record(machine, workload="qft_6", operations=15)
        assert isinstance(header, RunStarted)
        assert header.width == header.height == 3
        assert header.workload == "qft_6"
        assert header.operations == 15
        assert header.machine == machine.describe()


class TestTraceBus:
    def test_collects_in_emission_order(self):
        bus = TraceBus()
        records = _sample_records()
        for record in records:
            bus.emit(record)
        assert bus.records == records
        assert len(bus) == len(records)

    def test_kind_filter_drops_unwanted(self):
        bus = TraceBus(kinds=CANONICAL_KINDS)
        for record in _sample_records():
            bus.emit(record)
        assert all(record.kind in CANONICAL_KINDS for record in bus.records)
        assert not any(record.kind == FlowRateChanged.kind for record in bus.records)
        assert not bus.wants(EventDispatched.kind)
        assert bus.wants(RunStarted.kind)

    def test_canonical_constructor_matches_kind_set(self):
        bus = TraceBus.canonical()
        assert {kind for kind in RECORD_TYPES if bus.wants(kind)} == set(CANONICAL_KINDS)

    def test_unknown_kind_filter_rejected(self):
        with pytest.raises(ConfigurationError):
            TraceBus(kinds=["bogus"])
        bus = TraceBus()
        with pytest.raises(ConfigurationError):
            bus.filtered(["bogus"])

    def test_probes_fan_out_with_kind_subscription(self):
        bus = TraceBus()
        all_seen, op_seen = [], []
        bus.subscribe(all_seen.append)
        bus.subscribe(op_seen.append, kinds=[OperationIssued.kind])
        for record in _sample_records():
            bus.emit(record)
        assert len(all_seen) == len(_sample_records())
        assert [record.kind for record in op_seen] == [OperationIssued.kind]

    def test_keep_records_off_still_runs_probes(self):
        bus = TraceBus(keep_records=False)
        seen = []
        bus.subscribe(seen.append)
        bus.emit(_sample_records()[0])
        assert not bus.records
        assert len(seen) == 1

    def test_filtered_view_and_clear(self):
        bus = TraceBus()
        for record in _sample_records():
            bus.emit(record)
        assert len(bus.filtered([ChannelOpened.kind, ChannelClosed.kind])) == 2
        bus.clear()
        assert not bus.records

    def test_non_callable_probe_rejected(self):
        with pytest.raises(ConfigurationError):
            TraceBus().subscribe("not-a-probe")
