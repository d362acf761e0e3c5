"""JSONL serialization and end-to-end traced simulation runs."""

import pytest

from repro.errors import ConfigurationError
from repro.network.geometry import Coordinate
from repro.network.layout import CommRequest
from repro.scenarios import build_machine, build_stream, get_scenario
from repro.sim.control import PlannedCommunication
from repro.sim.detailed import DetailedTransport
from repro.sim.engine import SimulationEngine
from repro.sim.flow import ALLOCATORS
from repro.sim.machine import QuantumMachine
from repro.sim.simulator import CommunicationSimulator
from repro.trace import (
    CANONICAL_KINDS,
    ChannelClosed,
    ChannelOpened,
    EprPairGenerated,
    EventDispatched,
    FlowRateChanged,
    OperationIssued,
    OperationRetired,
    PurificationMilestone,
    RunEnded,
    RunStarted,
    TeleportPerformed,
    TraceBus,
    line_to_record,
    read_jsonl,
    record_to_line,
    trace_fingerprint,
    write_jsonl,
)


def _traced_smoke(allocator="incremental", kinds=None):
    spec = get_scenario("smoke")
    bus = TraceBus(kinds=kinds)
    result = CommunicationSimulator(build_machine(spec), allocator=allocator).run(
        build_stream(spec), trace=bus
    )
    return bus, result


class TestSerialization:
    def test_line_round_trip_is_exact(self):
        bus, _ = _traced_smoke()
        assert bus.records
        for record in bus.records:
            assert line_to_record(record_to_line(record)) == record

    def test_file_round_trip(self, tmp_path):
        bus, _ = _traced_smoke(kinds=CANONICAL_KINDS)
        path = str(tmp_path / "nested" / "smoke.jsonl")
        write_jsonl(path, bus.records)
        assert read_jsonl(path) == bus.records

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigurationError):
            line_to_record("{not json")

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            read_jsonl(str(tmp_path / "absent.jsonl"))

    def test_fingerprint_distinguishes_traces(self):
        bus, _ = _traced_smoke(kinds=CANONICAL_KINDS)
        assert trace_fingerprint(bus.records) != trace_fingerprint(bus.records[:-1])


class TestTracedFlowRuns:
    def test_untraced_run_unchanged(self):
        spec = get_scenario("smoke")
        plain = CommunicationSimulator(build_machine(spec)).run(build_stream(spec))
        bus, traced = _traced_smoke()
        assert traced.makespan_us == plain.makespan_us

    def test_run_brackets_and_op_channel_counts(self):
        bus, result = _traced_smoke()
        assert isinstance(bus.records[0], RunStarted)
        assert isinstance(bus.records[-1], RunEnded)
        assert bus.records[-1].makespan_us == result.makespan_us
        issues = bus.filtered([OperationIssued.kind])
        retires = bus.filtered([OperationRetired.kind])
        assert len(issues) == len(retires) == result.operation_count
        opens = bus.filtered([ChannelOpened.kind])
        closes = bus.filtered([ChannelClosed.kind])
        assert len(opens) == len(closes) == result.channel_count

    def test_channel_records_match_trace_timeline(self):
        bus, result = _traced_smoke()
        closes = bus.filtered([ChannelClosed.kind])
        assert [c.end_us for c in result.channels] == [r.t_us for r in closes]
        assert [c.hops for c in result.channels] == [r.hops for r in closes]

    def test_rate_changes_traced(self):
        bus, _ = _traced_smoke()
        rates = bus.filtered([FlowRateChanged.kind])
        assert rates
        assert all(rate.rate >= 0.0 for rate in rates)

    def test_event_dispatch_traced_when_wanted(self):
        bus, _ = _traced_smoke(kinds=[EventDispatched.kind])
        assert bus.records
        assert all(isinstance(record, EventDispatched) for record in bus.records)

    def test_identical_traces_across_allocators(self):
        # Every allocator keeps one chained completion event, so the whole
        # trace, EventDispatched records and their heap sequence numbers
        # included, is identical (records compare exactly, floats bitwise).
        traces = {allocator: _traced_smoke(allocator)[0].records for allocator in ALLOCATORS}
        assert any(isinstance(record, EventDispatched) for record in traces["incremental"])
        assert traces["reference"] == traces["incremental"]
        assert traces["vectorized"] == traces["incremental"]


class TestTracedDetailedRuns:
    def test_detailed_components_emit_milestones(self):
        machine = QuantumMachine(5, num_qubits=10)
        source, dest = Coordinate(0, 0), Coordinate(3, 2)
        plan = machine.planner.plan(source, dest)
        bus = TraceBus()
        engine = SimulationEngine(trace=bus)
        transport = DetailedTransport(engine, machine)
        request = CommRequest(source=source, dest=dest, qubit=1)
        transport.start(PlannedCommunication(request=request, plan=plan), lambda: None)
        engine.run()
        raw = transport.records[0].pairs_transited
        good = machine.good_pairs_per_logical_communication()
        generated = bus.filtered([EprPairGenerated.kind])
        purified = bus.filtered([PurificationMilestone.kind])
        teleports = bus.filtered([TeleportPerformed.kind])
        assert len(generated) >= raw
        # Both endpoints purify, and both endpoint routers teleport the data.
        assert len(purified) == 2 * good
        assert len(teleports) == raw * (plan.hops - 1) + 2 * good
        assert purified[-1].good_pairs == good
