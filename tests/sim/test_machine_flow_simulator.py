"""Tests for the machine model, flow transport and the top-level simulator."""

import pytest

from repro.core.placement import virtual_wire
from repro.errors import SimulationError
from repro.network.nodes import ResourceAllocation
from repro.scenarios.catalog import get_scenario, list_scenarios
from repro.scenarios.run import run
from repro.scenarios.spec import apply_overrides
from repro.sim.flow import ALLOCATORS
from repro.sim.machine import QuantumMachine
from repro.sim.simulator import CommunicationSimulator
from repro.workloads.instructions import InstructionStream
from repro.workloads.qft import qft_stream
from repro.workloads.synthetic import nearest_neighbour_stream


def make_stream(pairs, num_qubits=16):
    return InstructionStream.from_pairs("test", num_qubits, pairs)


class TestQuantumMachine:
    def test_16x16_machine_dimensions(self):
        machine = QuantumMachine(16)
        assert machine.topology.node_count == 256
        assert machine.num_qubits == 256

    def test_bandwidths_follow_allocation(self):
        machine = QuantumMachine(4, allocation=ResourceAllocation(8, 6, 5))
        assert machine.teleporter_bandwidth_per_direction() == pytest.approx(4.0)
        assert machine.generator_bandwidth_per_link() == pytest.approx(6.0)
        assert machine.purifier_bandwidth_per_node() == pytest.approx(5.0)

    def test_pairs_per_logical_communication_uses_budget(self):
        machine = QuantumMachine(8)
        assert 392 <= machine.pairs_per_logical_communication(10) <= 480
        assert machine.good_pairs_per_logical_communication() == 49

    def test_purifier_rounds_per_good_pair(self):
        machine = QuantumMachine(8)
        assert machine.purifier_rounds_per_good_pair(10) == pytest.approx(7.0)

    def test_placement_respected(self):
        machine = QuantumMachine(4, placement=virtual_wire(1))
        assert machine.planner.placement.virtual_wire_rounds == 1

    def test_describe_names_size_and_allocation(self):
        machine = QuantumMachine(4, allocation=ResourceAllocation.uniform(2))
        assert "4x4" in machine.describe()
        assert "t=g=p=2" in machine.describe()

    def test_rejects_negative_gate_time(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            QuantumMachine(4, logical_gate_us=-1.0)


class TestSimulatorBasics:
    def test_single_operation_runtime_has_floor(self):
        machine = QuantumMachine(4, allocation=ResourceAllocation.uniform(1024))
        result = CommunicationSimulator(machine).run(make_stream([(1, 16)]))
        # Visit + gate + return: at least two channel floors plus the gate.
        floor = machine.channel_setup_floor_us(6)
        assert result.makespan_us >= 2 * floor + machine.logical_gate_us
        assert result.operation_count == 1
        assert result.channel_count == 2

    def test_independent_ops_overlap(self):
        machine = QuantumMachine(4, allocation=ResourceAllocation.uniform(1024))
        serial = CommunicationSimulator(machine).run(make_stream([(1, 16)]))
        parallel = CommunicationSimulator(machine).run(make_stream([(1, 16), (2, 15)]))
        # Two independent operations on an uncontended machine take barely
        # longer than one.
        assert parallel.makespan_us < 1.5 * serial.makespan_us

    def test_dependent_ops_serialise(self):
        machine = QuantumMachine(4, allocation=ResourceAllocation.uniform(1024))
        single = CommunicationSimulator(machine).run(make_stream([(1, 16)]))
        chained = CommunicationSimulator(machine).run(make_stream([(1, 16), (16, 2)]))
        assert chained.makespan_us > 1.7 * single.makespan_us

    def test_scarce_resources_slow_execution(self):
        rich = QuantumMachine(4, allocation=ResourceAllocation.uniform(256))
        poor = QuantumMachine(4, allocation=ResourceAllocation.uniform(1))
        stream = qft_stream(16)
        rich_result = CommunicationSimulator(rich).run(stream)
        poor_result = CommunicationSimulator(poor).run(stream)
        assert poor_result.makespan_us > 2 * rich_result.makespan_us

    def test_mobile_layout_faster_than_home_base_for_qft(self):
        stream = qft_stream(16)
        home = CommunicationSimulator(
            QuantumMachine(4, layout="home_base", allocation=ResourceAllocation.uniform(4))
        ).run(stream)
        mobile = CommunicationSimulator(
            QuantumMachine(4, layout="mobile_qubit", allocation=ResourceAllocation.uniform(4))
        ).run(stream)
        assert mobile.makespan_us < home.makespan_us
        assert mobile.average_channel_hops() < home.average_channel_hops()

    def test_all_operations_recorded(self):
        machine = QuantumMachine(4, allocation=ResourceAllocation.uniform(8))
        stream = qft_stream(16)
        result = CommunicationSimulator(machine).run(stream)
        assert result.operation_count == len(stream)
        assert {op.index for op in result.operations} == {op.index for op in stream}

    def test_channel_records_have_consistent_times(self):
        machine = QuantumMachine(4, allocation=ResourceAllocation.uniform(8))
        result = CommunicationSimulator(machine).run(nearest_neighbour_stream(16, rounds=1))
        for channel in result.channels:
            assert channel.end_us >= channel.start_us
            assert channel.end_us <= result.makespan_us
            assert channel.pairs_transited > 0

    def test_utilisation_reported_for_all_resource_kinds(self):
        machine = QuantumMachine(4, allocation=ResourceAllocation.uniform(2))
        result = CommunicationSimulator(machine).run(qft_stream(16))
        assert {"generator", "purifier", "teleporter_x", "teleporter_y"} <= set(
            result.resource_utilisation
        )
        assert all(0.0 <= v <= 1.0 for v in result.resource_utilisation.values())

    def test_workload_larger_than_machine_rejected(self):
        machine = QuantumMachine(2)
        with pytest.raises(SimulationError):
            CommunicationSimulator(machine).run(qft_stream(16))

    def test_result_normalisation(self):
        machine = QuantumMachine(4, allocation=ResourceAllocation.uniform(1))
        baseline_machine = QuantumMachine(4, allocation=ResourceAllocation.uniform(1024))
        stream = qft_stream(16)
        result = CommunicationSimulator(machine).run(stream)
        baseline = CommunicationSimulator(baseline_machine).run(stream)
        assert result.makespan_us > baseline.makespan_us

    def test_describe_contains_makespan(self):
        machine = QuantumMachine(4, allocation=ResourceAllocation.uniform(8))
        result = CommunicationSimulator(machine).run(make_stream([(1, 4)]))
        assert "makespan" in result.describe()


class TestFigure16Behaviour:
    """The key contention findings behind Figure 16, at reduced scale."""

    def test_purifier_utilisation_higher_for_mobile(self):
        stream = qft_stream(16)
        allocation = ResourceAllocation(8, 8, 1)
        home = CommunicationSimulator(QuantumMachine(4, allocation=allocation, layout="home_base")).run(stream)
        mobile = CommunicationSimulator(QuantumMachine(4, allocation=allocation, layout="mobile_qubit")).run(stream)
        home_ratio = home.resource_utilisation["purifier"] / max(
            home.resource_utilisation["teleporter_x"], 1e-9
        )
        mobile_ratio = mobile.resource_utilisation["purifier"] / max(
            mobile.resource_utilisation["teleporter_x"], 1e-9
        )
        assert mobile_ratio > home_ratio


class TestCompletionEpsilonUnification:
    """Regression for the completion-epsilon split.

    Completion scheduling used to test residual work against the far
    tighter ``_SATURATION_EPS`` (1e-12) while ``_complete`` accepted at
    ``_COMPLETION_EPS`` (1e-9).  A flow whose residue landed strictly between
    the two scheduled an immediate completion event whose handler then
    no-op'd, leaving the channel stalled forever.  Both sides now share
    ``_COMPLETION_EPS``; this pins that a gap-residue flow really completes
    under every allocator.
    """

    @pytest.mark.parametrize("allocator", ALLOCATORS)
    def test_residue_in_epsilon_gap_still_completes(self, allocator):
        from repro.network.geometry import Coordinate
        from repro.network.layout import CommRequest
        from repro.sim.control import PlannedCommunication
        from repro.sim.engine import SimulationEngine
        from repro.sim.flow import _COMPLETION_EPS, _SATURATION_EPS, FlowTransport

        machine = QuantumMachine(4)
        engine = SimulationEngine()
        transport = FlowTransport(engine, machine, allocator=allocator)
        source, dest = Coordinate(0, 0), Coordinate(3, 3)
        planned = PlannedCommunication(
            request=CommRequest(source=source, dest=dest, qubit=0),
            plan=machine.planner.plan(source, dest),
        )
        completed = []
        transport.start(planned, lambda: completed.append(True))
        assert transport.active_flows == 1
        # Advance the flow's work into the gap between the two epsilons.
        (flow_id,) = transport._flows
        plane = transport._plane
        plane.advance((1.0 - 5e-10) / plane.rate_of(flow_id))
        assert _SATURATION_EPS < plane.remaining_of(flow_id) <= _COMPLETION_EPS
        transport._reallocate()
        for _ in range(64):
            if not engine.step():
                break
        assert completed == [True]
        assert transport.active_flows == 0


@pytest.mark.parametrize("name", list_scenarios())
def test_reference_utilisation_equals_incremental_bitwise(name):
    """Both dict allocators keep the per-kind rate sums by per-change deltas,
    so their utilisation agrees bit for bit, key order included."""
    shares = {}
    for allocator in ("incremental", "reference"):
        result = run(apply_overrides(get_scenario(name).to_dict(), {"runtime.allocator": allocator}))
        utilisation = (result.batch or result.service).utilisation
        shares[allocator] = [(kind, share.hex()) for kind, share in utilisation.items()]
    assert shares["incremental"]
    assert shares["reference"] == shares["incremental"]


class TestLongClock:
    """A flow finishing on a long clock must not be taken for a stale one.

    At a large ``engine.now`` the finish time ``now + remaining / rate``
    rounds, so about ``rate * ulp(now)`` of work is left when the completion
    event fires — far above ``_COMPLETION_EPS`` once the clock passes about
    1e11 us.  The handler used to treat that flow as slowed down and wait for
    a reallocation that never came, ending the run short of its operations.
    """

    @pytest.mark.parametrize("allocator", ALLOCATORS)
    def test_all_operations_complete(self, allocator):
        for scenario in ("smoke", "ring_qft", "paper_mobile"):
            spec = apply_overrides(
                get_scenario(scenario).to_dict(), {"runtime.allocator": allocator}
            )
            operations = run(spec).batch.operations
            for clock in (1e11, 1e12, 1e13):
                # A run that loses a completion raises SimulationError here.
                result = run(apply_overrides(spec, {"physics.logical_gate_us": clock}))
                assert result.batch.operations == operations
                assert result.makespan_us > clock


class TestOneSolvePerFlowSetChange:
    """Rates are a pure function of the live flow set, so the transport
    solves once per change to it.  A completion whose callback starts the
    next flow leaves the solve to ``start`` instead of solving the same set
    again at the end of ``_complete``."""

    SOLVES = {"smoke": 49, "service_smoke": 17, "paper_baseline": 381}

    @pytest.mark.parametrize("allocator", ALLOCATORS)
    @pytest.mark.parametrize("scenario", sorted(SOLVES))
    def test_no_two_consecutive_solves_see_the_same_flows(self, monkeypatch, scenario, allocator):
        from repro.scenarios.catalog import get_scenario
        from repro.scenarios.run import run
        from repro.scenarios.spec import apply_overrides
        from repro.sim.flow import FlowTransport

        solved = []
        reallocate = FlowTransport._reallocate

        def recording(transport):
            solved.append(frozenset(transport._flows))
            reallocate(transport)

        monkeypatch.setattr(FlowTransport, "_reallocate", recording)
        run(apply_overrides(get_scenario(scenario).to_dict(), {"runtime.allocator": allocator}))
        repeats = [i for i in range(1, len(solved)) if solved[i] == solved[i - 1]]
        assert repeats == []
        assert len(solved) == self.SOLVES[scenario]
