"""End-to-end integration tests crossing all package layers."""

import pytest

import repro
from repro import (
    CommunicationSimulator,
    Coordinate,
    IonTrapParameters,
    QuantumChannel,
    QuantumMachine,
    ResourceAllocation,
    qft_stream,
    shor_stream,
)
from repro.core.logical import STEANE_LEVEL_1
from repro.core.metrics import evaluate_channel_metrics
from repro.core.planner import ChannelPlanner
from repro.network.layout import CommRequest
from repro.network.topology import square_mesh
from repro.sim.control import PlannedCommunication
from repro.sim.detailed import DetailedTransport
from repro.sim.engine import SimulationEngine


class TestPublicAPI:
    def test_version_and_exports(self):
        assert repro.__version__
        for name in repro.__all__:
            assert hasattr(repro, name), f"missing export {name}"

    def test_quickstart_snippet_from_readme(self):
        channel = QuantumChannel(hops=30, params=IonTrapParameters.default())
        report = channel.build()
        assert report.feasible
        assert "QuantumChannel" in report.describe()


class TestChannelToSimulatorConsistency:
    """The analytical channel model and the simulators must agree."""

    def test_planner_budget_matches_channel_budget(self):
        params = IonTrapParameters.default()
        planner = ChannelPlanner(square_mesh(16), params)
        plan = planner.plan(Coordinate(0, 0), Coordinate(15, 15))
        channel = QuantumChannel(plan.hops, params).build()
        assert plan.budget.endpoint_rounds == channel.budget.endpoint_rounds
        assert plan.budget.pairs_teleported == pytest.approx(channel.budget.pairs_teleported)

    def test_detailed_setup_consistent_with_budget_accounting(self):
        machine = QuantumMachine(8, allocation=ResourceAllocation(4, 4, 4), encoding=STEANE_LEVEL_1)
        engine = SimulationEngine()
        transport = DetailedTransport(engine, machine)
        source, dest = Coordinate(0, 0), Coordinate(3, 3)
        plan = machine.planner.plan(source, dest)
        request = CommRequest(source=source, dest=dest, qubit=1)
        transport.start(PlannedCommunication(request=request, plan=plan), lambda: None)
        engine.run()
        # The detailed simulation consumes exactly 2^rounds raw pairs per good
        # pair (7 of them for a Steane-encoded operand), the idealised version
        # of the budget's expected-yield figure.
        ideal = 7 * 2 ** plan.budget.endpoint_rounds
        assert transport.records[0].pairs_transited == ideal
        assert plan.budget.endpoint_pairs * 7 >= ideal

    def test_flow_simulation_runtime_bounded_by_channel_latency(self):
        machine = QuantumMachine(4, allocation=ResourceAllocation.uniform(1024))
        stream = qft_stream(16)
        result = CommunicationSimulator(machine).run(stream)
        single_floor = machine.channel_setup_floor_us(1)
        # The makespan must at least cover the critical path of operations.
        assert result.makespan_us > stream.critical_path_length() * single_floor / 4

    def test_channel_metrics_report(self):
        report = QuantumChannel(12).build()
        metrics = evaluate_channel_metrics(report)
        assert metrics.epr_pair_count == pytest.approx(report.pairs_per_logical_communication)


class TestWorkloadsOnMachines:
    def test_shor_kernels_run_on_small_machine(self):
        machine = QuantumMachine(4, allocation=ResourceAllocation.uniform(8))
        result = CommunicationSimulator(machine).run(shor_stream(8))
        assert result.operation_count == len(shor_stream(8))
        assert result.makespan_us > 0

    def test_qft_scaling_with_machine_size(self):
        small = CommunicationSimulator(
            QuantumMachine(3, allocation=ResourceAllocation.uniform(4))
        ).run(qft_stream(9))
        large = CommunicationSimulator(
            QuantumMachine(5, allocation=ResourceAllocation.uniform(4))
        ).run(qft_stream(25))
        assert large.makespan_us > small.makespan_us

    def test_results_are_deterministic(self):
        machine = QuantumMachine(4, allocation=ResourceAllocation.uniform(4))
        stream = qft_stream(16)
        first = CommunicationSimulator(machine).run(stream)
        second = CommunicationSimulator(machine).run(stream)
        assert first.makespan_us == pytest.approx(second.makespan_us)
        assert first.total_pairs_transited() == pytest.approx(second.total_pairs_transited())
