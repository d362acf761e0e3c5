"""Tests for the instruction scheduler and the classical control unit."""

import pytest

from repro.errors import SchedulingError
from repro.network.layout import CommRequest
from repro.scenarios import build_machine, get_scenario, list_scenarios, run
from repro.sim.control import ControlUnit, PlannedCommunication
from repro.sim.machine import QuantumMachine
from repro.sim.scheduler import InstructionScheduler
from repro.workloads.instructions import InstructionStream
from repro.workloads.qft import qft_stream


def make_stream(pairs, num_qubits=8):
    return InstructionStream.from_pairs("test", num_qubits, pairs)


class TestScheduler:
    def test_initially_ready_ops_have_no_dependencies(self):
        scheduler = InstructionScheduler(make_stream([(1, 2), (3, 4), (2, 3)]))
        ready = [op.qubits for op in scheduler.ready_operations()]
        assert ready == [(1, 2), (3, 4)]

    def test_completion_unblocks_dependents(self):
        scheduler = InstructionScheduler(make_stream([(1, 2), (2, 3)]))
        scheduler.mark_issued(0)
        newly = scheduler.mark_completed(0)
        assert [op.index for op in newly] == [1]

    def test_dependent_needs_all_predecessors(self):
        scheduler = InstructionScheduler(make_stream([(1, 2), (3, 4), (2, 3)]))
        scheduler.mark_issued(0)
        scheduler.mark_issued(1)
        assert scheduler.mark_completed(0) == []
        newly = scheduler.mark_completed(1)
        assert [op.index for op in newly] == [2]

    def test_finished_after_all_completions(self):
        scheduler = InstructionScheduler(make_stream([(1, 2), (2, 3)]))
        for index in (0, 1):
            for op in scheduler.ready_operations():
                scheduler.mark_issued(op.index)
            scheduler.mark_completed(index)
        assert scheduler.finished

    def test_cannot_issue_unready_op(self):
        scheduler = InstructionScheduler(make_stream([(1, 2), (2, 3)]))
        with pytest.raises(SchedulingError):
            scheduler.mark_issued(1)

    def test_cannot_complete_unissued_op(self):
        scheduler = InstructionScheduler(make_stream([(1, 2)]))
        with pytest.raises(SchedulingError):
            scheduler.mark_completed(0)

    def test_cannot_complete_twice(self):
        scheduler = InstructionScheduler(make_stream([(1, 2)]))
        scheduler.mark_issued(0)
        scheduler.mark_completed(0)
        with pytest.raises(SchedulingError):
            scheduler.mark_completed(0)

    def test_full_qft_drains_in_wavefront_order(self):
        stream = qft_stream(8)
        scheduler = InstructionScheduler(stream)
        completed = 0
        while not scheduler.finished:
            ready = scheduler.ready_operations()
            assert ready, "scheduler deadlocked"
            for op in ready:
                scheduler.mark_issued(op.index)
            for op in ready:
                scheduler.mark_completed(op.index)
                completed += 1
            scheduler.assert_consistent()
        assert completed == len(stream)

    def test_parallelism_matches_wavefronts(self):
        stream = qft_stream(8)
        scheduler = InstructionScheduler(stream)
        fronts = stream.wavefronts()
        for front in fronts:
            ready = scheduler.ready_operations()
            assert {op.index for op in ready} == {op.index for op in front}
            for op in ready:
                scheduler.mark_issued(op.index)
            for op in ready:
                scheduler.mark_completed(op.index)


class TestControlUnit:
    def test_home_base_operation_produces_round_trip(self):
        machine = QuantumMachine(4, layout="home_base")
        control = ControlUnit(machine)
        stream = make_stream([(1, 16)], num_qubits=16)
        planned = control.plan_operation(stream[0])
        assert len(planned) == 2
        assert planned[0].plan is not None
        assert planned[0].hops == planned[1].hops == 6

    def test_mobile_walk_is_single_hop(self):
        machine = QuantumMachine(4, layout="mobile_qubit")
        control = ControlUnit(machine)
        stream = make_stream([(1, 2)], num_qubits=16)
        planned = control.plan_operation(stream[0])
        assert len(planned) == 1
        assert planned[0].hops == 1

    def test_messages_issued_per_good_pair(self):
        machine = QuantumMachine(4, layout="home_base")
        control = ControlUnit(machine)
        stream = make_stream([(1, 16)], num_qubits=16)
        planned = control.plan_operation(stream[0])
        messages = control.issue_messages(planned[0])
        assert len(messages) == machine.good_pairs_per_logical_communication()
        assert control.messages_issued == len(messages)

    def test_local_communication_issues_no_messages(self):
        machine = QuantumMachine(4, layout="mobile_qubit")
        control = ControlUnit(machine)
        stream = make_stream([(1, 2)], num_qubits=16)
        control.issue_messages(control.plan_operation(stream[0])[0])
        issued = control.messages_issued
        site = machine.layout.home_site(1)
        local = PlannedCommunication(request=CommRequest(source=site, dest=site, qubit=1), plan=None)
        assert local.is_local
        assert len(control.issue_messages(local)) == 0
        assert control.messages_issued == issued > 0

    def test_packet_ids_restart_for_every_control_unit(self):
        machine = QuantumMachine(4, layout="home_base")
        stream = make_stream([(1, 16)], num_qubits=16)
        issued = []
        for _ in range(2):
            control = ControlUnit(machine)
            control.reset()
            issued.append([control.issue_messages(item) for item in control.plan_operation(stream[0])])
        good_pairs = machine.good_pairs_per_logical_communication()
        assert issued[0] == issued[1] == [range(0, good_pairs), range(good_pairs, 2 * good_pairs)]

    def test_reset_restores_positions_and_clears_log(self):
        machine = QuantumMachine(4, layout="mobile_qubit")
        control = ControlUnit(machine)
        stream = make_stream([(1, 5)], num_qubits=16)
        control.issue_messages(control.plan_operation(stream[0])[0])
        assert control.messages_issued > 0
        control.reset()
        assert control.messages_issued == 0
        assert machine.layout.position_of(1) == machine.layout.home_site(1)

    def test_one_packet_per_good_pair_of_every_channel(self):
        specs = [spec for spec in map(get_scenario, list_scenarios()) if spec.traffic is None]
        specs.append(get_scenario("smoke").with_backend("detailed"))
        for spec in specs:
            batch = run(spec).batch
            good_pairs = build_machine(spec).good_pairs_per_logical_communication()
            assert batch.classical_messages == batch.channel_count * good_pairs, (spec.name, spec.runtime.backend)
