"""Setting up one channel alone on the detailed backend.

Each test runs a single communication through ``DetailedTransport`` and reads
the work it did from the channel record and the trace: raw pairs, swaps,
purification rounds and good-pair milestones.  Both endpoints purify their
halves of every pair, and the data qubits are teleported through both
endpoint routers once the good pairs exist.
"""

from collections import Counter

import pytest

from repro.core.logical import STEANE_LEVEL_1
from repro.network.geometry import Coordinate
from repro.network.layout import CommRequest
from repro.network.nodes import ResourceAllocation
from repro.sim.control import PlannedCommunication
from repro.sim.detailed import DetailedTransport
from repro.sim.engine import SimulationEngine
from repro.sim.machine import QuantumMachine
from repro.sim.qpurifier import QueuePurifierModel
from repro.trace import PurificationMilestone, TeleportPerformed, TraceBus

SOURCE, DEST = Coordinate(0, 0), Coordinate(4, 3)


def _machine(purifiers=4):
    return QuantumMachine(
        8, allocation=ResourceAllocation(4, 4, purifiers), encoding=STEANE_LEVEL_1
    )


def run_single_channel(machine, source=SOURCE, dest=DEST):
    """(transport, channel record, trace bus) of one channel run alone."""
    bus = TraceBus()
    engine = SimulationEngine(trace=bus)
    transport = DetailedTransport(engine, machine)
    request = CommRequest(source=source, dest=dest, qubit=1)
    planned = PlannedCommunication(request=request, plan=machine.planner.plan(source, dest))
    transport.start(planned, lambda: None)
    engine.run()
    (record,) = transport.records
    return transport, record, bus


def good_pair_times(bus, node):
    """Times the purifier at ``node`` emitted its good pairs."""
    return [
        milestone.t_us
        for milestone in bus.filtered([PurificationMilestone.kind])
        if milestone.purifier == f"P{node}"
    ]


@pytest.fixture(scope="module")
def machine():
    return _machine()


@pytest.fixture(scope="module")
def plan(machine):
    return machine.planner.plan(SOURCE, DEST)


@pytest.fixture(scope="module")
def single(machine):
    return run_single_channel(machine)


class TestDetailedChannelSetup:
    def test_produces_requested_good_pairs(self, machine, plan, single):
        _, record, bus = single
        good = machine.good_pairs_per_logical_communication()
        assert record.pairs_transited == good * (2 ** plan.budget.endpoint_rounds)
        # Both endpoints purify their halves into the same number of good pairs.
        purifiers = Counter(m.purifier for m in bus.filtered([PurificationMilestone.kind]))
        assert purifiers == {f"P{SOURCE}": good, f"P{DEST}": good}

    def test_teleports_scale_with_path_length_and_pairs(self, machine, plan, single):
        _, record, bus = single
        swaps = record.pairs_transited * (plan.hops - 1)
        data_teleports = 2 * machine.good_pairs_per_logical_communication()
        assert len(bus.filtered([TeleportPerformed.kind])) == swaps + data_teleports

    def test_purifier_rounds_match_tree_accounting(self, machine, plan, single):
        _, _, bus = single
        rounds_per_pair = 2 ** plan.budget.endpoint_rounds - 1
        final = {m.purifier: m.rounds_executed for m in bus.filtered([PurificationMilestone.kind])}
        good = machine.good_pairs_per_logical_communication()
        assert final == {f"P{SOURCE}": good * rounds_per_pair, f"P{DEST}": good * rounds_per_pair}

    def test_pipelining_keeps_steady_period_below_first_pair_latency(self, single):
        _, _, bus = single
        times = good_pair_times(bus, DEST)
        steady_period = (times[-1] - times[0]) / (len(times) - 1)
        assert steady_period < times[0]

    def test_more_purifiers_speed_up_production(self):
        _, slow, _ = run_single_channel(_machine(purifiers=1))
        _, fast, _ = run_single_channel(_machine(purifiers=8))
        assert fast.end_us < slow.end_us

    def test_utilisation_maps_are_populated(self, plan, single):
        transport, record, _ = single
        detail = transport.component_utilisation(record.end_us)
        assert len(detail["generator"]) == plan.hops
        # Every router on the path teleports: the intermediate ones swap the
        # pairs, the endpoints teleport the data qubits.
        assert len(detail["teleporter"]) == plan.hops + 1
        assert all(0.0 <= v <= 1.0 for kind in detail.values() for v in kind.values())

    def test_utilisation_keys_use_stable_link_and_node_forms(self, plan, single):
        # Golden traces and JSON records key per-link/per-node quantities by
        # these strings: the format is a compatibility contract.
        transport, record, _ = single
        detail = transport.component_utilisation(record.end_us)
        expected_links = {link.stable_name for link in plan.path.links}
        assert set(detail["generator"]) == expected_links
        assert all(
            key.count("-") == 1 and key.startswith("(") for key in expected_links
        )
        expected_nodes = {f"({node.x},{node.y})" for node in plan.path.nodes}
        assert set(detail["teleporter"]) == expected_nodes
        assert set(detail["purifier"]) == {str(SOURCE), str(DEST)}

    def test_throughput_roughly_matches_queue_purifier_model(self, machine, plan, single):
        # With generous transport resources the endpoint purifier bank is the
        # bottleneck, so the detailed steady-state period should be within a
        # small factor of the closed-form queue-purifier period.
        _, _, bus = single
        times = good_pair_times(bus, DEST)
        steady_period = (times[-1] - times[0]) / (len(times) - 1)
        model = QueuePurifierModel(
            units=machine.allocation.purifiers_per_node,
            depth=plan.budget.endpoint_rounds,
            round_time_us=machine.params.times.purify_round(0.0),
        )
        assert steady_period >= 0.8 * model.good_pair_period_us
