"""Tests for the queue purifier, link generator and teleporter node models."""

import pytest

from repro.errors import ConfigurationError
from repro.network.geometry import Coordinate
from repro.network.nodes import ResourceAllocation
from repro.physics.parameters import IonTrapParameters
from repro.sim.detailed import DetailedTransport
from repro.sim.engine import SimulationEngine
from repro.sim.generator import LinkGenerator
from repro.sim.machine import QuantumMachine
from repro.sim.qpurifier import QueuePurifier, QueuePurifierModel
from repro.sim.teleporter import TeleporterNodeSim


class TestQueuePurifierModel:
    def test_ideal_counts_match_paper(self):
        model = QueuePurifierModel(units=1, depth=3)
        assert model.raw_pairs_per_good_pair == pytest.approx(8.0)
        assert model.rounds_per_good_pair == pytest.approx(7.0)
        assert model.hardware_units_naive_tree() == 7

    def test_throughput_scales_with_units(self):
        one = QueuePurifierModel(units=1, depth=3)
        four = QueuePurifierModel(units=4, depth=3)
        assert four.throughput_per_us() == pytest.approx(4 * one.throughput_per_us())

    def test_pipeline_latency(self):
        model = QueuePurifierModel(units=1, depth=3, round_time_us=121.0)
        assert model.pipeline_latency_us == pytest.approx(363.0)

    def test_success_probability_increases_cost(self):
        ideal = QueuePurifierModel(depth=3, success_probability=1.0)
        lossy = QueuePurifierModel(depth=3, success_probability=0.9)
        assert lossy.raw_pairs_per_good_pair > ideal.raw_pairs_per_good_pair
        assert lossy.rounds_per_good_pair > ideal.rounds_per_good_pair

    def test_time_to_produce(self):
        model = QueuePurifierModel(units=1, depth=2, round_time_us=100.0)
        assert model.time_to_produce(1) == pytest.approx(200.0)
        assert model.time_to_produce(2) == pytest.approx(200.0 + 300.0)

    def test_zero_depth_passthrough(self):
        model = QueuePurifierModel(units=1, depth=0)
        assert model.rounds_per_good_pair == 0.0
        assert model.time_to_produce(5) == 0.0

    def test_rejects_bad_configuration(self):
        with pytest.raises(ConfigurationError):
            QueuePurifierModel(units=0)
        with pytest.raises(ConfigurationError):
            QueuePurifierModel(success_probability=0.0)


class TestQueuePurifierEventDriven:
    def test_eight_raw_pairs_give_one_good_pair_at_depth3(self):
        engine = SimulationEngine()
        purifier = QueuePurifier(engine, units=4, depth=3)
        for _ in range(8):
            purifier.accept_raw_pair()
        engine.run()
        assert purifier.good_pairs_produced == 1
        assert purifier.rounds_executed == 7

    def test_latency_matches_model_when_units_plentiful(self):
        engine = SimulationEngine()
        params = IonTrapParameters.default()
        purifier = QueuePurifier(engine, units=8, depth=3, params=params)
        for _ in range(8):
            purifier.accept_raw_pair()
        engine.run()
        expected_min = 3 * params.times.purify_round(0.0)
        assert engine.now >= expected_min

    def test_single_unit_serialises_rounds(self):
        params = IonTrapParameters.default()
        engine = SimulationEngine()
        purifier = QueuePurifier(engine, units=1, depth=2, params=params)
        for _ in range(4):
            purifier.accept_raw_pair()
        engine.run()
        assert engine.now == pytest.approx(3 * params.times.purify_round(0.0))

    def test_streaming_produces_multiple_good_pairs(self):
        engine = SimulationEngine()
        purifier = QueuePurifier(engine, units=2, depth=2)
        for _ in range(16):
            purifier.accept_raw_pair()
        engine.run()
        assert purifier.good_pairs_produced == 4

    def test_callback_invoked(self):
        engine = SimulationEngine()
        produced = []
        purifier = QueuePurifier(engine, units=2, depth=1, on_good_pair=lambda: produced.append(engine.now))
        for _ in range(4):
            purifier.accept_raw_pair()
        engine.run()
        assert len(produced) == 2

    def test_rejects_zero_depth(self):
        with pytest.raises(ConfigurationError):
            QueuePurifier(SimulationEngine(), depth=0)


class TestLinkGenerator:
    def test_prefilled_buffer_serves_immediately(self):
        engine = SimulationEngine()
        generator = LinkGenerator(engine, generators=1, buffer_capacity=3)
        served = []
        generator.take_pair(lambda: served.append(engine.now))
        assert served == [0.0]

    def test_empty_buffer_blocks_until_generation(self):
        engine = SimulationEngine()
        generator = LinkGenerator(engine, generators=1, buffer_capacity=2, prefill=False)
        served = []
        generator.take_pair(lambda: served.append(engine.now))
        engine.run()
        assert served and served[0] == pytest.approx(IonTrapParameters.default().times.generate)

    def test_buffer_replenishes_in_background(self):
        engine = SimulationEngine()
        generator = LinkGenerator(engine, generators=2, buffer_capacity=2)
        generator.take_pair(lambda: None)
        generator.take_pair(lambda: None)
        engine.run()
        assert generator.available_pairs == 2
        assert generator.pairs_produced >= 2

    def test_consumption_statistics(self):
        engine = SimulationEngine()
        generator = LinkGenerator(engine, generators=1, buffer_capacity=1)
        generator.take_pair(lambda: None)
        engine.run()
        assert generator.pairs_consumed == 1

    def test_rejects_bad_configuration(self):
        with pytest.raises(ConfigurationError):
            LinkGenerator(SimulationEngine(), generators=0)


class TestTeleporterNodeSim:
    def test_teleport_takes_teleport_time(self):
        engine = SimulationEngine()
        node = TeleporterNodeSim(engine, Coordinate(1, 1))
        done = []
        node.teleport_through("x", lambda: done.append(engine.now))
        engine.run()
        assert done == [pytest.approx(122.0)]
        assert node.teleports_performed == 1

    def test_turn_adds_ballistic_move(self):
        engine = SimulationEngine()
        node = TeleporterNodeSim(engine, Coordinate(1, 1))
        done = []
        node.teleport_through("y", lambda: done.append(engine.now), turn=True)
        engine.run()
        assert done[0] > 122.0
        assert node.turns_performed == 1

    def test_single_teleporter_serialises(self):
        # At t = 1 the X and Y sets share the node's one teleporter, so each
        # set completes a teleport every two swap times.
        engine = SimulationEngine()
        machine = QuantumMachine(4, allocation=ResourceAllocation(1, 1, 1))
        node = DetailedTransport(engine, machine).teleporter_for(Coordinate(0, 0))
        done = []
        node.teleport_through("x", lambda: done.append(engine.now))
        node.teleport_through("x", lambda: done.append(engine.now))
        engine.run()
        assert done == [pytest.approx(244.0), pytest.approx(488.0)]

    def test_fractional_bandwidth_stretches_service(self):
        # 1.5 teleporters per set (t = 3): two servers, each taking 4/3 of
        # the 122 us swap time.
        engine = SimulationEngine()
        node = TeleporterNodeSim(engine, Coordinate(0, 0), bandwidth=1.5)
        done = []
        for _ in range(3):
            node.teleport_through("x", lambda: done.append(engine.now))
        engine.run()
        assert done == pytest.approx([162.667, 162.667, 325.333], abs=1e-3)

    def test_x_and_y_sets_are_independent(self):
        engine = SimulationEngine()
        node = TeleporterNodeSim(engine, Coordinate(0, 0), bandwidth=1.0)
        done = []
        node.teleport_through("x", lambda: done.append(("x", engine.now)))
        node.teleport_through("y", lambda: done.append(("y", engine.now)))
        engine.run()
        assert done[0][1] == done[1][1] == pytest.approx(122.0)

    def test_unknown_dimension_rejected(self):
        node = TeleporterNodeSim(SimulationEngine(), Coordinate(0, 0))
        with pytest.raises(ConfigurationError):
            node.service_for("z")
