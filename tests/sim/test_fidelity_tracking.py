"""Fidelity accounting through the simulation stack.

Covers the wiring below the verify layer: the target fidelity folding into
the budget's level selection, the transport base's close-time reporting from
the channel budget, the queue purifier's per-pair state tracking, the result
columns and the ``fidelity`` trace records — plus the guarantee that runs
without a noise model stay untouched.
"""

import pytest

from repro.errors import ConfigurationError
from repro.physics.purification import get_protocol
from repro.physics.states import BellDiagonalState
from repro.scenarios import get_scenario, run_record
from repro.scenarios.run import build_machine, build_stream
from repro.sim.engine import SimulationEngine
from repro.sim.machine import QuantumMachine
from repro.sim.qpurifier import QueuePurifier
from repro.sim.simulator import CommunicationSimulator
from repro.trace import CANONICAL_KINDS, ChannelClosed, ChannelFidelity, TraceBus


def tracked_machine(**kwargs):
    return QuantumMachine(3, num_qubits=6, track_fidelity=True, **kwargs)


class TestTargetFidelity:
    def test_target_fidelity_folds_into_threshold(self):
        machine = tracked_machine(target_fidelity=0.99)
        assert machine.params.threshold_fidelity == pytest.approx(0.99)
        budget = machine.planner.budget_for_hops(2)
        assert budget.delivered_state.fidelity >= 0.99
        # A looser target needs fewer purification rounds than the default.
        default_rounds = tracked_machine().planner.budget_for_hops(2).endpoint_rounds
        assert budget.endpoint_rounds < default_rounds

    def test_invalid_target_fidelity_rejected(self):
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ConfigurationError, match="target_fidelity"):
                tracked_machine(target_fidelity=bad)


class TestQueuePurifierStateTracking:
    def _drain(self, engine):
        engine.run()

    def test_good_pair_fidelities_match_analytical_recurrence(self):
        engine = SimulationEngine()
        protocol = get_protocol("dejmps")
        state = BellDiagonalState.werner(0.95)
        purifier = QueuePurifier(
            engine, depth=2, input_state=state, protocol=protocol
        )
        for _ in range(8):
            purifier.accept_raw_pair()
        self._drain(engine)
        expected = protocol.iterate(state, 2)[-1].fidelity
        assert purifier.good_pairs_produced == 2
        assert purifier.good_pair_fidelities == [expected, expected]

    def test_tracking_off_keeps_empty_fidelity_list(self):
        engine = SimulationEngine()
        purifier = QueuePurifier(engine, depth=2)
        for _ in range(4):
            purifier.accept_raw_pair()
        self._drain(engine)
        assert purifier.good_pairs_produced == 1
        assert purifier.good_pair_fidelities == []

    def test_tracking_does_not_change_timing(self):
        def run(**kwargs):
            engine = SimulationEngine()
            done = []
            purifier = QueuePurifier(
                engine, depth=2, on_good_pair=lambda: done.append(engine.now), **kwargs
            )
            for _ in range(8):
                purifier.accept_raw_pair()
            engine.run()
            return done

        plain = run()
        tracked = run(
            input_state=BellDiagonalState.werner(0.9), protocol=get_protocol("dejmps")
        )
        assert plain == tracked

    def test_partial_tracking_arguments_rejected(self):
        engine = SimulationEngine()
        with pytest.raises(ConfigurationError, match="both input_state and protocol"):
            QueuePurifier(engine, depth=2, input_state=BellDiagonalState.werner(0.9))
        with pytest.raises(ConfigurationError, match="both input_state and protocol"):
            QueuePurifier(engine, depth=2, protocol=get_protocol("dejmps"))


class TestRunLevelAccounting:
    @pytest.mark.parametrize("backend", ["fluid", "detailed"])
    def test_every_channel_reports_fidelity(self, backend):
        spec = get_scenario("smoke_noisy")
        result = CommunicationSimulator(build_machine(spec), backend=backend).run(
            build_stream(spec)
        )
        assert result.channels
        for channel in result.channels:
            assert channel.delivered_fidelity is not None
            assert channel.purification_level is not None and channel.purification_level >= 1
            assert channel.delivered_fidelity >= result.target_fidelity
        summary = result.fidelity_summary()
        assert summary is not None
        assert summary["channels"] == len(result.channels)
        assert summary["below_target"] == 0
        assert summary["min"] <= summary["mean"] <= summary["max"]
        assert "delivered fidelity" in result.describe()

    def test_untracked_run_reports_nothing(self):
        spec = get_scenario("smoke")
        result = CommunicationSimulator(build_machine(spec)).run(build_stream(spec))
        assert result.target_fidelity is None
        assert result.fidelity_summary() is None
        assert all(c.delivered_fidelity is None for c in result.channels)
        assert "delivered fidelity" not in result.describe()

    @pytest.mark.parametrize("backend", ["fluid", "detailed"])
    def test_fidelity_trace_records_follow_channel_close(self, backend):
        spec = get_scenario("smoke_noisy")
        bus = TraceBus(kinds=CANONICAL_KINDS)
        CommunicationSimulator(build_machine(spec), backend=backend).run(
            build_stream(spec), trace=bus
        )
        closes = bus.filtered([ChannelClosed.kind])
        fidelities = bus.filtered([ChannelFidelity.kind])
        assert len(fidelities) == len(closes) > 0
        for record in fidelities:
            assert record.meets_target
            assert 0.0 <= record.arrival_fidelity <= record.delivered_fidelity <= 1.0
        # The fidelity record of flow f rides directly behind its close.
        order = [(r.kind, r.flow_id) for r in bus.records if hasattr(r, "flow_id")]
        for index, (kind, flow_id) in enumerate(order):
            if kind == ChannelClosed.kind:
                assert order[index + 1] == (ChannelFidelity.kind, flow_id)

    def test_untracked_trace_has_no_fidelity_records(self):
        spec = get_scenario("smoke")
        bus = TraceBus(kinds=CANONICAL_KINDS)
        CommunicationSimulator(build_machine(spec)).run(build_stream(spec), trace=bus)
        assert not bus.filtered([ChannelFidelity.kind])

    def test_run_record_record_carries_noise_and_fidelity(self):
        record = run_record(get_scenario("smoke_noisy"))
        assert record["noise"]["base_fidelity"] == pytest.approx(0.999)
        assert record["fidelity"]["below_target"] == 0
        plain = run_record(get_scenario("smoke"))
        assert plain["noise"] is None and plain["fidelity"] is None

    def test_fluid_dynamics_identical_without_noise(self):
        # The accounting pipeline must be invisible when off: same makespan
        # and channel timeline as the spec without a noise section, compared
        # against the same spec *with* noise attached only for tracking
        # (identical physics: no overrides, default target).
        spec = get_scenario("smoke")
        baseline = CommunicationSimulator(build_machine(spec)).run(build_stream(spec))
        tracked_spec = spec.with_noise({})
        tracked = CommunicationSimulator(build_machine(tracked_spec)).run(
            build_stream(tracked_spec)
        )
        assert tracked.makespan_us == baseline.makespan_us
        assert [
            (c.source, c.destination, c.start_us, c.end_us) for c in tracked.channels
        ] == [(c.source, c.destination, c.start_us, c.end_us) for c in baseline.channels]
        assert all(c.delivered_fidelity is not None for c in tracked.channels)
        assert all(c.delivered_fidelity is None for c in baseline.channels)


class TestBudgetStatesReported:
    """Both backends report the pair states the channel's budget carries."""

    @pytest.mark.parametrize("backend", ["fluid", "detailed"])
    def test_fidelity_records_read_the_budget(self, backend):
        spec = get_scenario("smoke_noisy")
        machine = build_machine(spec)
        bus = TraceBus(kinds=CANONICAL_KINDS)
        CommunicationSimulator(machine, backend=backend).run(build_stream(spec), trace=bus)
        records = bus.filtered([ChannelFidelity.kind])
        assert records
        for record in records:
            budget = machine.planner.budget_for_hops(record.hops)
            assert record.arrival_fidelity == budget.arrival_state.fidelity
            assert record.purification_level == budget.endpoint_rounds
            assert record.target_fidelity == machine.params.threshold_fidelity
            if backend == "fluid":
                assert record.delivered_fidelity == budget.delivered_state.fidelity

    @pytest.mark.parametrize("backend", ["fluid", "detailed"])
    def test_level_zero_delivers_the_arrival_state(self, backend):
        # A loose target needs no purification: the arrival pairs are good.
        spec = get_scenario("smoke").with_noise({"target_fidelity": 0.99})
        machine = build_machine(spec)
        result = CommunicationSimulator(machine, backend=backend).run(build_stream(spec))
        assert result.channels
        for channel in result.channels:
            budget = machine.planner.budget_for_hops(channel.hops)
            assert budget.endpoint_rounds == 0
            assert budget.delivered_state is budget.arrival_state
            assert channel.purification_level == 0
            assert channel.delivered_fidelity == budget.arrival_state.fidelity
