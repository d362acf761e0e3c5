"""Transport backend contract: the table, parity, contention, provenance.

The detailed backend's outputs on every catalog scenario are pinned bitwise
in ``detailed_pins.json``.  After a change that is *meant* to alter them,
regenerate the file with::

    PYTHONPATH=src python tests/sim/test_transport_backends.py
"""

import json
import warnings
from pathlib import Path

import pytest

from repro.errors import ConfigurationError, InfeasibleError
from repro.network.geometry import Coordinate
from repro.network.layout import CommRequest
from repro.network.nodes import ResourceAllocation
from repro.runtime.cli import main
from repro.scenarios import ScenarioSpec, get_scenario, list_scenarios, run, run_record
from repro.scenarios.run import build_machine, build_stream
from repro.sim import CommunicationSimulator, QuantumMachine, SimulationEngine, create_transport
from repro.sim.control import PlannedCommunication
from repro.sim.detailed import DetailedTransport
from repro.sim.flow import FlowTransport
from repro.sim.simulator import BACKENDS
from repro.verify.harness import BACKEND_MAKESPAN_RATIO

DETAILED_PINS = Path(__file__).with_name("detailed_pins.json")


def _detailed_cases():
    """(pin key, spec): every catalog scenario, plus smoke with faster generators.

    The Table 1 durations are integers, so sums of them do not depend on the
    order the events add them in; a generator bandwidth scale of 3 makes the
    generation time non-integral, so a reordering of events shows up.
    """
    cases = [(name, get_scenario(name)) for name in list_scenarios()]
    data = get_scenario("smoke").to_dict()
    data["physics"]["generator_bandwidth_scale"] = 3
    cases.append(("smoke/generator_bandwidth_scale=3", ScenarioSpec.from_dict(data)))
    return cases


def _detailed_pin(result):
    """A detailed run's outputs with every float as ``float.hex``.

    One string per channel record, in completion order:
    start, end, hops, pairs transited, delivered fidelity.
    """

    def hexed(value):
        return "None" if value is None else float(value).hex()

    return {
        "makespan_us": result.makespan_us.hex(),
        "channels": [
            " ".join(
                (
                    hexed(channel.start_us),
                    hexed(channel.end_us),
                    str(channel.hops),
                    hexed(channel.pairs_transited),
                    hexed(channel.delivered_fidelity),
                )
            )
            for channel in result.channels
        ],
        "utilisation": {
            kind: hexed(value) for kind, value in sorted(result.resource_utilisation.items())
        },
    }


class TestRegistry:
    def test_descriptions_are_one_liners(self):
        for name, backend in BACKENDS.items():
            assert backend.description, f"backend {name} has no description"
            assert "\n" not in backend.description

    def test_unknown_backend_raises(self):
        with pytest.raises(ConfigurationError, match="unknown transport backend"):
            create_transport("bogus", SimulationEngine(), QuantumMachine(3))

    def test_create_transport_dispatches(self):
        machine = QuantumMachine(3)
        engine = SimulationEngine()
        fluid = create_transport("fluid", engine, machine, allocator="reference")
        detailed = create_transport("detailed", engine, machine)
        assert isinstance(fluid, FlowTransport)
        assert fluid.allocator == "reference"
        assert isinstance(detailed, DetailedTransport)

    def test_simulator_rejects_unknown_backend(self):
        machine = QuantumMachine(3)
        with pytest.raises(ConfigurationError):
            CommunicationSimulator(machine, backend="bogus").run(
                build_stream(get_scenario("smoke"))
            )


class TestBackendParity:
    def test_smoke_makespans_agree_within_documented_tolerance(self):
        spec = get_scenario("smoke")
        stream = build_stream(spec)
        fluid = CommunicationSimulator(build_machine(spec)).run(stream)
        detailed = CommunicationSimulator(build_machine(spec), backend="detailed").run(
            stream
        )
        ratio = detailed.makespan_us / fluid.makespan_us
        assert 1.0 / BACKEND_MAKESPAN_RATIO <= ratio <= BACKEND_MAKESPAN_RATIO
        # Same communication structure at both granularities.
        assert detailed.operation_count == fluid.operation_count
        assert detailed.channel_count == fluid.channel_count

    def test_detailed_reports_same_utilisation_classes(self):
        spec = get_scenario("smoke")
        result = CommunicationSimulator(build_machine(spec), backend="detailed").run(
            build_stream(spec)
        )
        assert set(result.resource_utilisation) >= {"generator", "purifier"}
        assert all(0.0 <= v <= 1.0 for v in result.resource_utilisation.values())

    def test_every_catalog_scenario_completes_on_detailed(self):
        # The acceptance bar: the detailed backend is a full end-to-end
        # backend, not a single-channel study — every catalog scenario runs,
        # and its outputs match the checked-in pins bit for bit.
        pins = json.loads(DETAILED_PINS.read_text(encoding="utf-8"))
        cases = _detailed_cases()
        assert sorted(pins) == sorted(key for key, _ in cases)
        for key, spec in cases:
            result = CommunicationSimulator(
                build_machine(spec), backend="detailed"
            ).run(build_stream(spec))
            assert result.makespan_us > 0
            assert result.backend == "detailed"
            assert _detailed_pin(result) == pins[key], key


def _planned(machine, source, dest, qubit):
    request = CommRequest(source=source, dest=dest, qubit=qubit)
    return PlannedCommunication(request=request, plan=machine.planner.plan(source, dest))


def _run_channels(machine, endpoints):
    """Run channels concurrently on one DetailedTransport; completion times."""
    engine = SimulationEngine()
    transport = DetailedTransport(engine, machine)
    finished = {}
    for qubit, (source, dest) in enumerate(endpoints, start=1):
        planned = _planned(machine, source, dest, qubit)
        transport.start(planned, lambda q=qubit: finished.setdefault(q, engine.now))
    engine.run()
    assert len(finished) == len(endpoints)
    return finished


class TestDetailedContention:
    def test_shared_teleporter_set_makes_channels_strictly_slower(self):
        machine = QuantumMachine(5)
        # Both channels run along row 0, swapping through the X teleporter
        # sets of (1,0)..(3,0); the second overlaps the first's middle hops.
        alone = _run_channels(machine, [(Coordinate(0, 0), Coordinate(4, 0))])
        contended = _run_channels(
            machine,
            [
                (Coordinate(0, 0), Coordinate(4, 0)),
                (Coordinate(1, 0), Coordinate(3, 0)),
            ],
        )
        assert contended[1] > alone[1]

    def test_component_utilisation_uses_stable_keys(self):
        machine = QuantumMachine(5)
        engine = SimulationEngine()
        transport = DetailedTransport(engine, machine)
        transport.start(
            _planned(machine, Coordinate(0, 0), Coordinate(3, 0), 1), lambda: None
        )
        engine.run()
        detail = transport.component_utilisation(engine.now)
        assert "(0,0)-(1,0)" in detail["generator"]
        assert "(1,0)" in detail["teleporter"]
        assert "(3,0)" in detail["purifier"]

    def test_shared_hardware_is_created_in_first_use_order(self):
        # utilisation_report sums each resource class in creation order, so
        # that order is part of the bitwise contract: hardware comes into
        # being when the first pair reaches it, hop by hop across channels,
        # not when a channel that will use it opens.
        machine = QuantumMachine(5)
        engine = SimulationEngine()
        transport = DetailedTransport(engine, machine)
        for qubit, row in enumerate((0, 1), start=1):
            planned = _planned(machine, Coordinate(0, row), Coordinate(3, row), qubit)
            transport.start(planned, lambda: None)
        engine.run()
        detail = transport.component_utilisation(engine.now)
        assert list(detail["generator"]) == [
            "(0,0)-(1,0)", "(0,1)-(1,1)", "(1,0)-(2,0)", "(1,1)-(2,1)", "(2,0)-(3,0)", "(2,1)-(3,1)"
        ]
        assert list(detail["teleporter"]) == [
            "(1,0)", "(1,1)", "(2,0)", "(2,1)", "(0,0)", "(3,0)", "(0,1)", "(3,1)"
        ]

    def test_co_sourced_channels_contend_for_the_source_purifier_bank(self):
        # Both endpoints purify their halves (the work the fluid model
        # charges to both endpoint purifier banks), so two channels sourced
        # at one node queue for that node's units even with disjoint paths.
        machine = QuantumMachine(5, allocation=ResourceAllocation(2, 2, 1))
        origin = Coordinate(2, 2)
        alone = _run_channels(machine, [(origin, Coordinate(4, 2))])
        contended = _run_channels(
            machine,
            [(origin, Coordinate(4, 2)), (origin, Coordinate(0, 2))],
        )
        assert contended[1] > alone[1]

    def test_generator_bandwidth_scale_reaches_detailed_backend(self):
        base = get_scenario("smoke").to_dict()
        base["physics"]["generator_bandwidth_scale"] = 0.1
        slow_spec = ScenarioSpec.from_dict(base)
        slow = CommunicationSimulator(build_machine(slow_spec), backend="detailed").run(
            build_stream(slow_spec)
        )
        fast = CommunicationSimulator(
            build_machine(get_scenario("smoke")), backend="detailed"
        ).run(build_stream(get_scenario("smoke")))
        # Ten-times-slower pair factories must slow the whole run, by a lot.
        assert slow.makespan_us > 2.0 * fast.makespan_us

    def test_disjoint_channels_do_not_interfere(self):
        machine = QuantumMachine(5)
        alone = _run_channels(machine, [(Coordinate(0, 0), Coordinate(4, 0))])
        disjoint = _run_channels(
            machine,
            [
                (Coordinate(0, 0), Coordinate(4, 0)),
                (Coordinate(0, 4), Coordinate(4, 4)),
            ],
        )
        assert disjoint[1] == alone[1]


class TestDetailedLargeAllocations:
    @pytest.mark.parametrize("t, g, p", [(256, 2, 1), (1024, 1024, 1024)])
    def test_one_hop_channels_drain_a_deep_link_buffer(self, t, g, p):
        # A link buffers max(t, 2) pairs, and a one-hop channel takes every
        # buffered pair at once; delivering each by nested calls overflowed
        # the stack from t = 256, the paper's t = g = p = 1024 included.
        data = get_scenario("smoke").to_dict()
        data["physics"].update(teleporters=t, generators=g, purifiers=p)
        data["runtime"]["backend"] = "detailed"
        spec = ScenarioSpec.from_dict(data)
        result = run(spec)
        assert result.batch.operations == len(build_stream(spec).operations)
        assert 0.0 < result.makespan_us < float("inf")


class TestBackendProvenance:
    def test_simulation_result_carries_backend(self):
        spec = get_scenario("smoke")
        result = CommunicationSimulator(build_machine(spec)).run(build_stream(spec))
        assert result.backend == "fluid"

    def test_flat_record_carries_backend(self):
        record = run_record(get_scenario("smoke"))
        assert record["backend"] == "fluid"
        detailed = run_record(get_scenario("smoke").with_backend("detailed"))
        assert detailed["backend"] == "detailed"
        # Backend choice must reach the cache key, or fluid and detailed
        # sweeps would collide on one slot.
        assert detailed["spec_hash"] != record["spec_hash"]


def _infeasible_smoke():
    """Smoke whose pairs, made from 0.5-fidelity qubits, never purify to the threshold."""
    return get_scenario("smoke").with_noise({"base_fidelity": 0.5}).to_dict()


class TestInfeasibleChannel:
    @pytest.mark.parametrize(
        "backend, allocator",
        [("fluid", "incremental"), ("fluid", "vectorized"), ("detailed", "incremental")],
    )
    def test_unreachable_target_fails_fast_naming_the_noise_fields(self, backend, allocator):
        # RuntimeWarnings are errors here: an infeasible channel that got past
        # the check would first show up as NaN rates in the fluid allocator.
        data = _infeasible_smoke()
        data["runtime"].update(backend=backend, allocator=allocator)
        spec = ScenarioSpec.from_dict(data)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(InfeasibleError) as raised:
                run(spec)
        message = str(raised.value)
        assert "1-hop channel" in message
        assert "arrive with error 0.5004" in message
        assert "noise.base_fidelity (now 0.5)" in message
        assert "noise.target_fidelity" in message

    @pytest.mark.parametrize("backend", ["fluid", "detailed"])
    def test_long_hops_fail_naming_cells_per_hop(self, backend):
        # smoke has no noise section; a channel too long for its pairs to be
        # purified must still name the field that made it so.
        data = get_scenario("smoke").to_dict()
        data["topology"]["cells_per_hop"] = 1_000_000_000
        data["runtime"]["backend"] = backend
        with pytest.raises(InfeasibleError, match=r"topology\.cells_per_hop \(now 1000000000\)"):
            run(ScenarioSpec.from_dict(data))

    def test_cli_exits_2_with_the_message(self, tmp_path, capsys):
        path = tmp_path / "infeasible.json"
        path.write_text(json.dumps(_infeasible_smoke()), encoding="utf-8")
        assert main(["verify", "run", "--spec", str(path)]) == 2
        assert "noise.base_fidelity" in capsys.readouterr().err


if __name__ == "__main__":
    pins = {
        key: _detailed_pin(
            CommunicationSimulator(build_machine(spec), backend="detailed").run(build_stream(spec))
        )
        for key, spec in _detailed_cases()
    }
    DETAILED_PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
