"""Pins of the event kernel's work: events dispatched and sequence numbers issued.

``detailed_pins.json`` pins what a run computes; ``event_pins.json`` pins how
the engine got there.  For every case of ``detailed_pins.json`` on the
``detailed`` backend, and for every catalog scenario on ``fluid`` under each
allocator, it holds the events the engine dispatched and the sequence numbers
it issued (a cancelled event takes a number but is never dispatched).  For
``smoke`` on both backends it holds a SHA-256 of the ``EventDispatched``
stream: one line per event with ``t_us`` as ``float.hex``, the sequence
number and the priority.  A change to the engine that keeps every event in
its place keeps all three.  After a change that is *meant* to alter them,
regenerate the file with::

    PYTHONPATH=src python tests/sim/test_event_pins.py
"""

import hashlib
import json
from pathlib import Path

import pytest
from test_transport_backends import _detailed_cases

from repro.scenarios import ScenarioSpec, get_scenario, list_scenarios, run
from repro.scenarios.run import build_machine, build_stream
from repro.scenarios.spec import ALLOCATOR_NAMES
from repro.sim import CommunicationSimulator, SimulationEngine
from repro.trace import TraceBus
from repro.trace.records import EventDispatched

EVENT_PINS = Path(__file__).with_name("event_pins.json")


def _engine_counts(simulate, monkeypatch):
    """(events dispatched, sequence numbers issued) of the one engine ``simulate`` runs."""
    engines = []
    original = SimulationEngine.run

    def recording(engine, *args, **kwargs):
        engines.append(engine)
        return original(engine, *args, **kwargs)

    monkeypatch.setattr(SimulationEngine, "run", recording)
    try:
        simulate()
    finally:
        monkeypatch.undo()
    (engine,) = set(engines)
    return {"events": engine.processed_events, "sequence": engine._sequence}


def _detailed_counts(spec, monkeypatch):
    simulator = CommunicationSimulator(build_machine(spec), backend="detailed")
    return _engine_counts(lambda: simulator.run(build_stream(spec)), monkeypatch)


def _fluid_spec(name, allocator):
    data = get_scenario(name).to_dict()
    data["runtime"]["allocator"] = allocator
    return ScenarioSpec.from_dict(data)


def _fluid_counts(name, allocator, monkeypatch):
    spec = _fluid_spec(name, allocator)
    return _engine_counts(lambda: run(spec), monkeypatch)


def _dispatch_digest(backend):
    """SHA-256 of ``smoke``'s ``EventDispatched`` stream on ``backend``."""
    digest = hashlib.sha256()

    def probe(record):
        digest.update(f"{record.t_us.hex()} {record.sequence} {record.priority}\n".encode())

    bus = TraceBus(kinds=[EventDispatched.kind], keep_records=False)
    bus.subscribe(probe)
    spec = get_scenario("smoke")
    CommunicationSimulator(build_machine(spec), backend=backend).run(build_stream(spec), trace=bus)
    return digest.hexdigest()


@pytest.fixture(scope="module")
def pins():
    return json.loads(EVENT_PINS.read_text(encoding="utf-8"))


def test_every_case_is_pinned(pins):
    assert sorted(pins["detailed"]) == sorted(key for key, _ in _detailed_cases())
    assert sorted(pins["fluid"]) == sorted(ALLOCATOR_NAMES)
    for allocator in ALLOCATOR_NAMES:
        assert sorted(pins["fluid"][allocator]) == list_scenarios()
    assert sorted(pins["dispatch_sha256"]) == ["detailed", "fluid"]


def test_detailed_never_cancels(pins):
    # Every detailed event is posted without a handle and fires, so the
    # events dispatched equal the sequence numbers issued on every case.
    for key, counts in pins["detailed"].items():
        assert counts["events"] == counts["sequence"], key
    assert pins["detailed"]["paper_baseline"]["events"] == 374_328
    assert pins["detailed"]["paper_mobile"]["events"] == 102_175


@pytest.mark.parametrize("key, spec", _detailed_cases(), ids=[key for key, _ in _detailed_cases()])
def test_detailed_event_counts_match_pins(key, spec, pins, monkeypatch):
    assert _detailed_counts(spec, monkeypatch) == pins["detailed"][key]


@pytest.mark.parametrize("allocator", ALLOCATOR_NAMES)
@pytest.mark.parametrize("name", list_scenarios())
def test_fluid_event_counts_match_pins(name, allocator, pins, monkeypatch):
    assert _fluid_counts(name, allocator, monkeypatch) == pins["fluid"][allocator][name]


@pytest.mark.parametrize("backend", ["detailed", "fluid"])
def test_smoke_dispatch_stream_matches_pin(backend, pins):
    assert _dispatch_digest(backend) == pins["dispatch_sha256"][backend]


if __name__ == "__main__":  # pragma: no cover - regeneration entry point
    patch = pytest.MonkeyPatch()
    recorded = {
        "detailed": {key: _detailed_counts(spec, patch) for key, spec in _detailed_cases()},
        "fluid": {
            allocator: {name: _fluid_counts(name, allocator, patch) for name in list_scenarios()}
            for allocator in ALLOCATOR_NAMES
        },
        "dispatch_sha256": {backend: _dispatch_digest(backend) for backend in ("detailed", "fluid")},
    }
    EVENT_PINS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
