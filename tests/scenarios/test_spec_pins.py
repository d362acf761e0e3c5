"""Spec hashes and dict forms, pinned across changes to the spec codec.

A spec's hash is its result-cache and journal key, so a codec change that
moves one strands every result cached under it.  ``spec_pins.json`` holds the
``spec_hash`` and ``to_dict()`` of every catalog scenario, every
``default_grid()`` point and :data:`EVERY_SECTION`, a spec that sets every
optional section.  After a change that is *meant* to alter them, regenerate
the file with::

    PYTHONPATH=src python tests/scenarios/test_spec_pins.py
"""

import json
from pathlib import Path

import pytest

from repro.scenarios import ScenarioSpec, default_grid, get_scenario, list_scenarios

SPEC_PINS = Path(__file__).with_name("spec_pins.json")

#: Every optional section set: noise, two tenants (one ``mmpp``) in the
#: declared order opposite to the sorted one, network routing and topology
#: options.  Choices are spelt with stray case and blanks, and the layout by
#: an alias, so the pins also cover the codec's normalisation.
EVERY_SECTION = {
    "name": "every_section",
    "description": "Sets every optional section of a scenario.",
    "topology": {
        "kind": "Dragonfly",
        "width": 4,
        "height": 2,
        "cells_per_hop": 500,
        "options": {"hosts_per_router": 2},
    },
    "workload": {"kind": "permutation", "num_qubits": 8, "params": {"seed": 3}},
    "physics": {
        "teleporters": 4,
        "generators": 3,
        "purifiers": 2,
        "protocol": "BBPSSW",
        "logical_gate_us": 250,
        "generator_bandwidth_scale": 2.0,
    },
    "runtime": {
        "layout": "mobile",
        "allocator": "vectorized",
        "routing": "yx",
        "backend": "detailed",
        "max_events": 100000,
    },
    "noise": {
        "base_fidelity": 0.999,
        "gate_error": 1e-5,
        "measurement_error": 1e-4,
        "target_fidelity": 0.9999,
    },
    "traffic": {
        "duration_us": 8000,
        "seed": 5,
        "max_inflight": 6,
        "admission": " Token_Bucket ",
        "admission_rate_per_ms": 2.5,
        "admission_burst": 3,
        "queue_limit": 16,
        "scheduler": "priority",
        "tenants": {
            "zeta": {
                "arrival_process": "mmpp",
                "mean_interarrival_us": 400.0,
                "burst_factor": 3.0,
                "phase_us": 1500.0,
                "size_dist": "pareto",
                "channels": 2,
                "alpha": 1.2,
                "max_channels": 5,
                "priority": -1,
            },
            "alpha": {
                "arrival_process": "fixed",
                "mean_interarrival_us": 700,
                "priority": 2,
                "target_fidelity": 0.999,
            },
        },
    },
    "network": {"routing": {"policy": "adaptive", "hysteresis": 2.5}},
}


def pinned_specs():
    """Every pinned spec by a unique key."""
    specs = {f"catalog/{name}": get_scenario(name) for name in list_scenarios()}
    specs.update({spec.name: spec for spec in default_grid()})
    specs["every_section"] = ScenarioSpec.from_dict(EVERY_SECTION)
    return specs


def _pin(spec):
    return {"spec_hash": spec.spec_hash, "to_dict": spec.to_dict()}


SPECS = pinned_specs()


@pytest.fixture(scope="module")
def pins():
    return json.loads(SPEC_PINS.read_text(encoding="utf-8"))


def test_the_pins_cover_exactly_the_pinned_specs(pins):
    assert sorted(pins) == sorted(SPECS)


@pytest.mark.parametrize("key", sorted(SPECS))
def test_spec_hash_and_dict_form_are_unchanged(pins, key):
    spec = SPECS[key]
    assert _pin(spec) == pins[key]
    assert ScenarioSpec.from_dict(spec.to_dict()) == spec


if __name__ == "__main__":
    recorded = {key: _pin(spec) for key, spec in sorted(pinned_specs().items())}
    SPEC_PINS.write_text(json.dumps(recorded, indent=1) + "\n", encoding="utf-8")
