"""Bit-for-bit pins of every catalog channel's fluid demand.

For each catalog scenario, ``demand_pins.json`` lists the demand of every
channel in the order the fluid transport opens them: each entry's resource
key (``[kind, [x, y]]`` or ``["generator", [ax, ay], [bx, by]]``) and
``float.hex`` of its work, in the transport's entry order.  Distinct demands
are stored once under ``demands``; ``channels`` indexes them.  The transport
names resources by integer id, and the pins are read back through the
machine's id→key map.  After a change that is *meant* to alter demands,
regenerate the file with::

    PYTHONPATH=src python tests/core/test_demand_pins.py
"""

import json
from pathlib import Path

import pytest

from repro.scenarios.catalog import get_scenario, list_scenarios
from repro.scenarios.run import run
from repro.sim.flow import FlowTransport

DEMAND_PINS = Path(__file__).with_name("demand_pins.json")


def _channel_demands(name, monkeypatch):
    """Every channel's demand in open order, as pinned entries."""
    seen = []
    build = FlowTransport._build_demands

    def recording(self, planned):
        ids, works = build(self, planned)
        keys = self.machine.resource_keys(ids)
        seen.append([[[key[0], *map(list, key[1:])], work.hex()] for key, work in zip(keys, works)])
        return ids, works

    monkeypatch.setattr(FlowTransport, "_build_demands", recording)
    try:
        run(get_scenario(name))
    finally:
        monkeypatch.undo()
    return seen


def _pin(demands):
    table, index, channels = [], {}, []
    for demand in demands:
        key = json.dumps(demand)
        if key not in index:
            index[key] = len(table)
            table.append(demand)
        channels.append(index[key])
    return {"channels": channels, "demands": table}


@pytest.fixture(scope="module")
def pins():
    return json.loads(DEMAND_PINS.read_text())


def test_every_catalog_scenario_is_pinned(pins):
    assert sorted(pins) == list_scenarios()


@pytest.mark.parametrize("name", list_scenarios())
def test_channel_demands_match_pins(name, pins, monkeypatch):
    assert _pin(_channel_demands(name, monkeypatch)) == pins[name]


if __name__ == "__main__":  # pragma: no cover - regeneration entry point
    patch = pytest.MonkeyPatch()
    recorded = {name: _pin(_channel_demands(name, patch)) for name in list_scenarios()}
    lines = []
    for name in sorted(recorded):
        demands = ",\n".join(
            "      " + json.dumps(d, separators=(",", ":")) for d in recorded[name]["demands"]
        )
        channels = json.dumps(recorded[name]["channels"], separators=(",", ":"))
        lines.append(
            f'  {json.dumps(name)}: {{\n    "channels": {channels},\n'
            f'    "demands": [\n{demands}\n    ]\n  }}'
        )
    DEMAND_PINS.write_text("{\n" + ",\n".join(lines) + "\n}\n")
