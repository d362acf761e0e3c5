"""Bit-for-bit pins of the EPR budget model and chained distribution.

For every standard placement x protocol x parameter set x distance,
``budget_pins.json`` holds ``float.hex`` of each numeric ``ChannelBudget``
field and per-hop cost, and of the ``distribute(hops)`` result of
:class:`~repro.core.distribution.ChainedTeleportationDistribution`.  After a
change that is *meant* to alter them, regenerate the file with::

    PYTHONPATH=src python tests/core/test_budget_pins.py
"""

import json
from pathlib import Path

import pytest

from repro.core.budget import EPRBudgetModel
from repro.core.distribution import ChainedTeleportationDistribution
from repro.core.placement import standard_schemes
from repro.physics.parameters import IonTrapParameters

BUDGET_PINS = Path(__file__).with_name("budget_pins.json")
PROTOCOLS = ("dejmps", "bbpssw")
HOPS = (0, 1, 2, 3, 4, 8, 16, 32, 64)
FLOAT_FIELDS = (
    "link_error_raw",
    "link_error",
    "link_cost",
    "arrival_error",
    "endpoint_pairs",
    "pairs_teleported",
    "teleport_operations",
    "total_pairs",
    "setup_latency_us",
)


def _parameter_sets():
    return {
        "default": IonTrapParameters.default(),
        "uniform_1e-5": IonTrapParameters.uniform_error(1e-5),
        "uniform_1e-6": IonTrapParameters.uniform_error(1e-6),
    }


def _pin(budget, distributed):
    pin = {
        "hops": budget.hops,
        "feasible": budget.feasible,
        "endpoint_rounds": budget.endpoint_rounds,
        "per_hop_costs": [cost.hex() for cost in budget.per_hop_costs],
        "distribute": {
            "arrival_state": [c.hex() for c in distributed.arrival_state.coefficients],
            "latency_us": distributed.latency_us.hex(),
            "teleport_operations": distributed.teleport_operations,
            "ballistic_cells": float(distributed.ballistic_cells).hex(),
            "link_pairs_consumed": distributed.link_pairs_consumed.hex(),
        },
    }
    for name in FLOAT_FIELDS:
        pin[name] = float(getattr(budget, name)).hex()
    return pin


def _pins():
    pins = {}
    for params_label, params in _parameter_sets().items():
        for protocol in PROTOCOLS:
            for placement in standard_schemes():
                model = EPRBudgetModel(params, protocol=protocol, placement=placement)
                distribution = ChainedTeleportationDistribution(
                    params, protocol=protocol, placement=placement
                )
                for hops in HOPS:
                    key = f"{params_label}|{protocol}|{placement.label}|{hops}"
                    pins[key] = _pin(model.budget(hops), distribution.distribute(hops))
    return pins


@pytest.fixture(scope="module")
def pinned():
    return json.loads(BUDGET_PINS.read_text())


@pytest.fixture(scope="module")
def computed():
    return _pins()


def test_pins_cover_every_combination(pinned, computed):
    assert len(pinned) == len(_parameter_sets()) * len(PROTOCOLS) * len(standard_schemes()) * len(HOPS)
    assert sorted(computed) == sorted(pinned)


@pytest.mark.parametrize("params_label", sorted(_parameter_sets()))
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_budgets_match_pins_bit_for_bit(pinned, computed, params_label, protocol):
    prefix = f"{params_label}|{protocol}|"
    keys = [key for key in pinned if key.startswith(prefix)]
    assert keys
    for key in keys:
        assert computed[key] == pinned[key], key


if __name__ == "__main__":
    lines = [
        f"{json.dumps(key)}: {json.dumps(pin, sort_keys=True)}"
        for key, pin in sorted(_pins().items())
    ]
    BUDGET_PINS.write_text("{\n" + ",\n".join(lines) + "\n}\n")
