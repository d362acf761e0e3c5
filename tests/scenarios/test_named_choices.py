"""Every named choice refuses an unknown name, at its entry point and in a spec.

Each case is an entry point that selects an implementation by name, the
names it accepts, and the spec field that selects the same choice.  The
entry point must raise an error listing every accepted name, and the spec
field a :class:`~repro.errors.ScenarioError` naming the field.  The
``python -m repro backends`` listing is pinned byte for byte.
"""

import json

import pytest

from repro.errors import ReproError, ScenarioError
from repro.network import build_topology
from repro.network.layout import build_layout
from repro.network.routing import create_balancer
from repro.physics import get_protocol
from repro.runtime.cli import main
from repro.scenarios import ScenarioSpec, apply_overrides, get_scenario
from repro.service import create_admission, create_scheduler
from repro.sim import QuantumMachine, SimulationEngine, create_transport
from repro.sim.flow import FlowTransport
from repro.workloads import build_workload

UNKNOWN = "bogus"

#: (entry point, accepted names, spec field); each entry point is called with
#: the unknown name.
CASES = {
    "create_transport": (
        lambda: create_transport(UNKNOWN, SimulationEngine(), QuantumMachine(3)),
        ("detailed", "fluid"),
        "runtime.backend",
    ),
    "FlowTransport(allocator=)": (
        lambda: FlowTransport(SimulationEngine(), QuantumMachine(3), allocator=UNKNOWN),
        ("incremental", "reference", "vectorized"),
        "runtime.allocator",
    ),
    "build_topology": (
        lambda: build_topology(UNKNOWN, 4),
        ("dragonfly", "fat_tree", "leaf_spine", "line", "mesh", "ring", "torus"),
        "topology.kind",
    ),
    "build_workload": (
        lambda: build_workload(UNKNOWN, 4),
        (
            "all_to_all",
            "modexp",
            "modmult",
            "nearest_neighbour",
            "permutation",
            "qft",
            "random",
            "shor",
        ),
        "workload.kind",
    ),
    "create_balancer": (
        lambda: create_balancer(UNKNOWN),
        ("adaptive", "ecmp", "least_loaded"),
        "network.routing.policy",
    ),
    "create_admission": (
        lambda: create_admission(UNKNOWN),
        ("always", "queue_bound", "token_bucket"),
        "traffic.admission",
    ),
    "create_scheduler": (
        lambda: create_scheduler(UNKNOWN),
        ("fidelity", "fifo", "priority"),
        "traffic.scheduler",
    ),
    "get_protocol": (
        lambda: get_protocol(UNKNOWN),
        ("bbpssw", "dejmps"),
        "physics.protocol",
    ),
    "build_layout": (
        lambda: build_layout(UNKNOWN, build_topology("mesh", 3), 4),
        ("home_base", "homebase", "mobile", "mobile_qubit"),
        "runtime.layout",
    ),
}


@pytest.mark.parametrize("entry", sorted(CASES))
def test_entry_point_lists_the_accepted_names(entry):
    call, names, _ = CASES[entry]
    with pytest.raises(ReproError, match=UNKNOWN) as error:
        call()
    missing = [name for name in names if repr(name) not in str(error.value)]
    assert not missing, f"{entry}: {error.value} does not list {missing}"


@pytest.mark.parametrize("entry", sorted(CASES))
def test_spec_field_names_itself_and_the_accepted_names(entry):
    _, names, field = CASES[entry]
    data = apply_overrides(get_scenario("service_smoke").to_dict(), {field: UNKNOWN})
    with pytest.raises(ScenarioError) as error:
        ScenarioSpec.from_dict(data)
    message = str(error.value)
    assert message.startswith(f"{field} must be one of {sorted(names)}"), message


BACKENDS_TEXT = (
    "detailed  Event-driven per-EPR-pair channels with shared teleporter-set, "
    "storage and purifier queueing; exact but orders of magnitude slower than fluid.\n"
    "fluid     Max-min fair fluid flows over teleporter/generator/purifier "
    "bandwidth; fast, scales to large grids and full sweeps.\n"
)


def test_backends_listing_is_pinned(capsys):
    assert main(["backends"]) == 0
    assert capsys.readouterr().out == BACKENDS_TEXT


def test_backends_json_is_pinned(capsys):
    assert main(["backends", "--format", "json"]) == 0
    expected = {
        name: description.strip()
        for name, description in (line.split(maxsplit=1) for line in BACKENDS_TEXT.splitlines())
    }
    out = capsys.readouterr().out
    assert out == json.dumps(expected, indent=2, sort_keys=True) + "\n"
