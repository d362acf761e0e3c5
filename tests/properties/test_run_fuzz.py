"""Standing fuzz test: every spec the validator accepts runs or fails fast.

Hypothesis derives specs from the catalog entries.  The categorical draws
vary the topology kind, the layout, the allocator, the backend, the routing
policy and whether noise is tracked.  The numeric draws come from the field
declarations in :mod:`repro.scenarios.spec`, for every numeric field of
every section, tenants included: each field's minimum, its maximum (a large
value where none is declared) and its default, or its midpoint when it has
none.  The count parameters of the workloads are drawn alike, with the
workload kind that takes them.  Service scenarios also draw their traffic
at, inside and just past the bounds on offered requests and MMPP phases.
Each spec goes through :func:`repro.api.run` with warnings raised as errors
and must either complete with finite results or raise a
:class:`~repro.errors.ReproError`: the validator or the machine build
refusing it, an infeasible channel, or the event budget running out.
The values just past each declared end must be refused by the validator,
naming the field.

``runtime.max_events`` is always set.  A run that exhausts it must raise a
``SimulationError`` naming the field; that is part of the contract under
test, not a way to skip slow specs.
"""

import math
import re
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.errors import ReproError, ScenarioError
from repro.network.fabrics import FABRICS
from repro.network.routing import BALANCERS
from repro.scenarios import (
    NoiseSpec,
    PhysicsSpec,
    RoutingSpec,
    ScenarioSpec,
    TenantSpec,
    TopologySpec,
    TrafficSpec,
    WorkloadSpec,
    apply_overrides,
    get_scenario,
    list_scenarios,
)
from repro.scenarios.spec import (
    ARRIVAL_PROCESSES,
    MAX_OFFERED_REQUESTS,
    NOISE_FIELDS,
    PHYSICS_FIELDS,
    ROUTING_FIELDS,
    SIZE_DISTRIBUTIONS,
    TENANT_FIELDS,
    TOPOLOGY_FIELDS,
    TOPOLOGY_OPTION,
    TRAFFIC_FIELDS,
    WORKLOAD_FIELDS,
    WORKLOAD_PARAM_FIELDS,
)
from repro.service.admission import ADMISSION_CONTROLLERS
from repro.service.schedulers import SCHEDULERS
from repro.sim.flow import ALLOCATORS
from repro.sim.simulator import BACKENDS
from repro.workloads.registry import WORKLOADS

#: Events one fuzzed run may dispatch before it must stop and say so.
MAX_EVENTS = 50_000

#: Stand-ins for an end of a range that no declaration sets.
LARGE = {int: 10**18, float: 1e300}


def bound_draws(decl, default=None):
    """Values in the declaration's range, and the values just past its ends.

    In range: the minimum, the maximum and ``default``, or the midpoint when
    there is none.
    """
    large = LARGE[decl.kind]
    if decl.kind is int:
        low, high = max(decl.low, -large), min(decl.high, large)
        past = [decl.low - 1, decl.high + 1]
    else:
        low = math.nextafter(decl.low, math.inf) if decl.low_open else max(decl.low, -large)
        high = math.nextafter(decl.high, -math.inf) if decl.high_open else min(decl.high, large)
        past = [
            decl.low if decl.low_open else math.nextafter(decl.low, -math.inf),
            decl.high if decl.high_open else math.nextafter(decl.high, math.inf),
        ]
    if default is None:
        default = (low + high) // 2 if decl.kind is int else (low + high) / 2
    return [low, high, default], [value for value in past if math.isfinite(value)]


def section_draws(prefix, cls, fields):
    """{dotted path: (in-range values, past values)} for each numeric field of a section.

    ``cls`` is the section dataclass whose defaults are drawn, or None.
    """
    return {
        f"{prefix}.{key}": bound_draws(decl, getattr(cls, key, None))
        for key, decl in fields.items()
        if decl.kind is not str
    }


def in_range(draws):
    """Every (dotted path, in-range value) pair."""
    return [(path, value) for path, (values, _) in draws.items() for value in values]


#: The fabric that takes each ``topology.options`` name.
OPTION_FABRICS = {name: kind for kind in sorted(FABRICS) for name in FABRICS[kind].options}
#: The workload that takes each ``workload.params`` name.
PARAM_WORKLOADS = {name: kind for kind in sorted(WORKLOADS) for name in WORKLOADS[kind].params}
PARAMS = "workload.params."

#: Every numeric field of the batch sections; ``runtime.max_events`` stays
#: at :data:`MAX_EVENTS`.
BATCH_DRAWS = {
    **section_draws("topology", TopologySpec, TOPOLOGY_FIELDS),
    **section_draws("topology.options", None, dict.fromkeys(OPTION_FABRICS, TOPOLOGY_OPTION)),
    **section_draws("workload", WorkloadSpec, WORKLOAD_FIELDS),
    **section_draws("workload.params", None, WORKLOAD_PARAM_FIELDS),
    **section_draws("physics", PhysicsSpec, PHYSICS_FIELDS),
    **section_draws("noise", NoiseSpec, NOISE_FIELDS),
    **section_draws("network.routing", RoutingSpec, ROUTING_FIELDS),
}


def traffic_draws(tenants):
    """Every numeric field of the traffic section and of each tenant."""
    draws = section_draws("traffic", TrafficSpec, TRAFFIC_FIELDS)
    for name in tenants:
        draws.update(section_draws(f"traffic.tenants.{name}", TenantSpec, TENANT_FIELDS))
    return draws


overrides = st.fixed_dictionaries(
    {
        "topology.kind": st.sampled_from(sorted(FABRICS)),
        "runtime.layout": st.sampled_from(["home_base", "mobile_qubit"]),
        "runtime.allocator": st.sampled_from(ALLOCATORS),
        "runtime.backend": st.sampled_from(tuple(BACKENDS)),
        "runtime.max_events": st.just(MAX_EVENTS),
    }
)

routing_policies = st.sampled_from([None, *BALANCERS])

SERVICE_SCENARIOS = [name for name in list_scenarios() if get_scenario(name).traffic is not None]

#: Fractions of a traffic bound: inside it, exactly at it, and just past it
#: (repeated entries weight the draws towards specs that run to the end).
BOUND_FRACTIONS = [1e-4, 1e-3, 1e-3, 1.0, 1.0 + 1e-9]


@st.composite
def traffic_changes(draw, tenants):
    """Overrides for a service spec's horizon, limits and every tenant's traffic.

    The tenants offer equal shares of a drawn fraction of
    ``MAX_OFFERED_REQUESTS``, and each ``mmpp`` tenant switches phases a
    drawn fraction of the bound's times.  The horizon, the burst factors and
    tails, now and then the first tenant's gap, and up to three more traffic
    or tenant fields take their declarations' draws.
    """
    draws = traffic_draws(tenants)
    duration = draw(st.sampled_from(draws["traffic.duration_us"][0]))
    changes = {
        "traffic.duration_us": duration,
        "traffic.admission": draw(st.sampled_from(tuple(ADMISSION_CONTROLLERS))),
        "traffic.scheduler": draw(st.sampled_from(tuple(SCHEDULERS))),
    }
    offered = draw(st.sampled_from(BOUND_FRACTIONS)) * MAX_OFFERED_REQUESTS / len(tenants)
    for name in tenants:
        where = f"traffic.tenants.{name}."
        process = draw(st.sampled_from(ARRIVAL_PROCESSES))
        burst = draw(st.sampled_from(draws[where + "burst_factor"][0]))
        scale = burst if process == "mmpp" else 1.0
        phases = draw(st.sampled_from(BOUND_FRACTIONS)) * MAX_OFFERED_REQUESTS
        changes.update(
            {
                where + "arrival_process": process,
                where + "burst_factor": burst,
                where + "mean_interarrival_us": duration * scale / offered,
                where + "phase_us": duration / phases,
                where + "size_dist": draw(st.sampled_from(SIZE_DISTRIBUTIONS)),
                where + "alpha": draw(st.sampled_from(draws[where + "alpha"][0])),
            }
        )
    first_gap = f"traffic.tenants.{tenants[0]}.mean_interarrival_us"
    extreme_gap = draw(st.sampled_from([None, None, None, *draws[first_gap][0]]))
    if extreme_gap is not None:
        changes[first_gap] = extreme_gap
    changes.update(draw(st.lists(st.sampled_from(in_range(draws)), max_size=3)))
    return changes


def with_param_workload(data, changes):
    """``data`` running the workload that takes each drawn workload parameter."""
    for path in changes:
        if path.startswith(PARAMS):
            data["workload"] = {**data["workload"], "params": {}}
            data["workload"]["kind"] = PARAM_WORKLOADS[path[len(PARAMS) :]]
    return data


def fuzzed_spec(base, changes, noise, policy):
    """Validate ``base`` with the drawn changes applied (may raise ReproError)."""
    data = with_param_workload(get_scenario(base).to_dict(), changes)
    data["noise"] = noise
    data["network"] = None if policy is None else {"routing": {"policy": policy}}
    return ScenarioSpec.from_dict(apply_overrides(data, changes))


@given(
    base=st.sampled_from(list_scenarios()),
    changes=overrides,
    numeric=st.lists(st.sampled_from(in_range(BATCH_DRAWS)), max_size=3),
    noise=st.sampled_from([None, {}]),
    policy=routing_policies,
)
@settings(max_examples=30, deadline=None)
def test_every_valid_spec_runs_or_fails_fast(base, changes, numeric, noise, policy):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = api.run(fuzzed_spec(base, {**changes, **dict(numeric)}, noise, policy))
        except ReproError:
            return
    assert math.isfinite(result.makespan_us) and result.makespan_us >= 0.0
    for kind, share in result.view.utilisation.items():
        assert math.isfinite(share) and 0.0 <= share <= 1.0, (kind, share)


@given(
    data=st.data(),
    backend=st.sampled_from(tuple(BACKENDS)),
    allocator=st.sampled_from(ALLOCATORS),
)
@settings(max_examples=15, deadline=None)
def test_every_valid_traffic_spec_runs_or_fails_fast(data, backend, allocator):
    spec = get_scenario(data.draw(st.sampled_from(SERVICE_SCENARIOS))).to_dict()
    changes = data.draw(traffic_changes(sorted(spec["traffic"]["tenants"])))
    changes["runtime.backend"] = backend
    changes["runtime.allocator"] = allocator
    changes["runtime.max_events"] = MAX_EVENTS
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = api.run(ScenarioSpec.from_dict(apply_overrides(spec, changes)))
        except ReproError:
            return
    assert math.isfinite(result.makespan_us) and result.makespan_us >= 0.0
    view = result.service
    assert view.offered == view.admitted + view.dropped


PAST_CASES = [
    ("smoke", path, value) for path, (_, past) in BATCH_DRAWS.items() for value in past
] + [
    ("service_smoke", path, value)
    for path, (_, past) in traffic_draws(sorted(get_scenario("service_smoke").traffic.tenants)).items()
    for value in past
]


@pytest.mark.parametrize("base, path, value", PAST_CASES)
def test_values_just_past_a_declared_end_are_refused(base, path, value):
    changes = {path: value}
    if path.startswith("topology.options."):
        changes["topology.kind"] = OPTION_FABRICS[path.rsplit(".", 1)[1]]
    data = with_param_workload(get_scenario(base).to_dict(), changes)
    with pytest.raises(ScenarioError, match=re.escape(path)):
        ScenarioSpec.from_dict(apply_overrides(data, changes))
