"""Standing fuzz test: every spec the validator accepts runs or fails fast.

Hypothesis derives specs from the catalog entries, varying the topology kind
and size, the (t, g, p) allocation, ``generator_bandwidth_scale`` and
``logical_gate_us`` (both ends of each accepted range included), the layout,
the noise model, the routing policy, the allocator and the backend.  Service
scenarios also draw their traffic: the horizon (at and just past the clock
bound too), each tenant's arrival process and size distribution, and gaps,
bursts, phases and tails at, inside and just past the bounds on offered
requests and MMPP phases.
Each spec goes through :func:`repro.api.run` with warnings raised as errors
and must either complete with finite results or raise a
:class:`~repro.errors.ReproError`: the validator or the machine build
refusing it, an infeasible channel, or the event budget running out.

``runtime.max_events`` is always set.  A run that exhausts it must raise a
``SimulationError`` naming the field; that is part of the contract under
test, not a way to skip slow specs.
"""

import math
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.errors import ReproError
from repro.scenarios import ScenarioSpec, apply_overrides, get_scenario, list_scenarios
from repro.scenarios.spec import (
    ALLOCATOR_NAMES,
    ARRIVAL_PROCESSES,
    BACKEND_NAMES,
    CLOCK_US_MAX,
    GENERATOR_BANDWIDTH_SCALE_RANGE,
    MAX_OFFERED_REQUESTS,
    SIZE_DISTRIBUTIONS,
)

#: Events one fuzzed run may dispatch before it must stop and say so.
MAX_EVENTS = 50_000

overrides = st.fixed_dictionaries(
    {
        "topology.kind": st.sampled_from(
            ["line", "ring", "mesh", "torus", "fat_tree", "leaf_spine", "dragonfly"]
        ),
        "topology.width": st.integers(min_value=3, max_value=12),
        "physics.teleporters": st.integers(min_value=1, max_value=4),
        "physics.generators": st.integers(min_value=1, max_value=4),
        "physics.purifiers": st.integers(min_value=1, max_value=3),
        "physics.generator_bandwidth_scale": st.sampled_from(
            [GENERATOR_BANDWIDTH_SCALE_RANGE[0], 0.5, 1.0, 3.0, GENERATOR_BANDWIDTH_SCALE_RANGE[1]]
        ),
        "physics.logical_gate_us": st.sampled_from([0.0, 300.0, CLOCK_US_MAX]),
        "runtime.layout": st.sampled_from(["home_base", "mobile_qubit"]),
        "runtime.allocator": st.sampled_from(ALLOCATOR_NAMES),
        "runtime.backend": st.sampled_from(BACKEND_NAMES),
        "runtime.max_events": st.just(MAX_EVENTS),
    }
)

noise_sections = st.one_of(
    st.none(),
    st.fixed_dictionaries(
        {},
        optional={
            "base_fidelity": st.sampled_from([0.9, 0.99, 0.999, 0.9999]),
            "gate_error": st.sampled_from([1e-7, 1e-5, 1e-3]),
            "measurement_error": st.sampled_from([1e-7, 1e-4, 1e-2]),
            "target_fidelity": st.sampled_from([0.99, 0.9999]),
        },
    ),
)

routing_policies = st.sampled_from([None, "ecmp", "least_loaded", "adaptive"])

SERVICE_SCENARIOS = [name for name in list_scenarios() if get_scenario(name).traffic is not None]

#: Fractions of a traffic bound: inside it, exactly at it, and just past it
#: (repeated entries weight the draws towards specs that run to the end).
BOUND_FRACTIONS = [1e-4, 1e-3, 1e-3, 1.0, 1.0 + 1e-9]


@st.composite
def traffic_changes(draw, tenants):
    """Overrides for a service spec's horizon and every tenant's traffic.

    The tenants offer equal shares of a drawn fraction of
    ``MAX_OFFERED_REQUESTS``, and each ``mmpp`` tenant switches phases a
    drawn fraction of the bound's times.  Now and then the first tenant
    draws a gap so small or so large that its rate leaves the float range.
    """
    duration = draw(
        st.sampled_from([1.0, 4000.0, 1e9, CLOCK_US_MAX, math.nextafter(CLOCK_US_MAX, math.inf)])
    )
    changes = {"traffic.duration_us": duration}
    offered = draw(st.sampled_from(BOUND_FRACTIONS)) * MAX_OFFERED_REQUESTS / len(tenants)
    for name in tenants:
        where = f"traffic.tenants.{name}."
        process = draw(st.sampled_from(ARRIVAL_PROCESSES))
        burst = draw(st.sampled_from([1.0, 4.0, 1e300]))
        scale = burst if process == "mmpp" else 1.0
        phases = draw(st.sampled_from(BOUND_FRACTIONS)) * MAX_OFFERED_REQUESTS
        changes.update(
            {
                where + "arrival_process": process,
                where + "burst_factor": burst,
                where + "mean_interarrival_us": duration * scale / offered,
                where + "phase_us": duration / phases,
                where + "size_dist": draw(st.sampled_from(SIZE_DISTRIBUTIONS)),
                where + "alpha": draw(st.sampled_from([5e-324, 1.5, 1e300])),
            }
        )
    extreme_gap = draw(st.sampled_from([None, None, None, 5e-324, 1e300]))
    if extreme_gap is not None:
        changes[f"traffic.tenants.{tenants[0]}.mean_interarrival_us"] = extreme_gap
    return changes


def fuzzed_spec(base, changes, noise, policy):
    """Validate ``base`` with the drawn changes applied (may raise ReproError)."""
    data = apply_overrides(get_scenario(base).to_dict(), changes)
    data["noise"] = noise
    data["network"] = None if policy is None else {"routing": {"policy": policy}}
    return ScenarioSpec.from_dict(data)


@given(
    base=st.sampled_from(list_scenarios()),
    changes=overrides,
    noise=noise_sections,
    policy=routing_policies,
)
@settings(max_examples=30, deadline=None)
def test_every_valid_spec_runs_or_fails_fast(base, changes, noise, policy):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = api.run(fuzzed_spec(base, changes, noise, policy))
        except ReproError:
            return
    assert math.isfinite(result.makespan_us) and result.makespan_us >= 0.0
    for kind, share in result.view.utilisation.items():
        assert math.isfinite(share) and 0.0 <= share <= 1.0, (kind, share)


@given(
    data=st.data(),
    backend=st.sampled_from(BACKEND_NAMES),
    allocator=st.sampled_from(ALLOCATOR_NAMES),
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
