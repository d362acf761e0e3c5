"""Open-loop traffic generation: determinism, ordering, stream isolation."""

import pytest

from repro.errors import ScenarioError
from repro.scenarios.spec import TenantSpec, TrafficSpec
from repro.service.arrivals import generate_requests, tenant_requests
from repro.sim import QuantumMachine

NODES = list(QuantumMachine(4).topology.nodes())


def _traffic(**overrides):
    payload = {
        "duration_us": 5000.0,
        "seed": 7,
        "tenants": {
            "alpha": {"arrival_process": "poisson", "mean_interarrival_us": 400.0},
            "beta": {
                "arrival_process": "fixed",
                "mean_interarrival_us": 750.0,
                "size_dist": "pareto",
                "channels": 2,
                "max_channels": 5,
            },
        },
    }
    payload.update(overrides)
    return TrafficSpec.from_dict(payload)


class TestTenantStreams:
    def test_same_spec_yields_bitwise_identical_stream(self):
        traffic = _traffic()
        first = generate_requests(traffic, NODES)
        second = generate_requests(traffic, NODES)
        assert first == second

    def test_fixed_process_arrives_on_the_grid(self):
        tenant = TenantSpec.from_dict(
            {"arrival_process": "fixed", "mean_interarrival_us": 500.0}
        )
        requests = tenant_requests("grid", tenant, NODES, duration_us=2600.0, seed=1)
        assert [r.arrival_us for r in requests] == [500.0, 1000.0, 1500.0, 2000.0, 2500.0]

    def test_arrivals_stay_inside_the_horizon(self):
        for request in generate_requests(_traffic(), NODES):
            assert 0.0 < request.arrival_us < 5000.0

    def test_pareto_sizes_respect_floor_and_cap(self):
        tenant = TenantSpec.from_dict(
            {
                "arrival_process": "fixed",
                "mean_interarrival_us": 50.0,
                "size_dist": "pareto",
                "channels": 2,
                "max_channels": 4,
                "alpha": 1.1,
            }
        )
        requests = tenant_requests("tail", tenant, NODES, duration_us=5000.0, seed=3)
        sizes = {r.channels for r in requests}
        assert sizes and all(1 <= size <= 4 for size in sizes)

    def test_pareto_infinite_draw_is_capped(self):
        # With a tiny alpha every draw is inf; the cap must apply before int().
        tenant = TenantSpec.from_dict(
            {
                "arrival_process": "fixed",
                "mean_interarrival_us": 500.0,
                "size_dist": "pareto",
                "max_channels": 6,
                "alpha": 5e-324,
            }
        )
        requests = tenant_requests("tail", tenant, NODES, duration_us=2600.0, seed=3)
        assert [r.channels for r in requests] == [6] * 5

    def test_endpoints_are_distinct_nodes(self):
        for request in generate_requests(_traffic(), NODES):
            assert request.source != request.dest

    def test_tenant_metadata_reaches_every_request(self):
        tenant = TenantSpec.from_dict(
            {
                "arrival_process": "fixed",
                "mean_interarrival_us": 900.0,
                "priority": 2,
                "target_fidelity": 0.999,
            }
        )
        for request in tenant_requests("meta", tenant, NODES, duration_us=4000.0, seed=0):
            assert request.priority == 2
            assert request.target_fidelity == 0.999


class TestMergedStream:
    def test_global_ids_are_dense_and_ordered_by_arrival(self):
        requests = generate_requests(_traffic(), NODES)
        assert [r.request_id for r in requests] == list(range(len(requests)))
        arrivals = [r.arrival_us for r in requests]
        assert arrivals == sorted(arrivals)

    def test_adding_a_tenant_never_perturbs_existing_draws(self):
        # Stream isolation: each tenant draws from substreams addressed by
        # its own name, so a third tenant must leave alpha/beta untouched.
        base = generate_requests(_traffic(), NODES)
        widened = _traffic(
            tenants={
                "alpha": {"arrival_process": "poisson", "mean_interarrival_us": 400.0},
                "beta": {
                    "arrival_process": "fixed",
                    "mean_interarrival_us": 750.0,
                    "size_dist": "pareto",
                    "channels": 2,
                    "max_channels": 5,
                },
                "gamma": {"arrival_process": "mmpp", "mean_interarrival_us": 600.0},
            }
        )
        merged = generate_requests(widened, NODES)

        def key(request):
            return (request.tenant, request.arrival_us, request.channels)

        survivors = [key(r) for r in merged if r.tenant != "gamma"]
        assert survivors == [key(r) for r in base]

    def test_seed_change_moves_the_random_streams(self):
        base = generate_requests(_traffic(), NODES)
        reseeded = generate_requests(_traffic(seed=8), NODES)
        assert [r.arrival_us for r in base] != [r.arrival_us for r in reseeded]

    def test_mmpp_offers_more_than_its_quiet_phase(self):
        bursty = TrafficSpec.from_dict(
            {
                "duration_us": 20000.0,
                "seed": 5,
                "tenants": {
                    "b": {
                        "arrival_process": "mmpp",
                        "mean_interarrival_us": 500.0,
                        "burst_factor": 8.0,
                        "phase_us": 2000.0,
                    }
                },
            }
        )
        assert len(generate_requests(bursty, NODES)) > 0

    def test_needs_two_nodes_for_distinct_endpoints(self):
        with pytest.raises(ScenarioError, match="at least 2"):
            generate_requests(_traffic(), NODES[:1])
