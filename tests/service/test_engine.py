"""ServiceSimulator end-to-end: conservation, determinism, backend parity."""

import pytest

from repro.errors import ConfigurationError
from repro.scenarios import get_scenario
from repro.scenarios.run import build_machine
from repro.scenarios.spec import TrafficSpec
from repro.service import ServiceSimulator, ServiceView
from repro.trace import CANONICAL_KINDS, ChannelClosed, RequestCompleted, TraceBus

TRAFFIC = TrafficSpec.from_dict(
    {
        "duration_us": 3000.0,
        "seed": 4,
        "max_inflight": 2,
        "tenants": {
            "alpha": {"arrival_process": "poisson", "mean_interarrival_us": 500.0},
            "beta": {"arrival_process": "fixed", "mean_interarrival_us": 800.0},
        },
    }
)


def _machine():
    return build_machine(get_scenario("smoke"))


def _run(traffic=TRAFFIC, *, backend="fluid", trace=None):
    return ServiceSimulator(_machine(), backend=backend).run(traffic, trace=trace)


def _completion_order(backend="fluid"):
    bus = TraceBus(kinds=CANONICAL_KINDS)
    _run(backend=backend, trace=bus)
    return [record.request_id for record in bus.filtered([RequestCompleted.kind])]


class TestServiceRun:
    def test_lifecycle_conservation_with_always_admit(self):
        bus = TraceBus(kinds=CANONICAL_KINDS)
        result = _run(trace=bus)
        assert isinstance(result, ServiceView)
        assert result.offered > 0
        assert result.admitted == result.offered
        assert result.dropped == 0
        assert result.completed == result.admitted
        assert 0.0 < result.latency_p50_us <= result.latency_p99_us
        assert result.utilisation
        assert all(0.0 <= v <= 1.0 for v in result.utilisation.values())
        tenants = result.tenants.values()
        completed_channels = sum(t["completed_channels"] for t in tenants)
        assert completed_channels == sum(t["offered_channels"] for t in tenants)
        assert len(bus.filtered([ChannelClosed.kind])) == completed_channels

    def test_makespan_covers_the_drain(self):
        result = _run()
        assert result.makespan_us >= result.duration_us or result.completed == 0
        assert result.fidelity is None  # smoke has no noise section

    def test_completion_order_is_deterministic(self):
        assert _completion_order() == _completion_order()
        assert _run() == _run()

    def test_both_backends_complete_the_same_requests(self):
        fluid = _completion_order(backend="fluid")
        detailed = _completion_order(backend="detailed")
        assert fluid and sorted(fluid) == sorted(detailed)
        assert _run(backend="fluid").offered == _run(backend="detailed").offered

    def test_queue_bound_admission_drops_under_pressure(self):
        traffic = TrafficSpec.from_dict(
            {
                "duration_us": 3000.0,
                "seed": 4,
                "max_inflight": 1,
                "admission": "queue_bound",
                "queue_limit": 1,
                "tenants": {
                    "hot": {"arrival_process": "fixed", "mean_interarrival_us": 40.0}
                },
            }
        )
        result = _run(traffic)
        assert result.dropped > 0
        assert result.admitted + result.dropped == result.offered
        assert result.completed == result.admitted
        reasons = result.tenants["hot"]["drop_reasons"]
        assert reasons == {"queue_full": result.dropped}

    def test_trace_bus_must_accept_request_kinds(self):
        narrow = TraceBus(kinds=("run_end",), keep_records=False)
        with pytest.raises(ConfigurationError, match="request-lifecycle"):
            _run(trace=narrow)

    def test_canonical_bus_carries_the_request_lifecycle(self):
        bus = TraceBus(kinds=CANONICAL_KINDS)
        result = _run(trace=bus)
        kinds = {record.kind for record in bus.records}
        assert {"req_arrive", "req_admit", "req_dispatch", "req_complete"} <= kinds
        arrivals = [r for r in bus.records if r.kind == "req_arrive"]
        assert len(arrivals) == result.offered


class TestNoiseTrackedService:
    def test_noise_section_yields_fidelity_summary(self):
        spec = get_scenario("service_smoke")
        assert spec.traffic is not None
        machine = build_machine(spec)
        summary = ServiceSimulator(machine).run(spec.traffic).fidelity
        if machine.track_fidelity:
            assert summary is not None
            assert 0.0 < summary["min"] <= summary["mean"] <= 1.0
        else:
            assert summary is None
