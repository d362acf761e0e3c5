"""Fluid-vs-detailed traffic parity: open-loop service runs must agree.

``verify_backends`` diffs a service scenario's two runs as traffic
(:func:`~repro.verify.harness.compare_traffic_runs`).
"""

import pytest

from repro.errors import ScenarioError
from repro.scenarios import get_scenario
from repro.trace import RequestCompleted
from repro.verify import compare_traffic_runs, verify_backends
from repro.verify.harness import traced_run


class TestVerifyTraffic:
    def test_catalog_service_scenario_passes_parity(self):
        divergences = verify_backends(get_scenario("service_smoke"))
        assert divergences == [], [str(d) for d in divergences]

    def test_traced_run_carries_the_service_result(self):
        run = traced_run(get_scenario("service_smoke"), backend="fluid")
        assert run.result.mode == "service"
        assert run.result.service.offered > 0
        assert run.makespan_us > 0

    def test_rejects_single_backend(self):
        with pytest.raises(ScenarioError, match="at least two backends"):
            verify_backends(get_scenario("service_smoke"), backends=["fluid"])

    def test_rejects_unknown_backend(self):
        with pytest.raises(ScenarioError, match="unknown backends"):
            verify_backends(get_scenario("service_smoke"), backends=["fluid", "bogus"])

    def test_tight_order_tolerance_still_holds_on_identical_runs(self):
        # Same backend twice is bitwise identical, so even zero tolerance holds.
        a = traced_run(get_scenario("service_smoke"), backend="fluid")
        b = traced_run(get_scenario("service_smoke"), backend="fluid")
        assert compare_traffic_runs(a, b, order_tolerance=0.0) == []

    def test_detects_completion_set_mismatch(self):
        a = traced_run(get_scenario("service_smoke"), backend="fluid")
        b = traced_run(get_scenario("service_smoke"), backend="detailed")
        last = a.of_kind(RequestCompleted.kind)[-1].request_id
        b.records = [
            record
            for record in b.records
            if not (record.kind == RequestCompleted.kind and record.request_id == last)
        ]
        aspects = {d.aspect for d in compare_traffic_runs(a, b)}
        assert "traffic_completion_set" in aspects

    def test_detects_arrival_stream_divergence_and_stops(self):
        a = traced_run(get_scenario("service_smoke"), backend="fluid")
        b = traced_run(get_scenario("service_smoke"), backend="detailed")
        b.records = [record for record in b.records if record.kind != "req_arrive"]
        divergences = compare_traffic_runs(a, b)
        # A corrupted offer invalidates everything downstream: the diff must
        # report exactly the arrival divergence and nothing else.
        assert [d.aspect for d in divergences] == ["traffic_arrivals"]
