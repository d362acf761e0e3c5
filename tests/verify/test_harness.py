"""Differential-verification harness behaviour."""

import dataclasses

import pytest

from repro.errors import ScenarioError
from repro.scenarios import ScenarioSpec, apply_overrides, get_scenario
from repro.trace import (
    CANONICAL_KINDS,
    FlowRateChanged,
    OperationRetired,
    RequestCompleted,
    RunStarted,
)
from repro.verify import (
    DIFFERENTIAL_KINDS,
    compare_backend_runs,
    compare_runs,
    harness,
    traced_run,
    verify_backends,
    verify_scenario,
)


class TestTracedRun:
    def test_traced_run_defaults_to_differential_kinds(self):
        run = traced_run(get_scenario("smoke"))
        kinds = {record.kind for record in run.records}
        assert kinds <= DIFFERENTIAL_KINDS
        assert FlowRateChanged.kind in kinds
        assert isinstance(run.records[0], RunStarted)
        assert run.makespan_us == run.result.makespan_us

    def test_allocator_override(self):
        run = traced_run(get_scenario("smoke"), allocator="reference")
        assert run.allocator == "reference"

    def test_overrides_are_validated_as_spec_fields(self):
        run = traced_run(get_scenario("smoke"), allocator="Vectorized", backend=" FLUID")
        assert (run.spec.runtime.allocator, run.spec.runtime.backend) == ("vectorized", "fluid")
        assert (run.allocator, run.backend) == ("vectorized", "fluid")
        for field in ("allocator", "backend"):
            with pytest.raises(ScenarioError, match=f"runtime.{field} must be one of"):
                traced_run(get_scenario("smoke"), **{field: "bogus"})

    def test_accepts_plain_mapping(self):
        spec = get_scenario("smoke")
        run = traced_run(spec.to_dict(), kinds=CANONICAL_KINDS)
        assert run.spec == spec


class TestVerifyScenario:
    def test_catalog_scenarios_agree_across_allocators(self):
        for name in ("smoke", "ring_qft", "torus_permutation"):
            verdict = verify_scenario(get_scenario(name))
            assert verdict.ok, [str(d) for d in verdict.divergences]
            assert verdict.allocators == ("incremental", "reference", "vectorized")
            assert verdict.makespan_us > 0
            assert verdict.operations > 0

    def test_rejects_single_allocator(self):
        with pytest.raises(ScenarioError):
            verify_scenario(get_scenario("smoke"), allocators=["incremental"])

    def test_rejects_unknown_allocator(self):
        with pytest.raises(ScenarioError):
            verify_scenario(get_scenario("smoke"), allocators=["incremental", "bogus"])


class TestCompareRuns:
    def test_detects_makespan_and_timeline_divergence(self):
        a = traced_run(get_scenario("smoke"))
        b = traced_run(get_scenario("smoke"))
        # Forge a diverging run: shift the makespan and drop one rate record.
        batch = dataclasses.replace(b.result.batch, makespan_us=b.makespan_us + 1.0)
        forged = dataclasses.replace(b, result=dataclasses.replace(b.result, batch=batch))
        forged.records = [
            record
            for record in b.records
            if record.kind != FlowRateChanged.kind or record.t_us > 0.0
        ]
        aspects = {d.aspect for d in compare_runs(a, forged)}
        assert "makespan" in aspects
        assert "rate_timeline" in aspects

    def test_detects_op_order_divergence(self):
        a = traced_run(get_scenario("smoke"))
        b = traced_run(get_scenario("smoke"))
        retire_indices = [
            i for i, r in enumerate(b.records) if r.kind == OperationRetired.kind
        ]
        x, y = retire_indices[0], retire_indices[1]
        b.records[x], b.records[y] = b.records[y], b.records[x]
        aspects = {d.aspect for d in compare_runs(a, b)}
        assert "op_order" in aspects

    def test_agreement_is_empty(self):
        a = traced_run(get_scenario("smoke"))
        b = traced_run(get_scenario("smoke"))
        assert compare_runs(a, b) == []


class TestBackendCrossCheck:
    def test_fluid_and_detailed_backends_agree_on_catalog(self):
        for name in ("smoke", "line_neighbours"):
            divergences = verify_backends(get_scenario(name))
            assert divergences == [], [str(d) for d in divergences]

    @pytest.mark.parametrize("name", ["smoke", "ring_qft"])
    @pytest.mark.parametrize("teleporters", [1, 3])
    def test_backends_agree_at_odd_teleporter_counts(self, name, teleporters):
        # Both backends size each X/Y set at max(t/2, 0.5) teleporters.
        spec = get_scenario(name).to_dict()
        spec = ScenarioSpec.from_dict(apply_overrides(spec, {"physics.teleporters": teleporters}))
        divergences = verify_backends(spec)
        assert divergences == [], [str(d) for d in divergences]

    def test_service_scenarios_are_diffed_as_traffic(self, monkeypatch):
        # Service runs retire no operations, so only the traffic comparison
        # notices a detailed run that lost its last request completion.
        real_traced_run = harness.traced_run

        def lossy(spec, **overrides):
            run = real_traced_run(spec, **overrides)
            if run.backend == "detailed":
                last = run.of_kind(RequestCompleted.kind)[-1]
                run.records = [record for record in run.records if record is not last]
            return run

        monkeypatch.setattr(harness, "traced_run", lossy)
        aspects = {d.aspect for d in verify_backends(get_scenario("service_smoke"))}
        assert "traffic_completion_set" in aspects

    def test_traced_run_honours_backend(self):
        run = traced_run(get_scenario("smoke"), backend="detailed")
        assert run.backend == "detailed"
        assert run.result.backend == "detailed"
        assert run.makespan_us > 0

    def test_tight_ratio_reports_divergence(self):
        # With an absurdly tight tolerance the check must trip — proving the
        # comparison actually measures something.
        divergences = verify_backends(
            get_scenario("smoke"), makespan_ratio=1.0000001, order_tolerance=0.0
        )
        assert divergences
        aspects = {d.aspect for d in divergences}
        assert "backend_makespan" in aspects

    def test_rejects_single_backend(self):
        with pytest.raises(ScenarioError):
            verify_backends(get_scenario("smoke"), backends=["fluid"])

    def test_rejects_unknown_backend(self):
        with pytest.raises(ScenarioError):
            verify_backends(get_scenario("smoke"), backends=["fluid", "bogus"])

    def test_compare_backend_runs_detects_op_set_mismatch(self):
        a = traced_run(get_scenario("smoke"), backend="fluid")
        b = traced_run(get_scenario("smoke"), backend="detailed")
        b.records = [r for r in b.records if r.kind != OperationRetired.kind][:-1] + [
            r for r in b.records if r.kind == OperationRetired.kind
        ][:-1]
        aspects = {d.aspect for d in compare_backend_runs(a, b)}
        assert "backend_op_set" in aspects
