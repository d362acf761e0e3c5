"""The typed RunResult surface: views, flat records and whole-result pins.

Whole run results of ``smoke``, ``smoke_noisy`` and ``service_smoke`` are
pinned in ``run_result_pins.json``.  After a change that is *meant* to alter
them, regenerate the file with::

    PYTHONPATH=src python tests/scenarios/test_run_result.py
"""

import json
import warnings
from pathlib import Path

import pytest

from repro.errors import ScenarioError, SimulationError
from repro.scenarios import ScenarioSpec, apply_overrides, get_scenario, run, run_record
from repro.scenarios.run import (
    RESULT_SCHEMA_VERSION,
    SERVICE_SCHEMA_VERSION,
    BatchView,
    RunResult,
    ServiceView,
)
from repro.verify import traced_run

RUN_RESULT_PINS = Path(__file__).with_name("run_result_pins.json")
PINNED_SCENARIOS = ("smoke", "smoke_noisy", "service_smoke")


def _result_pin(name):
    """``flat_record()`` and ``to_dict()`` of one catalog run, minus wall time."""
    result = run(get_scenario(name))
    flat = result.flat_record()
    whole = result.to_dict()
    flat.pop("wall_time_s")
    whole.pop("wall_time_s")
    return {"flat_record": flat, "to_dict": whole}


def _budgeted(name, max_events):
    data = apply_overrides(get_scenario(name).to_dict(), {"runtime.max_events": max_events})
    return ScenarioSpec.from_dict(data)


class TestBatchRunResult:
    def test_batch_run_populates_exactly_the_batch_view(self):
        result = run(get_scenario("smoke"))
        assert result.mode == "batch"
        assert result.schema == RESULT_SCHEMA_VERSION
        assert result.batch is not None and result.service is None
        assert result.batch.operations > 0
        assert result.makespan_us == result.batch.makespan_us

    def test_flat_record_matches_run_record(self):
        spec = get_scenario("smoke")
        flat = run(spec).flat_record()
        record = run_record(spec)
        # wall_time_s is the only nondeterministic column.
        flat.pop("wall_time_s")
        record.pop("wall_time_s")
        assert flat == record
        assert "offered" not in record  # batch records carry no service columns

    def test_flat_record_preserves_historical_key_order(self):
        record = run_record(get_scenario("smoke"))
        assert list(record)[:5] == ["schema", "name", "label", "spec_hash", "spec"]
        assert list(record)[-1] == "wall_time_s"

    def test_run_record_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            run_record(get_scenario("smoke"))


class TestServiceRunResult:
    def test_service_run_populates_exactly_the_service_view(self):
        result = run(get_scenario("service_smoke"))
        assert result.mode == "service"
        assert result.schema == SERVICE_SCHEMA_VERSION
        assert result.service is not None and result.batch is None
        view = result.service
        assert view.offered > 0
        assert view.admitted + view.dropped == view.offered
        assert view.completed == view.admitted
        assert 0.0 <= view.drop_rate <= 1.0
        assert sorted(view.tenants) == ["bulk", "latency"]

    def test_flat_record_carries_the_steady_state_columns(self):
        record = run_record(get_scenario("service_smoke"))
        for key in (
            "offered",
            "drop_rate",
            "latency_p99_us",
            "delivered_load_per_ms",
            "max_queue_depth",
            "tenants",
        ):
            assert key in record, key
        assert record["schema"] == SERVICE_SCHEMA_VERSION
        assert "operations" not in record

    def test_event_budget_bounds_a_service_run(self):
        # runtime.max_events stops service runs as it stops batch runs: a run
        # it cuts short raises instead of reporting a truncated stream.
        for runner in (run, traced_run):
            with pytest.raises(SimulationError, match="runtime.max_events"):
                runner(_budgeted("service_smoke", 5))
        roomy = run(_budgeted("service_smoke", 10**9))
        assert roomy.service == run(get_scenario("service_smoke")).service


class TestBatchEventBudget:
    @pytest.mark.parametrize("backend", ["fluid", "detailed"])
    def test_a_run_cut_short_names_the_budget(self, backend):
        spec = _budgeted("smoke", 5).with_backend(backend)
        with pytest.raises(SimulationError, match="runtime.max_events"):
            run(spec)

    @pytest.mark.parametrize("backend", ["fluid", "detailed"])
    def test_a_roomy_budget_changes_nothing(self, backend):
        roomy = run(_budgeted("smoke", 10**9).with_backend(backend))
        assert roomy.batch == run(get_scenario("smoke").with_backend(backend)).batch


class TestWholeResultPins:
    @pytest.mark.parametrize("name", PINNED_SCENARIOS)
    def test_result_matches_its_pin(self, name):
        # Compared as JSON text, so key order and int/float types are pinned too.
        pinned = json.loads(RUN_RESULT_PINS.read_text(encoding="utf-8"))[name]
        actual = _result_pin(name)
        for form in ("flat_record", "to_dict"):
            assert json.dumps(actual[form]) == json.dumps(pinned[form]), form


class TestViewExclusivity:
    def _envelope_kwargs(self):
        return dict(
            schema=2,
            name="x",
            label="x",
            spec_hash="0" * 16,
            spec={},
            machine="m",
            workload="w",
            topology_kind="mesh",
            layout="home_base",
            allocator="incremental",
            backend="fluid",
            wall_time_s=0.0,
        )

    def test_runresult_requires_exactly_one_view(self):
        batch = BatchView(
            operations=1, channel_count=1, total_hops=1, makespan_us=1.0,
            classical_messages=None,
        )
        service = ServiceView(
            duration_us=1.0, makespan_us=1.0, offered=1, admitted=1, dropped=0,
            completed=1, drop_rate=0.0, offered_load_per_ms=1.0,
            delivered_load_per_ms=1.0, latency_p50_us=1.0, latency_p99_us=1.0,
            wait_p50_us=0.0, wait_p99_us=0.0, max_queue_depth=1,
        )
        with pytest.raises(ScenarioError, match="batch XOR service"):
            RunResult(**self._envelope_kwargs())
        with pytest.raises(ScenarioError, match="batch XOR service"):
            RunResult(**self._envelope_kwargs(), batch=batch, service=service)


class TestSpecHashStability:
    def test_traffic_section_changes_the_hash_absence_does_not(self):
        base = get_scenario("smoke")
        service = get_scenario("service_smoke")
        assert "traffic" not in base.to_dict()
        assert service.spec_hash != base.spec_hash
        stripped = service.with_traffic(None)
        assert "traffic" not in stripped.to_dict()


if __name__ == "__main__":
    pins = {name: _result_pin(name) for name in PINNED_SCENARIOS}
    RUN_RESULT_PINS.write_text(json.dumps(pins, indent=1) + "\n", encoding="utf-8")
