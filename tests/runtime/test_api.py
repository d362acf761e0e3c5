"""The repro.api facade: load, run, serve, sweep — the stable surface."""

import json

import pytest

from repro import api
from repro.errors import ScenarioError
from repro.scenarios import ScenarioSpec, get_scenario, list_scenarios


class TestLoadScenario:
    def test_catalog_name_resolves(self):
        spec = api.load_scenario("smoke")
        assert spec == get_scenario("smoke")

    def test_catalog_name_with_mismatched_name_rejected(self):
        with pytest.raises(ScenarioError, match="does not contain"):
            api.load_scenario("smoke", name="other")

    def test_file_with_one_scenario_loads(self, tmp_path):
        path = tmp_path / "one.json"
        path.write_text(json.dumps({**get_scenario("smoke").to_dict(), "name": "solo"}))
        assert api.load_scenario(str(path)).name == "solo"

    def test_file_with_many_scenarios_needs_a_name(self, tmp_path):
        body = get_scenario("smoke").to_dict()
        path = tmp_path / "many.json"
        path.write_text(
            json.dumps({"scenarios": [{**body, "name": "a"}, {**body, "name": "b"}]})
        )
        with pytest.raises(ScenarioError, match="pass name="):
            api.load_scenario(str(path))
        assert api.load_scenario(str(path), name="b").name == "b"
        with pytest.raises(ScenarioError, match="no scenario named"):
            api.load_scenario(str(path), name="c")

    def test_missing_source_lists_the_catalog(self):
        with pytest.raises(ScenarioError, match="neither a built-in"):
            api.load_scenario("no_such_scenario.yaml")


class TestRunAndServe:
    def test_run_returns_a_typed_batch_result(self):
        result = api.run(api.load_scenario("smoke"))
        assert result.mode == "batch"
        assert result.batch is not None

    def test_run_accepts_plain_mappings_and_backend_override(self):
        payload = get_scenario("smoke").to_dict()
        result = api.run(payload, backend="detailed")
        assert result.backend == "detailed"

    def test_serve_returns_a_typed_service_result(self):
        result = api.serve(api.load_scenario("service_smoke"))
        assert result.mode == "service"
        assert result.service is not None
        assert result.service.offered > 0

    def test_serve_rejects_batch_scenarios(self):
        with pytest.raises(ScenarioError, match="no traffic section"):
            api.serve(api.load_scenario("smoke"))

    def test_run_dispatches_service_specs_transparently(self):
        assert api.run(api.load_scenario("service_smoke")).mode == "service"


class TestSweep:
    def test_sweep_returns_labelled_flat_records(self, tmp_path):
        specs = [get_scenario("smoke"), get_scenario("service_smoke")]
        records = api.sweep(specs, cache_dir=str(tmp_path), workers=1)
        assert [record["name"] for record in records] == ["smoke", "service_smoke"]
        assert all("cached" in record for record in records)
        assert "offered" in records[1] and "offered" not in records[0]

    def test_sweep_cache_round_trips(self, tmp_path):
        spec = get_scenario("smoke")
        first = api.sweep([spec], cache_dir=str(tmp_path), workers=1)
        second = api.sweep([spec], cache_dir=str(tmp_path), workers=1)
        assert first[0]["cached"] is False
        assert second[0]["cached"] is True
        assert first[0]["spec_hash"] == second[0]["spec_hash"]

    def test_sweep_turns_each_spec_into_a_dict_twice(self, tmp_path, monkeypatch):
        """Once for the point's canonical payload and once for the run's
        record: the record's spec hash and the sweep's identity ``spec``
        reuse those dicts instead of converting the spec again."""
        from repro.scenarios import spec as spec_module

        specs = [get_scenario(name) for name in ("smoke", "smoke_noisy", "service_smoke")]
        expected = [(json.dumps(spec.to_dict()), spec.spec_hash) for spec in specs]
        calls = []
        asdict = spec_module.asdict
        monkeypatch.setattr(spec_module, "asdict", lambda obj: calls.append(obj) or asdict(obj))
        records = api.sweep(specs, cache_dir=str(tmp_path), use_cache=False, workers=1)
        assert len(calls) == 2 * len(specs)
        assert [(json.dumps(r["spec"]), r["spec_hash"]) for r in records] == expected

    def test_sweep_rejects_empty_input(self):
        with pytest.raises(ScenarioError, match="at least one"):
            api.sweep([])

    def test_facade_exports_are_pinned(self):
        assert api.__all__ == ["load_scenario", "run", "serve", "sweep"]
        assert "service_smoke" in list_scenarios()
        assert isinstance(api.load_scenario("service_smoke"), ScenarioSpec)
