"""The noun-verb CLI surface: serve, --format json and sweep status."""

import json

from repro.runtime.cli import main


class TestServe:
    def test_serve_catalog_scenario_text_report(self, capsys):
        assert main(["serve", "--scenario", "service_smoke"]) == 0
        out = capsys.readouterr().out
        assert "offered" in out
        assert "p99" in out
        assert "drop rate" in out
        assert "bulk" in out and "latency" in out

    def test_serve_json_report_is_the_typed_result(self, capsys):
        assert main(["serve", "--scenario", "service_smoke", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mode"] == "service"
        assert payload["batch"] is None
        assert payload["service"]["offered"] > 0
        assert payload["service"]["admitted"] + payload["service"]["dropped"] == (
            payload["service"]["offered"]
        )

    def test_serve_backend_override(self, capsys):
        assert main(
            ["serve", "--scenario", "service_smoke", "--backend", "detailed",
             "--format", "json"]
        ) == 0
        assert json.loads(capsys.readouterr().out)["backend"] == "detailed"

    def test_serve_spec_file(self, tmp_path, capsys):
        from repro.scenarios import get_scenario

        path = tmp_path / "svc.json"
        path.write_text(json.dumps(get_scenario("service_smoke").to_dict()))
        assert main(["serve", "--spec", str(path)]) == 0
        assert "offered" in capsys.readouterr().out

    def test_serve_requires_exactly_one_source(self, capsys):
        assert main(["serve"]) == 2
        err = capsys.readouterr().err
        assert "--scenario" in err and "--spec" in err
        assert main(["serve", "--scenario", "a", "--spec", "b"]) == 2

    def test_serve_rejects_batch_scenarios(self, capsys):
        assert main(["serve", "--scenario", "smoke"]) == 2
        assert "traffic" in capsys.readouterr().err


class TestFormatOption:
    def test_scenarios_run_format_json(self, tmp_path, capsys):
        assert main(
            ["scenarios", "run", "smoke", "--format", "json",
             "--cache-dir", str(tmp_path)]
        ) == 0
        records = json.loads(capsys.readouterr().out)
        assert [record["name"] for record in records] == ["smoke"]

    def test_scenarios_list_format_json(self, capsys):
        assert main(["scenarios", "list", "--format", "json"]) == 0
        names = [entry["name"] for entry in json.loads(capsys.readouterr().out)]
        assert "smoke" in names and "service_smoke" in names

    def test_mixed_batch_and_service_table(self, tmp_path, capsys):
        assert main(
            ["scenarios", "run", "smoke", "service_smoke",
             "--cache-dir", str(tmp_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "makespan" in out
        assert "p99=" in out  # the service row renders steady-state columns


class TestSweepStatus:
    def _journaled_sweep(self, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        assert main(
            ["scenarios", "run", "smoke", "--no-cache", "--workers", "1",
             "--journal", str(journal)]
        ) == 0
        return journal

    def test_status_text_reports_complete_journal(self, tmp_path, capsys):
        journal = self._journaled_sweep(tmp_path)
        capsys.readouterr()
        assert main(["sweep", "status", str(journal)]) == 0
        out = capsys.readouterr().out
        assert "1/1 ok" in out
        assert "complete" in out

    def test_status_json_is_machine_readable(self, tmp_path, capsys):
        journal = self._journaled_sweep(tmp_path)
        capsys.readouterr()
        assert main(["sweep", "status", str(journal), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["total"] == 1
        assert payload["ok"] == 1
        assert payload["missing"] == 0
        assert payload["complete"] is True
        assert payload["errors"] == []

    def test_status_missing_journal_fails_cleanly(self, tmp_path, capsys):
        assert main(["sweep", "status", str(tmp_path / "nope.jsonl")]) == 2
        assert "no sweep journal" in capsys.readouterr().err

    def test_journaled_rerun_reports_journal_provenance(self, tmp_path, capsys):
        journal = self._journaled_sweep(tmp_path)
        capsys.readouterr()
        assert main(
            ["scenarios", "run", "smoke", "--no-cache", "--workers", "1",
             "--journal", str(journal), "--format", "json"]
        ) == 0
        (record,) = json.loads(capsys.readouterr().out)
        assert record["journaled"] is True
        assert record["cached"] is False

