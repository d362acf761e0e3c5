"""Crash-resume integration tests: killed sweeps restart without recomputing.

The scenarios the ISSUE demands, end to end through ExperimentRunner:

* a sweep interrupted mid-run (simulated by a truncated final journal line
  and by workers raising partway through the grid) resumes computing only
  the missing points, byte-identical to a clean run;
* a grid with one always-raising point finishes every other point, with the
  failure captured as a structured error record (and retried on resume).
"""

import functools
import json

import pytest

import sweep_helpers
from repro.analysis import experiments
from repro.analysis.experiments import Experiment
from repro.errors import SweepError
from repro.runtime.journal import journal_status, read_journal
from repro.runtime.runner import ExperimentRunner


def _grid(tmp_path, values, log_name="calls.log"):
    log_path = str(tmp_path / log_name)
    return log_path, [{"value": v, "log_path": log_path} for v in values]


def _runner(tmp_path, **kwargs):
    return ExperimentRunner(workers=1, cache_dir=str(tmp_path / "cache"), **kwargs)


class TestJournalResume:
    def test_completed_journal_recomputes_nothing(self, tmp_path):
        journal = str(tmp_path / "sweep.jsonl")
        log_path, grid = _grid(tmp_path, range(6))
        runner = _runner(tmp_path)
        first = runner.sweep_records(
            sweep_helpers.record_and_square, grid, journal=journal
        )
        assert [p.result for p in first] == [v * v for v in range(6)]
        assert sorted(sweep_helpers.executed_values(log_path)) == list(range(6))

        again = runner.sweep_records(
            sweep_helpers.record_and_square, grid, journal=journal
        )
        # No new executions: every point came back from the journal.
        assert sorted(sweep_helpers.executed_values(log_path)) == list(range(6))
        assert all(p.journaled for p in again)
        assert [p.result for p in again] == [p.result for p in first]

    def test_truncated_tail_resumes_only_the_lost_point(self, tmp_path):
        journal = str(tmp_path / "sweep.jsonl")
        log_path, grid = _grid(tmp_path, range(6))
        runner = _runner(tmp_path)
        clean = runner.sweep_records(
            sweep_helpers.record_and_square, grid, journal=journal
        )

        # Simulate a crash mid-write: cut the final journal line in half.
        raw = (tmp_path / "sweep.jsonl").read_bytes()
        cut = raw.rstrip(b"\n").rfind(b"\n") + 12
        (tmp_path / "sweep.jsonl").write_bytes(raw[:cut])
        lost_key = clean[-1].cache_key
        assert lost_key not in read_journal(journal).points

        resumed = runner.sweep_records(
            sweep_helpers.record_and_square, grid, journal=journal
        )
        # Exactly one extra execution: the point whose line was truncated.
        executed = sweep_helpers.executed_values(log_path)
        assert len(executed) == 7
        assert executed[-1] == 5
        # The resumed records match the clean run bitwise.
        assert [p.result for p in resumed] == [p.result for p in clean]
        assert [p.params for p in resumed] == [p.params for p in clean]
        assert [p.journaled for p in resumed] == [True] * 5 + [False]
        assert journal_status(journal)["complete"] is True

    def test_killed_sweep_keeps_every_finished_point(self, tmp_path):
        journal = str(tmp_path / "sweep.jsonl")
        marker = tmp_path / "resume.marker"
        log_path = str(tmp_path / "calls.log")
        grid = [
            {"value": v, "bad": 3, "marker_path": str(marker), "log_path": log_path}
            for v in range(6)
        ]
        runner = _runner(tmp_path)
        with pytest.raises(KeyboardInterrupt):
            runner.sweep_records(sweep_helpers.interrupt_on, grid, journal=journal)
        # Each point is journaled as it finishes, not when its shard does.
        assert journal_status(journal)["ok"] == 3

        marker.write_text("resume\n")
        resumed = runner.sweep_records(sweep_helpers.interrupt_on, grid, journal=journal)
        assert [p.result for p in resumed] == [v * v for v in range(6)]
        assert sweep_helpers.executed_values(log_path) == [0, 1, 2, 3, 3, 4, 5]

    def test_worker_raising_after_n_points_resumes_missing(self, tmp_path):
        journal = str(tmp_path / "sweep.jsonl")
        marker = str(tmp_path / "healed.marker")
        grid = [{"value": v, "marker_path": marker} for v in range(5)]
        runner = _runner(tmp_path)

        # First run: every point fails (the marker does not exist yet) —
        # the batch still completes, journaling five structured failures.
        first = runner.sweep_records(
            sweep_helpers.fail_until_marker, grid, journal=journal
        )
        assert all(p.error is not None for p in first)
        assert all(p.error["type"] == "RuntimeError" for p in first)
        status = journal_status(journal)
        assert status["error_count"] == 5 and status["ok"] == 0

        # Heal the fault and resume: the failed points are retried.
        with open(marker, "w", encoding="utf-8") as handle:
            handle.write("healed\n")
        resumed = runner.sweep_records(
            sweep_helpers.fail_until_marker, grid, journal=journal
        )
        assert [p.result for p in resumed] == [v * v for v in range(5)]
        assert journal_status(journal)["complete"] is True

    def test_journaled_results_match_clean_run_bitwise(self, tmp_path):
        """The scenario path: flat records survive the JSON round trip exactly."""
        from repro.scenarios import default_grid
        from repro.scenarios.run import run_record

        specs = default_grid(topologies=["mesh", "ring"], workloads=["permutation"])
        grid = [{"spec": spec.canonical_dict()} for spec in specs]
        runner = _runner(tmp_path, use_cache=False)
        clean = runner.sweep_records(run_record, grid)

        journal = str(tmp_path / "scenarios.jsonl")
        journaled = _runner(tmp_path, use_cache=False).sweep_records(
            run_record, grid, journal=journal
        )
        resumed = _runner(tmp_path, use_cache=False).sweep_records(
            run_record, grid, journal=journal
        )
        assert all(p.journaled for p in resumed)

        def strip_wall(points):
            records = []
            for point in points:
                record = dict(point.result)
                record.pop("wall_time_s")  # the only nondeterministic column
                records.append(record)
            return records

        assert strip_wall(resumed) == strip_wall(journaled)
        assert json.dumps(strip_wall(resumed), sort_keys=True) == json.dumps(
            strip_wall(clean), sort_keys=True
        )


class TestFaultIsolation:
    def test_poisoned_point_does_not_kill_the_batch(self, tmp_path):
        log_path, _ = _grid(tmp_path, [])
        grid = [{"value": v, "bad": 2, "log_path": log_path} for v in range(5)]
        runner = _runner(tmp_path)
        points = runner.sweep_records(sweep_helpers.fail_on, grid)
        assert [p.ok for p in points] == [True, True, False, True, True]
        assert [p.result for p in points] == [0, 1, None, 9, 16]
        failure = points[2].error
        assert failure["type"] == "ValueError"
        assert "poisoned point 2" in failure["message"]
        assert "ValueError" in failure["traceback"]
        # Every point — the poisoned one included — actually executed.
        assert sorted(sweep_helpers.executed_values(log_path)) == list(range(5))

    def test_failures_are_never_cached(self, tmp_path):
        grid = [{"value": 2, "bad": 2}]
        runner = _runner(tmp_path)
        first = runner.sweep_records(sweep_helpers.fail_on, grid)
        assert first[0].error is not None
        assert len(runner.cache) == 0  # the failure did not poison the slot
        healed = runner.sweep_records(
            sweep_helpers.fail_on, [{"value": 2, "bad": -1}]
        )
        assert healed[0].result == 4

    def test_sweep_results_surface_raises_after_isolation(self, tmp_path, monkeypatch):
        # ExperimentRunner.run is the results-only surface: it raises
        # SweepError once any experiment failed, but only after the rest ran.
        log_path, _ = _grid(tmp_path, [])
        probes = {
            f"probe{v}": Experiment(
                identifier=f"probe{v}",
                kind="claim",
                description="fault-isolation probe",
                expectation="",
                runner=functools.partial(sweep_helpers.fail_on, v, 1, log_path),
            )
            for v in range(3)
        }
        monkeypatch.setattr(experiments, "EXPERIMENTS", {**experiments.EXPERIMENTS, **probes})
        runner = _runner(tmp_path)
        with pytest.raises(SweepError, match="1 of 3 experiments failed"):
            runner.run(list(probes))
        # Fault isolation still ran the siblings before raising.
        assert sorted(sweep_helpers.executed_values(log_path)) == [0, 1, 2]

    def test_retries_heal_transient_failures(self, tmp_path):
        marker_dir = tmp_path / "markers"
        marker_dir.mkdir()
        grid = [{"value": v, "marker_dir": str(marker_dir)} for v in range(3)]
        runner = _runner(tmp_path)
        points = runner.sweep_records(sweep_helpers.fail_once, grid, retries=1)
        assert [p.result for p in points] == [0, 1, 4]
        assert all(p.attempts == 2 for p in points)


class TestJournalModeContracts:
    def test_journal_bypasses_the_pickle_cache(self, tmp_path):
        journal = str(tmp_path / "sweep.jsonl")
        log_path, grid = _grid(tmp_path, range(3))
        runner = _runner(tmp_path)
        runner.sweep_records(sweep_helpers.record_and_square, grid, journal=journal)
        assert len(runner.cache) == 0  # one store per sweep, not one pickle per point

    def test_force_recomputes_journaled_points(self, tmp_path):
        journal = str(tmp_path / "sweep.jsonl")
        log_path, grid = _grid(tmp_path, range(3))
        runner = _runner(tmp_path)
        runner.sweep_records(sweep_helpers.record_and_square, grid, journal=journal)
        runner.sweep_records(
            sweep_helpers.record_and_square, grid, journal=journal, force=True
        )
        assert len(sweep_helpers.executed_values(log_path)) == 6

    def test_unserializable_result_fails_loudly(self, tmp_path):
        from repro.errors import ConfigurationError

        journal = str(tmp_path / "sweep.jsonl")
        runner = _runner(tmp_path)
        with pytest.raises(ConfigurationError, match="JSON-serializable"):
            runner.sweep_records(
                sweep_helpers.unpicklable_result,
                [{"value": "k"}],
                journal=journal,
            )
