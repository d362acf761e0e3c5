"""Tests for the runtime layer: cache, parallel runner and CLI."""

import os
import shutil
import time

import pytest

from repro.analysis.fig16 import allocation_for_ratio
from repro.analysis.series import TableData
from repro.analysis.sweeps import linear_space
from repro.errors import ConfigurationError
from repro.network.nodes import ResourceAllocation
from repro.runtime.cache import (
    ResultCache,
    fingerprinted_files,
    parameter_hash,
    source_fingerprint,
)
from repro.runtime.cli import main
from repro.runtime.runner import ExperimentRunner


class TestParameterHash:
    def test_stable_across_calls(self):
        params = {"layout": "home_base", "ratio": 4}
        assert parameter_hash(params) == parameter_hash(params)

    def test_dict_order_insensitive(self):
        assert parameter_hash({"a": 1, "b": 2}) == parameter_hash({"b": 2, "a": 1})

    def test_different_params_differ(self):
        assert parameter_hash({"ratio": 1}) != parameter_hash({"ratio": 2})

    def test_dataclasses_hash_by_value(self):
        assert parameter_hash(ResourceAllocation(2, 2, 1)) == parameter_hash(
            ResourceAllocation(2, 2, 1)
        )
        assert parameter_hash(ResourceAllocation(2, 2, 1)) != parameter_hash(
            ResourceAllocation(2, 2, 2)
        )

    def test_nested_structures(self):
        a = {"grid": [4, 8], "alloc": ResourceAllocation(1, 1, 1)}
        b = {"alloc": ResourceAllocation(1, 1, 1), "grid": [4, 8]}
        assert parameter_hash(a) == parameter_hash(b)

    def test_key_type_collision_regression(self):
        # str(k) coercion used to make these four hash identically, so
        # {1: x} could be served {"1": x}'s cached result.
        assert parameter_hash({1: "x"}) != parameter_hash({"1": "x"})
        assert parameter_hash({True: "x"}) != parameter_hash({1: "x"})
        assert parameter_hash({1.0: "x"}) != parameter_hash({1: "x"})
        # Equal keys of equal type still collapse to one slot.
        assert parameter_hash({1: "x"}) == parameter_hash({1: "x"})

    def test_mixed_type_keys_stay_order_insensitive(self):
        assert parameter_hash({1: "a", "b": 2}) == parameter_hash({"b": 2, 1: "a"})
        assert parameter_hash({(1, "x"): 1, "y": 2}) == parameter_hash(
            {"y": 2, (1, "x"): 1}
        )

    def test_source_fingerprint_is_stable(self):
        # The fingerprint ties cache entries to the package source; within a
        # process it must be a constant.
        assert source_fingerprint() == source_fingerprint()
        assert len(source_fingerprint()) == 16

    def test_source_fingerprint_covers_scenarios_package(self):
        # Cached artefacts must be invalidated by spec-schema edits, so the
        # scenario modules have to be part of the fingerprint.
        covered = set(fingerprinted_files())
        assert os.path.join("scenarios", "spec.py") in covered
        assert os.path.join("scenarios", "catalog.py") in covered
        assert os.path.join("runtime", "cache.py") in covered
        assert not any("__pycache__" in path for path in covered)

    def test_scenario_edit_changes_fingerprint(self, tmp_path):
        # Simulate a spec-schema edit on a copy of the package: the
        # fingerprint must change, which is what flushes stale cache entries.
        import repro

        package_root = os.path.dirname(os.path.abspath(repro.__file__))
        copy_root = str(tmp_path / "repro")
        shutil.copytree(
            package_root,
            copy_root,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        before = source_fingerprint(copy_root)
        assert before == source_fingerprint(package_root)
        with open(os.path.join(copy_root, "scenarios", "spec.py"), "a") as handle:
            handle.write("\n# schema tweak\n")
        assert source_fingerprint(copy_root) != before


class TestResultCache:
    def test_put_get_roundtrip(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        key = parameter_hash({"x": 1})
        cache.put(key, {"value": 42})
        assert key in cache
        assert cache.get(key) == {"value": 42}
        assert len(cache) == 1

    def test_missing_key_returns_default(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        assert cache.get("nope", default="fallback") == "fallback"

    def test_corrupt_entry_is_a_miss_and_healed(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        key = parameter_hash({"x": 1})
        with open(cache.path_for(key), "wb") as handle:
            handle.write(b"not a pickle")
        assert cache.get(key) is None
        assert key not in cache

    def test_clear(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        for i in range(3):
            cache.put(parameter_hash({"i": i}), i)
        assert cache.clear() == 3
        assert len(cache) == 0

    def test_transient_io_error_is_a_miss_that_leaves_the_entry(self, tmp_path, monkeypatch):
        # EACCES/EMFILE-style failures must not delete a valid entry: the
        # next (healthy) read should still find it.
        cache = ResultCache(str(tmp_path))
        key = parameter_hash({"x": 1})
        cache.put(key, {"value": 42})

        import builtins

        real_open = builtins.open

        def flaky_open(path, *args, **kwargs):
            if str(path) == cache.path_for(key):
                raise PermissionError(13, "Permission denied", str(path))
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", flaky_open)
        assert cache.get(key, default="miss") == "miss"
        monkeypatch.undo()
        assert cache.get(key) == {"value": 42}  # entry survived the fault

    def test_stale_tmp_files_reaped_on_init(self, tmp_path):
        # Plant the leak a crashed put() writer leaves behind, aged past the
        # concurrent-writer grace period.
        stale = tmp_path / "deadbeef.tmp"
        stale.write_bytes(b"half a pickle")
        old = time.time() - 7200
        os.utime(stale, (old, old))
        fresh = tmp_path / "live.tmp"
        fresh.write_bytes(b"concurrent writer")

        ResultCache(str(tmp_path))
        assert not stale.exists()  # reaped
        assert fresh.exists()  # a live writer's file is left alone

    def test_clear_reaps_tmp_files_regardless_of_age(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put(parameter_hash({"x": 1}), 1)
        planted = tmp_path / "crashed.tmp"
        planted.write_bytes(b"leftover")
        assert cache.clear() == 2  # the entry and the leaked temp file
        assert list(tmp_path.iterdir()) == []


class TestExperimentRunner:
    def test_runs_registry_experiments(self, tmp_path):
        runner = ExperimentRunner(cache_dir=str(tmp_path))
        results = runner.run(["table1", "table2"])
        assert set(results) == {"table1", "table2"}
        assert isinstance(results["table1"], TableData)

    def test_second_run_hits_cache(self, tmp_path):
        runner = ExperimentRunner(cache_dir=str(tmp_path))
        first = runner.run(["table1"])
        assert len(runner.cache) == 1
        # Poison the cached artifact; a cache hit returns the poisoned value.
        key = next(iter(runner.cache.keys()))
        runner.cache.put(key, "poisoned")
        assert runner.run(["table1"]) == {"table1": "poisoned"}
        # force recomputes and heals the entry.
        healed = runner.run(["table1"], force=True)
        assert isinstance(healed["table1"], TableData)
        assert healed["table1"].title == first["table1"].title

    def test_unknown_identifier_rejected_before_running(self, tmp_path):
        runner = ExperimentRunner(cache_dir=str(tmp_path))
        with pytest.raises(ConfigurationError):
            runner.run(["definitely_not_an_experiment"])

    def test_no_cache_mode_writes_nothing(self, tmp_path):
        runner = ExperimentRunner(cache_dir=str(tmp_path), use_cache=False)
        runner.run(["table1"])
        assert runner.cache is None
        assert list(tmp_path.iterdir()) == []

    def test_invalid_workers_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentRunner(workers=0)

    def test_sweep_runs_grid_in_order(self, tmp_path):
        runner = ExperimentRunner(cache_dir=str(tmp_path))
        grid = [{"start": 0.0, "stop": 1.0, "count": n} for n in (2, 3)]
        points = runner.sweep_records(linear_space, grid)
        assert [point.result for point in points] == [[0.0, 1.0], [0.0, 0.5, 1.0]]

    def test_sweep_caches_points(self, tmp_path):
        runner = ExperimentRunner(cache_dir=str(tmp_path))
        grid = [{"ratio": 1}, {"ratio": 8}]
        first = runner.sweep_records(allocation_for_ratio, grid)
        assert len(runner.cache) == 2
        second = runner.sweep_records(allocation_for_ratio, grid)
        assert all(point.cached for point in second)
        assert [point.result for point in second] == [point.result for point in first]

    def test_sweep_rejects_unimportable_callables(self, tmp_path):
        runner = ExperimentRunner(cache_dir=str(tmp_path))
        with pytest.raises(ConfigurationError):
            runner.sweep_records(lambda x: x, [{"x": 1}])

    def test_pool_path_with_multiple_workers(self, tmp_path):
        runner = ExperimentRunner(workers=2, cache_dir=str(tmp_path))
        grid = [{"start": 0.0, "stop": 2.0, "count": n} for n in (2, 3, 5)]
        points = runner.sweep_records(linear_space, grid)
        assert [len(point.result) for point in points] == [2, 3, 5]


class TestCli:
    def test_list_command(self, capsys):
        assert main(["experiments", "list"]) == 0
        out = capsys.readouterr().out
        assert "figure16" in out and "[heavy]" in out

    def test_run_command_prints_artifacts(self, tmp_path, capsys):
        code = main(["experiments", "run", "table1", "--cache-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "[table1]" in out and "Teleport" in out

    def test_run_unknown_experiment_fails_cleanly(self, tmp_path, capsys):
        code = main(["experiments", "run", "nope", "--cache-dir", str(tmp_path)])
        assert code == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_report_command(self, tmp_path, capsys):
        code = main(["experiments", "report", "--cache-dir", str(tmp_path), "--points", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Reproduction report" in out
        assert "[figure12]" in out
