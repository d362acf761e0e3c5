"""End-to-end scenario tests: build, run, allocator parity, runner and CLI."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.runtime.cli import main
from repro.runtime.runner import ExperimentRunner
from repro.scenarios import (
    ScenarioSpec,
    build_machine,
    build_stream,
    default_grid,
    get_scenario,
    run_record,
)


class TestBuild:
    def test_machine_matches_spec(self):
        spec = get_scenario("torus_permutation")
        machine = build_machine(spec)
        assert machine.topology.fabric == "torus"
        assert machine.topology.wrap_x and machine.topology.wrap_y
        assert machine.num_qubits == 16
        assert machine.allocation.teleporters_per_node == 2

    def test_stream_matches_spec(self):
        spec = get_scenario("line_neighbours")
        stream = build_stream(spec)
        assert stream.num_qubits == 8
        assert "nearest_neighbour" in stream.name

    def test_bandwidth_scale_reaches_machine(self):
        spec = ScenarioSpec.from_dict(
            {
                "name": "fast_factories",
                "topology": {"kind": "mesh", "width": 3},
                "workload": {"kind": "qft", "num_qubits": 4},
                "physics": {"generators": 2, "generator_bandwidth_scale": 2.5},
            }
        )
        machine = build_machine(spec)
        assert machine.generator_bandwidth_per_link() == pytest.approx(5.0)


class TestRunScenario:
    def test_round_trip_spec_build_run_results(self):
        spec = get_scenario("smoke")
        record = run_record(spec)
        assert record["name"] == "smoke"
        assert record["spec_hash"] == spec.spec_hash
        assert record["makespan_us"] > 0
        assert record["operations"] == 15  # QFT on 6 qubits
        assert record["channel_count"] == 30  # two communications per op
        # The record round-trips through JSON (what --format json prints)
        # and through the spec codec.
        assert json.loads(json.dumps(record))["spec"] == spec.to_dict()
        assert ScenarioSpec.from_dict(record["spec"]) == spec

    def test_accepts_plain_mapping(self):
        record = run_record(get_scenario("smoke").to_dict())
        assert record["name"] == "smoke"

    def test_qubits_must_fit_fabric(self):
        spec_dict = get_scenario("ring_qft").to_dict()
        spec_dict["workload"]["num_qubits"] = 10  # ring has 9 nodes
        with pytest.raises(ConfigurationError, match="do not fit"):
            run_record(spec_dict)

    def test_wrap_fabric_shortens_makespan(self):
        # Same workload and physics; the ring's wrap links shorten the mean
        # channel, so it must not be slower than the line.
        line = run_record(
            ScenarioSpec.from_dict(
                {
                    "name": "l",
                    "topology": {"kind": "line", "width": 9},
                    "workload": {"kind": "qft", "num_qubits": 8},
                }
            )
        )
        ring = run_record(
            ScenarioSpec.from_dict(
                {
                    "name": "r",
                    "topology": {"kind": "ring", "width": 9},
                    "workload": {"kind": "qft", "num_qubits": 8},
                }
            )
        )
        assert ring["total_hops"] < line["total_hops"]
        assert ring["makespan_us"] < line["makespan_us"]

    def test_allocators_agree_on_wrap_fabrics(self):
        # The three-way allocator parity must survive the new fabrics.
        for name in ("ring_qft", "torus_permutation"):
            base = get_scenario(name).to_dict()
            makespans = {}
            for allocator in ("incremental", "reference", "vectorized"):
                data = json.loads(json.dumps(base))
                data["runtime"]["allocator"] = allocator
                makespans[allocator] = run_record(data)["makespan_us"]
            for allocator in ("incremental", "vectorized"):
                assert makespans[allocator] == pytest.approx(
                    makespans["reference"], abs=1e-6
                )


class TestRunnerIntegration:
    def test_grid_sweeps_through_pool_with_cache(self, tmp_path):
        specs = default_grid(("mesh", "ring"), ("permutation",))
        runner = ExperimentRunner(workers=2, cache_dir=str(tmp_path))
        grid = [{"spec": spec.to_dict()} for spec in specs]
        first = runner.sweep_records(run_record, grid)
        assert [p.cached for p in first] == [False, False]
        second = runner.sweep_records(run_record, grid)
        assert [p.cached for p in second] == [True, True]
        assert [p.result["makespan_us"] for p in second] == [
            p.result["makespan_us"] for p in first
        ]

    def test_corrupt_cache_entry_reports_recompute_not_hit(self, tmp_path):
        spec = get_scenario("smoke")
        runner = ExperimentRunner(cache_dir=str(tmp_path))
        grid = [{"spec": spec.to_dict()}]
        (point,) = runner.sweep_records(run_record, grid)
        with open(runner.cache.path_for(point.cache_key), "wb") as handle:
            handle.write(b"truncated")
        (again,) = runner.sweep_records(run_record, grid)
        # The entry existed on disk but could not be served: the point must
        # report a recompute, not a hit (the bench trajectory depends on it).
        assert not again.cached
        assert again.result["makespan_us"] == point.result["makespan_us"]


class TestCli:
    def test_scenarios_list(self, capsys):
        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        assert "smoke" in out and "torus_permutation" in out

    def test_scenarios_run_named(self, tmp_path, capsys):
        code = main(["scenarios", "run", "smoke", "--cache-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "smoke" in out and "makespan" in out

    def test_backends_lists_registered_backends(self, capsys):
        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        assert "fluid" in out and "detailed" in out

    def test_scenarios_run_backend_override(self, tmp_path, capsys):
        code = main(
            [
                "scenarios",
                "run",
                "smoke",
                "--backend",
                "detailed",
                "--no-cache",
                "--format",
                "json",
            ]
        )
        assert code == 0
        (record,) = json.loads(capsys.readouterr().out)
        assert record["backend"] == "detailed"

    def test_scenarios_run_unknown_backend_fails_cleanly(self, tmp_path, capsys):
        code = main(
            ["scenarios", "run", "smoke", "--backend", "warp", "--no-cache"]
        )
        assert code == 2
        assert "runtime.backend" in capsys.readouterr().err

    def test_scenarios_run_unknown_name(self, tmp_path, capsys):
        code = main(["scenarios", "run", "nope", "--cache-dir", str(tmp_path)])
        assert code == 2
        assert "unknown scenario names" in capsys.readouterr().err

    def test_scenarios_sweep_reports_cache_hits(self, tmp_path, capsys):
        argv = [
            "scenarios",
            "sweep",
            "--topologies",
            "mesh,torus",
            "--workloads",
            "permutation",
            "--cache-dir",
            str(tmp_path / "cache"),
            "--format",
            "json",
        ]
        assert main(argv) == 0
        records = json.loads(capsys.readouterr().out)
        assert len(records) == 2
        assert not any(record["cached"] for record in records)
        assert {record["topology_kind"] for record in records} == {"mesh", "torus"}
        assert all(record["makespan_us"] > 0 for record in records)
        # Second run: every point is served from the cache, and each record
        # says so.
        assert main(argv) == 0
        again = json.loads(capsys.readouterr().out)
        assert all(record["cached"] for record in again)
        assert [record["makespan_us"] for record in again] == [
            record["makespan_us"] for record in records
        ]

    def test_scenarios_sweep_from_spec_file(self, tmp_path, capsys):
        path = tmp_path / "sweep.json"
        path.write_text(
            json.dumps(
                {
                    "name": "filegrid",
                    "base": "smoke",
                    "sweep": {"workload.num_qubits": [4, 6]},
                }
            )
        )
        code = main(
            [
                "scenarios",
                "sweep",
                "--spec",
                str(path),
                "--cache-dir",
                str(tmp_path / "cache"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "filegrid/workload.num_qubits=4" in out
        assert "filegrid/workload.num_qubits=6" in out

    def test_malformed_spec_file_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"name": "bad", "topology": {"kind": "hypercube"}}')
        code = main(["scenarios", "run", "--spec", str(path)])
        assert code == 2
        assert "topology.kind" in capsys.readouterr().err
