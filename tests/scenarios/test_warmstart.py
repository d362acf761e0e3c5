"""Cross-run warm-start cache: keying, adoption, purity and sweep plumbing."""

import pytest

from repro.runtime import ExperimentRunner
from repro.scenarios import build_machine, build_stream, get_scenario, run_record
from repro.scenarios.spec import ScenarioSpec, apply_overrides
from repro.scenarios.warmstart import (
    WarmStartCache,
    attach,
    global_cache,
    structural_key,
)
from repro.sim.simulator import CommunicationSimulator


def _variant(spec, overrides):
    return ScenarioSpec.from_dict(apply_overrides(spec.to_dict(), overrides))


class TestStructuralKey:
    def test_non_structural_knobs_share_one_key(self):
        spec = get_scenario("smoke")
        base = structural_key(spec)
        for overrides in (
            {"physics.generator_bandwidth_scale": 2.5},
            {"physics.logical_gate_us": 123.0},
            {"runtime.allocator": "vectorized"},
            {"runtime.backend": "detailed"},
            {"runtime.max_events": 10_000},
        ):
            assert structural_key(_variant(spec, overrides)) == base, overrides

    def test_structural_knobs_change_the_key(self):
        spec = get_scenario("smoke")
        base = structural_key(spec)
        for overrides in (
            {"topology.width": 4},
            {"physics.teleporters": 7},
            {"runtime.layout": "mobile_qubit"},
            {"workload.num_qubits": 8},
        ):
            assert structural_key(_variant(spec, overrides)) != base, overrides


class TestWarmStartCache:
    def test_hit_miss_counters_and_reuse(self):
        cache = WarmStartCache(max_entries=4)
        entry, hit = cache.entry_for("k")
        assert not hit and entry.reuses == 0
        again, hit = cache.entry_for("k")
        assert hit and again is entry and again.reuses == 1
        assert cache.stats() == {"hits": 1, "misses": 1, "entries": 1}

    def test_lru_eviction_drops_oldest(self):
        cache = WarmStartCache(max_entries=2)
        cache.entry_for("a")
        cache.entry_for("b")
        cache.entry_for("a")  # refresh a; b is now the LRU entry
        cache.entry_for("c")  # evicts b
        assert cache.stats()["entries"] == 2
        _, hit = cache.entry_for("a")
        assert hit
        _, hit = cache.entry_for("b")
        assert not hit

    def test_clear_resets_counters(self):
        cache = WarmStartCache()
        cache.entry_for("k")
        cache.entry_for("k")
        cache.clear()
        assert cache.stats() == {"hits": 0, "misses": 0, "entries": 0}


class TestAttachment:
    def test_second_machine_adopts_populated_entry_and_agrees_bitwise(self):
        spec = get_scenario("smoke")
        cache = WarmStartCache()
        stream = build_stream(spec)

        first = build_machine(spec)
        info = attach(first, spec, cache=cache)
        assert info["hit"] is False and info["plans"] == 0
        cold = CommunicationSimulator(first).run(stream)

        second = build_machine(spec)
        info = attach(second, spec, cache=cache)
        assert info["hit"] is True
        assert info["plans"] > 0  # the first run populated the shared entry
        assert info["demands"] > 0
        warm = CommunicationSimulator(second).run(stream)
        # Warm-started state is a pure function of the structural key: the
        # adopted plans/profiles/demands must not move a single bit.
        assert warm.makespan_us == cold.makespan_us
        assert warm.operation_count == cold.operation_count

    def test_result_metadata_carries_warm_start_info(self):
        spec = get_scenario("smoke")
        machine = build_machine(spec)
        result = CommunicationSimulator(machine).run(build_stream(spec))
        info = result.metadata["warm_start"]
        assert info["key"] == structural_key(spec)
        assert set(info) >= {"hit", "reuses", "plans", "hits", "misses"}

    def test_swept_scalar_variants_share_an_entry(self):
        spec = get_scenario("smoke")
        cache = WarmStartCache()
        for scale in (1.0, 1.5, 2.0):
            variant = _variant(spec, {"physics.generator_bandwidth_scale": scale})
            machine = build_machine(variant)
            attach(machine, variant, cache=cache)
        stats = cache.stats()
        assert stats == {"hits": 2, "misses": 1, "entries": 1}


class TestSweepPlumbing:
    def test_single_worker_sweep_hits_across_points(self, tmp_path):
        """The acceptance gate: a repeated-structure sweep records hits > 0."""
        global_cache().clear()
        spec = get_scenario("smoke")
        grid = [
            {"spec": apply_overrides(spec.to_dict(), {"physics.generator_bandwidth_scale": s})}
            for s in (1.0, 1.25, 1.5)
        ]
        runner = ExperimentRunner(workers=1, cache_dir=str(tmp_path / "cache"))
        points = runner.sweep_records(run_record, grid)
        assert [point.ok for point in points] == [True, True, True]
        stats = global_cache().stats()
        assert stats["hits"] >= 2
        assert stats["entries"] >= 1


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
