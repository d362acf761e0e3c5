"""Cross-run EPR budget memo: its key, what shares an entry, and purity."""

from types import SimpleNamespace

import pytest

from repro.analysis.fig16 import figure16_specs
from repro.runtime import ExperimentRunner
from repro.scenarios import build_machine, get_scenario, run, run_record
from repro.scenarios.spec import ScenarioSpec, apply_overrides
from repro.scenarios.warmstart import BudgetMemo, global_cache
from repro.trace import CANONICAL_KINDS, TraceBus, records_to_lines


def _variant(name, overrides):
    return ScenarioSpec.from_dict(apply_overrides(get_scenario(name).to_dict(), overrides))


#: Specs with ``smoke``'s physics: each shares smoke's budgets.
SAME_PHYSICS = {
    "allocation": ("smoke", {"physics.teleporters": 4, "physics.generators": 3, "physics.purifiers": 2}),
    "layout": ("smoke", {"runtime.layout": "mobile_qubit"}),
    "fabric": ("smoke", {"topology.kind": "torus", "topology.width": 4}),
    "workload": ("smoke", {"workload.kind": "permutation", "workload.num_qubits": 4}),
    "allocator": ("smoke", {"runtime.allocator": "vectorized"}),
    "backend": ("smoke", {"runtime.backend": "detailed"}),
    "bandwidth_scale": ("smoke", {"physics.generator_bandwidth_scale": 2.5}),
    "logical_gate_us": ("smoke", {"physics.logical_gate_us": 123.0}),
    "traffic": ("service_smoke", {}),
    "routing": ("smoke", {"network.routing.policy": "ecmp"}),
}
#: Changes to ``smoke``'s physics: each needs budgets of its own.
OTHER_PHYSICS = {
    "protocol": {"physics.protocol": "bbpssw"},
    "base_fidelity": {"noise.base_fidelity": 0.999},
    "gate_error": {"noise.gate_error": 1e-6},
    "measurement_error": {"noise.measurement_error": 1e-6},
    "target_fidelity": {"noise.target_fidelity": 0.9999},
    "cells_per_hop": {"topology.cells_per_hop": 300},
}


@pytest.mark.parametrize("base, overrides", SAME_PHYSICS.values(), ids=SAME_PHYSICS)
def test_specs_with_the_same_physics_share_one_entry(base, overrides):
    global_cache().clear()
    first = build_machine(get_scenario("smoke"))
    second = build_machine(_variant(base, overrides))
    assert global_cache().stats() == {"hits": 1, "misses": 1, "entries": 1}
    assert first.planner.budget_for_hops(2) is second.planner.budget_for_hops(2)


@pytest.mark.parametrize("overrides", OTHER_PHYSICS.values(), ids=OTHER_PHYSICS)
def test_a_change_to_the_physics_takes_a_new_entry(overrides):
    global_cache().clear()
    build_machine(get_scenario("smoke"))
    build_machine(_variant("smoke", overrides))
    assert global_cache().stats() == {"hits": 0, "misses": 2, "entries": 2}


def test_figure16_points_share_one_entry():
    global_cache().clear()
    specs = figure16_specs(grid_side=4)
    for spec in specs:
        run(spec)
    assert global_cache().stats() == {"hits": len(specs) - 1, "misses": 1, "entries": 1}


def _observed(spec):
    bus = TraceBus(kinds=CANONICAL_KINDS)
    view = run(spec, trace=bus).view
    return repr(view.makespan_us), repr(view.utilisation), records_to_lines(bus.records)


def test_a_run_on_shared_budgets_matches_a_cold_run():
    spec = get_scenario("smoke_noisy")
    global_cache().clear()
    run(_variant("smoke_noisy", {"runtime.layout": "mobile_qubit", "physics.teleporters": 4}))
    shared = _observed(spec)
    assert global_cache().stats()["hits"] == 1
    global_cache().clear()
    assert _observed(spec) == shared


def _planner(params):
    return SimpleNamespace(params=params, protocol="dejmps", placement=None)


class TestBudgetMemo:
    def test_hit_and_miss_counters(self):
        memo = BudgetMemo()
        budgets = memo.budgets_for(_planner("a"))
        assert memo.budgets_for(_planner("a")) is budgets
        assert memo.stats() == {"hits": 1, "misses": 1, "entries": 1}

    def test_lru_eviction_drops_oldest(self):
        memo = BudgetMemo(max_entries=2)
        memo.budgets_for(_planner("a"))
        memo.budgets_for(_planner("b"))
        memo.budgets_for(_planner("a"))  # refresh a; b is now the LRU entry
        memo.budgets_for(_planner("c"))  # evicts b
        assert memo.stats() == {"hits": 1, "misses": 3, "entries": 2}
        memo.budgets_for(_planner("a"))
        memo.budgets_for(_planner("b"))
        assert memo.stats() == {"hits": 2, "misses": 4, "entries": 2}

    def test_clear_resets_counters(self):
        memo = BudgetMemo()
        memo.budgets_for(_planner("a"))
        memo.budgets_for(_planner("a"))
        memo.clear()
        assert memo.stats() == {"hits": 0, "misses": 0, "entries": 0}


def test_single_worker_sweep_hits_across_points(tmp_path):
    global_cache().clear()
    spec = get_scenario("smoke")
    grid = [
        {"spec": apply_overrides(spec.to_dict(), {"physics.generator_bandwidth_scale": s})}
        for s in (1.0, 1.25, 1.5)
    ]
    runner = ExperimentRunner(workers=1, cache_dir=str(tmp_path / "cache"))
    points = runner.sweep_records(run_record, grid)
    assert [point.ok for point in points] == [True, True, True]
    assert global_cache().stats() == {"hits": 2, "misses": 1, "entries": 1}


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
