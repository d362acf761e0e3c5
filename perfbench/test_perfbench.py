"""Tests of the benchmark's own code, on reduced workloads.

They hold ``BENCHMARK.json`` and the code to the same names, check the span
arithmetic on a scripted clock, and run small traced repetitions twice to
show the counters repeat exactly and the spans account for the wall time.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from repro.scenarios.catalog import catalog_entry
from repro.scenarios.spec import ScenarioSpec, apply_overrides
from repro.sim.engine import SimulationEngine

from . import reference, run, workloads
from .metrics import COUNTERS, END_TO_END, LAYER_METRICS
from .tracer import Tracer, instrument, layer_values
from .worker import ROOT, Repetitions, pinned_digest

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
#: Share of a traced repetition's wall time the top-level spans must cover.
WALL_COVERAGE = 0.95


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_names_and_units_are_well_formed_and_match_the_code():
    benchmark = _benchmark()
    declared = [(m["name"], m["unit"]) for m in benchmark["end_to_end"]]
    assert declared == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in benchmark["per_layer"]] == list(LAYER_METRICS)
    assert {w["name"]: w["why"] for w in benchmark["workloads"]} == {
        name: workload.why for name, workload in workloads.WORKLOADS.items()
    }
    names = [name for name, _ in END_TO_END + LAYER_METRICS] + list(workloads.WORKLOADS)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for _, unit in END_TO_END + LAYER_METRICS:
        assert UNIT.fullmatch(unit), unit
    assert all(m["bound"] <= 0.25 for m in benchmark["end_to_end"])


def test_every_workload_has_pinned_outputs():
    for workload in workloads.WORKLOADS.values():
        assert pinned_digest(workload, 0) is not None, workload.name


class _ScriptedClock:
    def __init__(self, *ticks):
        self.ticks = list(ticks)

    def __call__(self):
        return self.ticks.pop(0)


def test_self_time_is_span_minus_children_and_sums_to_top_level():
    # outer: 0..10, inner: 2..5 and 6..7 -> inner self 4, outer self 6.
    tracer = Tracer(clock=_ScriptedClock(0.0, 2.0, 5.0, 6.0, 7.0, 10.0))
    inner = tracer.span("inner", lambda: None)

    def body():
        inner()
        inner()

    tracer.span("outer", body)()
    assert tracer.self_s("inner") == 4.0
    assert tracer.self_s("outer") == 6.0
    assert tracer.total_s("outer") == 10.0
    assert tracer.calls("inner") == 2
    assert tracer.top_level_s == 10.0


def test_reentered_span_counts_its_wall_once():
    tracer = Tracer(clock=_ScriptedClock(0.0, 1.0, 3.0, 4.0))

    def recurse(depth):
        if depth:
            traced(depth - 1)

    traced = tracer.span("again", recurse)
    traced(1)
    assert tracer.total_s("again") == 4.0
    assert tracer.self_s("again") == 4.0


def test_instrument_restores_every_entry_point_even_on_error():
    before = (vars(ScenarioSpec)["from_dict"], vars(ScenarioSpec)["spec_hash"], vars(SimulationEngine)["run"])
    with pytest.raises(RuntimeError), instrument(Tracer()):
        assert vars(SimulationEngine)["run"] is not before[2]
        raise RuntimeError("boom")
    assert (vars(ScenarioSpec)["from_dict"], vars(ScenarioSpec)["spec_hash"], vars(SimulationEngine)["run"]) == before


SMALL = (
    workloads.Workload(
        "small_sweep",
        "reduced sweep",
        lambda seed: [
            ("smoke", catalog_entry("smoke")),
            ("fattree_smoke", apply_overrides(catalog_entry("fattree_smoke"), {"runtime.allocator": "vectorized"})),
            ("ring_qft", catalog_entry("ring_qft")),
        ],
        seeded=False,
        sweep=True,
    ),
    workloads.Workload(
        "small_runs",
        "reduced single runs",
        lambda seed: [
            ("service_smoke", apply_overrides(catalog_entry("service_smoke"), {"runtime.allocator": "vectorized"})),
            ("smoke_detailed", apply_overrides(catalog_entry("smoke"), {"runtime.backend": "detailed"})),
        ],
        seeded=False,
    ),
)


@pytest.mark.parametrize("workload", SMALL, ids=lambda workload: workload.name)
def test_traced_repetitions_repeat_counters_and_account_for_the_wall(workload):
    reps = Repetitions(workload, workload.entries(0), expected=None)
    try:
        samples = []
        for _ in range(2):
            tracer = Tracer()
            sample = reps.run(tracer)
            samples.append((sample, tracer, layer_values(tracer)))
    finally:
        reps.close()
    assert reps.attempted > 0 and reps.failed == 0
    first, second = samples[0][2], samples[1][2]
    assert {name: first[name] for name in COUNTERS} == {name: second[name] for name in COUNTERS}
    assert first["sim.transport.channels"] > 0 and first["sim.engine.events"] > 0
    for sample, tracer, values in samples:
        assert all(stats.self_s >= 0.0 for stats in tracer.spans.values())
        assert all(value >= 0.0 for value in values.values())
        assert sum(stats.self_s for stats in tracer.spans.values()) == pytest.approx(tracer.top_level_s)
        assert WALL_COVERAGE * sample["wall_s"] <= tracer.top_level_s <= sample["wall_s"]


def test_a_changed_output_counts_as_failed():
    workload = SMALL[1]
    reps = Repetitions(workload, workload.entries(0), expected="0" * 64)
    try:
        reps.run()
    finally:
        reps.close()
    assert reps.failed == reps.attempted > 0


def test_throughput_cancels_the_host_slowness_the_reference_saw():
    def sample(wall_s, slowness):
        return {"wall_s": wall_s, "scaled_wall_s": wall_s / slowness, "channels": 100, "points": 1, "requests": 50}

    reports = [
        {"untraced": [sample(2.0, 1.0), sample(4.0, 2.0)], "peak_rss_mb": 60.0, "setup_s": 0.5},
        {"untraced": [sample(3.0, 1.5)], "peak_rss_mb": 62.0, "setup_s": 0.7},
    ]
    values = run.end_to_end(reports)
    assert values["channels_per_s"] == pytest.approx(50.0)
    assert values["requests_per_s"] == pytest.approx(25.0)
    assert values["points_per_s"] == pytest.approx(0.5)
    assert values["setup_s"] == pytest.approx(0.6)


def test_reference_work_is_fixed():
    assert reference.reference_work() == reference.reference_work()
    assert reference.reference_seconds() > 0.0


def test_invariants_flag_unsound_records():
    batch = {"name": "b", "makespan_us": 5.0, "utilisation": {"teleporter": 1.5}, "operations": 3}
    assert len(workloads.problems(batch, operations=4)) == 2
    service = {
        "name": "s",
        "makespan_us": float("nan"),
        "utilisation": {},
        "offered": 10,
        "admitted": 6,
        "dropped": 3,
        "completed": 6,
        "latency_p50_us": 2.0,
        "latency_p99_us": 1.0,
    }
    assert len(workloads.problems(service, operations=None)) == 3
    assert workloads.problems({"name": "e", "error": "boom"}, operations=1) == ["raised: boom"]


def test_run_fails_without_printing_a_result_when_the_program_is_absent(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench", ignore=ignore)
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    command = [sys.executable, "perfbench/run.py", "--workload", "catalog_sweep", "--seed", "0", "--seconds", "1"]
    done = subprocess.run(command, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120, check=False)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
