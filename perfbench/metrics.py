"""Names and units of every metric the benchmark reports.

``BENCHMARK.json`` lists the same names and units; the benchmark's tests
hold the two together.  This module imports nothing from ``repro`` so the
parent process can aggregate reports without importing the simulator.
"""

from __future__ import annotations

from typing import Tuple

#: Reported with ``--trace 0``; host times, measured with tracing off.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("channels_per_s", "1/s"),
    ("points_per_s", "1/s"),
    ("requests_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

#: Reported with ``--trace 1``, in this order.  ``<layer>_s`` is the layer's
#: self time per repetition unless the layer also reports a ``.self_s``, in
#: which case ``_s`` is its inclusive time.
LAYER_METRICS: Tuple[Tuple[str, str], ...] = (
    ("scenarios.spec_s", "s"),
    ("scenarios.build_machine_s", "s"),
    ("scenarios.assemble_s", "s"),
    ("scenarios.warmstart.hits", "count"),
    ("scenarios.warmstart.misses", "count"),
    ("workloads.build_s", "s"),
    ("workloads.ops", "count"),
    ("core.planner.plan_s", "s"),
    ("core.planner.plans", "count"),
    ("core.planner.candidates", "count"),
    ("sim.control.plan_s", "s"),
    ("sim.control.issue_s", "s"),
    ("sim.control.messages", "count"),
    ("sim.engine.run_s", "s"),
    ("sim.engine.self_s", "s"),
    ("sim.engine.events", "count"),
    ("sim.engine.us_per_event", "us"),
    ("sim.flow.start_s", "s"),
    ("sim.flow.starts", "count"),
    ("sim.flowpack.reallocate_s", "s"),
    ("sim.flowpack.reallocations", "count"),
    ("sim.flowpack.compactions", "count"),
    ("sim.detailed.start_s", "s"),
    ("sim.resources.submit_s", "s"),
    ("sim.resources.submits", "count"),
    ("sim.transport.report_s", "s"),
    ("sim.transport.channels", "count"),
    ("service.generate_s", "s"),
    ("service.run_s", "s"),
    ("service.self_s", "s"),
    ("service.offered", "count"),
    ("service.dropped", "count"),
    ("trace.emit_s", "s"),
    ("trace.records", "count"),
    ("runtime.sweep_s", "s"),
    ("runtime.self_s", "s"),
    ("runtime.journal.append_s", "s"),
    ("runtime.journal.appends", "count"),
    ("trace.overhead_frac", "fraction"),
)

#: The per-layer counters; they must repeat exactly between repetitions.
COUNTERS: Tuple[str, ...] = tuple(name for name, unit in LAYER_METRICS if unit == "count")
