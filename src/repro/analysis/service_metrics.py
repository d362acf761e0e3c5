"""Steady-state service metrics under increasing offered load.

The batch figures answer "how long does one program take"; service mode asks
the operator's question instead: how much sustained EPR-distribution load can
the machine carry, and what happens to tail latency as it saturates?  This
module sweeps the offered load of a service scenario by scaling every
tenant's arrival rate and reduces the steady-state summaries to the classic
saturation figure:

* :func:`service_load_sweep` — delivered load, completion-time p99 and drop
  rate against offered load (channels/ms), one simulator run per scale
  factor, all arrivals drawn from the same deterministic substreams;
* :func:`service_metrics_table` — reduces service-mode ``run_record`` flat
  records (any backend) to a per-scenario steady-state table, the service
  counterpart of :func:`~repro.analysis.fidelity_bandwidth.scenario_fidelity_table`.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional, Sequence

from ..errors import ConfigurationError
from .series import FigureData, Series, TableData

#: Arrival-rate multipliers swept by default: half load to 4x overload.
DEFAULT_LOAD_SCALES = (0.5, 1.0, 2.0, 4.0)
#: The catalog scenario the default sweep drives.
DEFAULT_SCENARIO = "service_smoke"


def _scaled_traffic(traffic: Dict[str, Any], scale: float) -> Dict[str, Any]:
    """The same traffic section with every tenant's arrival rate scaled."""
    scaled = dict(traffic)
    scaled["tenants"] = {
        name: {**tenant, "mean_interarrival_us": tenant["mean_interarrival_us"] / scale}
        for name, tenant in traffic["tenants"].items()
    }
    return scaled


def service_load_sweep(
    *,
    scenario: str = DEFAULT_SCENARIO,
    scales: Sequence[float] = DEFAULT_LOAD_SCALES,
    backend: Optional[str] = None,
) -> FigureData:
    """Delivered load, p99 completion time and drop rate vs offered load.

    Each point replays the named catalog service scenario with every tenant's
    mean interarrival divided by the scale factor (so offered load grows
    linearly) on the same seed.  Delivered load saturates at the fabric's
    service capacity while the completion-time tail keeps growing — the
    queueing signature the batch makespan figures cannot show.
    """
    if not scales:
        raise ConfigurationError("service_load_sweep needs at least one load scale")
    if any(scale <= 0 for scale in scales):
        raise ConfigurationError(f"load scales must be positive, got {list(scales)}")
    from ..scenarios.catalog import get_scenario
    from ..scenarios.run import run

    base = get_scenario(scenario)
    if base.traffic is None:
        raise ConfigurationError(
            f"scenario {scenario!r} has no traffic section; "
            "the service load sweep needs an open-loop service scenario"
        )
    if backend is not None:
        base = base.with_backend(backend)
    traffic = base.to_dict()["traffic"]
    offered, delivered, p99, drops = [], [], [], []
    for scale in sorted(scales):
        spec = base.with_traffic(_scaled_traffic(traffic, scale))
        view = run(spec).service
        assert view is not None  # run() of a traffic spec always yields one
        offered.append(view.offered_load_per_ms)
        delivered.append(view.delivered_load_per_ms)
        p99.append(view.latency_p99_us)
        drops.append(view.drop_rate)
    return FigureData(
        name="service_metrics",
        title="Steady-state service metrics vs offered load",
        x_label="offered load (channels/ms)",
        y_label="delivered load (ch/ms) / p99 (us) / drop rate",
        series=(
            Series.from_points("delivered load (ch/ms)", offered, delivered),
            Series.from_points("completion p99 (us)", offered, p99),
            Series.from_points("drop rate", offered, drops),
        ),
        log_y=False,
        notes=(
            f"{scenario} scaled x{min(scales):g}..x{max(scales):g} on one seed; "
            "delivered load saturates at service capacity while the p99 tail grows."
        ),
    )


def service_metrics_table(records: Iterable[Dict[str, object]]) -> TableData:
    """Per-scenario steady-state summary from service-mode flat records.

    Batch records (no ``offered`` count) are skipped; the remaining rows are
    the headline numbers ``repro serve`` prints, in table form for reports.
    """
    rows = []
    for record in records:
        if "offered" not in record:
            continue
        rows.append(
            (
                record.get("name", "?"),
                record.get("backend", "?"),
                record.get("offered"),
                record.get("completed"),
                record.get("drop_rate"),
                record.get("offered_load_per_ms"),
                record.get("delivered_load_per_ms"),
                record.get("latency_p50_us"),
                record.get("latency_p99_us"),
                record.get("max_queue_depth"),
            )
        )
    return TableData(
        name="service_metrics",
        title="Steady-state service metrics per scenario",
        columns=(
            "scenario",
            "backend",
            "offered",
            "completed",
            "drop rate",
            "offered ch/ms",
            "delivered ch/ms",
            "p50 us",
            "p99 us",
            "max queue",
        ),
        rows=tuple(rows),
        notes="Rows exist only for service-mode runs (scenarios with a traffic section).",
    )


__all__ = [
    "DEFAULT_LOAD_SCALES",
    "DEFAULT_SCENARIO",
    "service_load_sweep",
    "service_metrics_table",
]
