"""Fidelity-vs-bandwidth trade-off analysis.

The paper's central quality metric is the fidelity of delivered EPR pairs;
its central cost metric is bandwidth (raw pairs consumed).  Purification
converts one into the other: every extra endpoint tree level multiplies the
raw-pair cost by slightly more than 2 and drives the delivered error down by
the protocol's convergence rate — until the local-operation noise floor, past
which bandwidth buys nothing.  This module quantifies that trade-off:

* :func:`fidelity_bandwidth_tradeoff` — the analytical curve: delivered error
  against expected raw-pair cost, one series per channel distance, for
  purification levels 0..N (the curve a scenario's ``noise.target_fidelity``
  implicitly walks when it selects a level).
* :func:`scenario_fidelity_table` — reduces ``run_record`` result records
  (both backends) to a per-scenario fidelity/bandwidth table, the shape
  reports consume.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence

from ..core.budget import EPRBudgetModel
from ..errors import ConfigurationError
from ..physics.parameters import IonTrapParameters
from ..physics.purification_tree import expected_pairs_for_rounds
from .series import FigureData, Series, TableData

#: Channel distances sampled by default (hops): neighbours to cross-machine.
DEFAULT_HOPS = (1, 4, 8, 16)
#: Endpoint purification levels swept by default.
DEFAULT_MAX_LEVEL = 6


def fidelity_bandwidth_tradeoff(
    params: Optional[IonTrapParameters] = None,
    *,
    hops: Sequence[int] = DEFAULT_HOPS,
    max_level: int = DEFAULT_MAX_LEVEL,
    protocol: str = "dejmps",
) -> FigureData:
    """Delivered error vs expected raw-pair cost per purification level.

    One series per channel distance; point ``k`` of a series is the endpoint
    state after ``k`` tree levels: x is the expected raw input pairs consumed
    per delivered pair (>= 1, ~``2**k``), y the delivered error.  The curve
    flattens at the protocol's noise floor — the bandwidth beyond which more
    purification no longer buys fidelity.
    """
    if max_level < 0:
        raise ConfigurationError(f"max_level must be non-negative, got {max_level}")
    if not hops:
        raise ConfigurationError("fidelity_bandwidth_tradeoff needs at least one distance")
    params = params or IonTrapParameters.default()
    model = EPRBudgetModel(params, protocol=protocol)
    series = []
    for distance in hops:
        arrival = model.budget(distance).arrival_state
        outcomes = model.protocol.iterate(arrival, max_level)
        costs = [1.0]
        errors = [arrival.error]
        for level in range(1, max_level + 1):
            costs.append(expected_pairs_for_rounds(outcomes[:level]))
            errors.append(outcomes[level - 1].error)
        series.append(
            Series.from_points(f"{distance} hops (arrival error {arrival.error:.2e})", costs, errors)
        )
    return FigureData(
        name="fidelity_bandwidth",
        title="Delivered EPR error vs raw-pair bandwidth cost per purification level",
        x_label="expected raw pairs per delivered pair",
        y_label="delivered error (1 - fidelity)",
        series=tuple(series),
        notes=(
            f"{protocol.upper()} endpoint purification; each point is one more tree "
            "level (~2x bandwidth). The flat tail is the local-operation noise floor."
        ),
    )


def scenario_fidelity_table(records: Iterable[Dict[str, object]]) -> TableData:
    """Per-scenario fidelity/bandwidth summary from ``run_record`` records.

    Records without fidelity accounting (no ``noise`` section) are skipped;
    the remaining rows carry the delivered-fidelity envelope next to the
    bandwidth actually spent (pairs transited per channel), which is the
    scenario-level view of :func:`fidelity_bandwidth_tradeoff`.
    """
    rows = []
    for record in records:
        fidelity = record.get("fidelity")
        if not isinstance(fidelity, dict):
            continue
        channels = int(record.get("channel_count", 0) or 0)
        rows.append(
            (
                record.get("name", "?"),
                record.get("backend", "?"),
                channels,
                fidelity.get("mean"),
                fidelity.get("min"),
                fidelity.get("target"),
                fidelity.get("below_target"),
            )
        )
    return TableData(
        name="scenario_fidelity",
        title="Delivered channel fidelity per scenario",
        columns=(
            "scenario",
            "backend",
            "channels",
            "mean fidelity",
            "min fidelity",
            "target",
            "below target",
        ),
        rows=tuple(rows),
        notes="Rows exist only for noise-tracked runs (scenarios with a noise section).",
    )


__all__ = [
    "DEFAULT_HOPS",
    "DEFAULT_MAX_LEVEL",
    "fidelity_bandwidth_tradeoff",
    "scenario_fidelity_table",
]
