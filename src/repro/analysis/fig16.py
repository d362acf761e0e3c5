"""Figure 16: benchmark runtime vs. interconnect resource allocation.

The paper runs the QFT communication pattern on a 16x16 grid of logical
qubits under the Home Base and Mobile Qubit layouts, fixes the area dedicated
to the interconnect (T', G and P nodes) and varies how that area is split
between teleporters/generators and queue purifiers (t = g = {1, 2, 4, 8} x p).
Runtimes are normalised to a machine with effectively unlimited resources
(t = g = p = 1024 in the paper).

Expected shape: the Home Base workload keeps many channels sharing each T'
node, so it is teleporter-bandwidth bound and tolerates (or benefits from)
taking area away from purifiers, while the Mobile Qubit workload is mostly
nearest-neighbour, leaves the teleporters idle and suffers when the purifiers
shrink (t = g = 8p worse than t = g = 4p).

:func:`figure16_specs` writes the sweep as scenario specs and
:func:`figure16_from_records` reduces their flat run records to the figure.
:func:`figure16` runs the specs in-process: the experiment runner calls it
from a pool worker, which may not start a pool of its own.  The grid
defaults to 8x8; ``examples/figure16_paper.py`` runs the paper's 16x16
machine through :func:`repro.api.sweep`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from ..network.nodes import ResourceAllocation
from ..scenarios.run import run
from ..scenarios.spec import ScenarioSpec
from .series import FigureData, Series

#: t = g = ratio x p configurations swept (the paper highlights 1, 2, 4, 8).
DEFAULT_RATIOS = (1, 2, 4, 8)
#: Interconnect area units per tile split between t, g and p in the sweep.
DEFAULT_AREA_UNITS = 18
#: Layouts compared.
DEFAULT_LAYOUTS = ("home_base", "mobile_qubit")


@dataclass(frozen=True)
class Fig16Point:
    """One simulated configuration of the Figure 16 sweep."""

    layout: str
    ratio: int
    allocation: ResourceAllocation
    makespan_us: float
    utilisation: Dict[str, float]
    normalised_runtime: float


def allocation_for_ratio(ratio: int, area_units: int = DEFAULT_AREA_UNITS) -> ResourceAllocation:
    """Split a fixed per-tile area between t = g = ratio x p and p.

    Solving ``2 * (ratio * p) + p = area`` for integer p >= 1.
    """
    if ratio < 1:
        raise ConfigurationError(f"ratio must be >= 1, got {ratio}")
    if area_units < 3:
        raise ConfigurationError(f"area_units must be >= 3, got {area_units}")
    purifiers = max(area_units // (2 * ratio + 1), 1)
    teleporters = max(ratio * purifiers, 1)
    return ResourceAllocation(
        teleporters_per_node=teleporters,
        generators_per_node=teleporters,
        purifiers_per_node=purifiers,
    )


def figure16_specs(
    *,
    grid_side: int = 8,
    num_qubits: Optional[int] = None,
    ratios: Sequence[int] = DEFAULT_RATIOS,
    area_units: int = DEFAULT_AREA_UNITS,
    layouts: Sequence[str] = DEFAULT_LAYOUTS,
    baseline_count: int = 1024,
) -> List[ScenarioSpec]:
    """One QFT spec per (layout, allocation) on a ``grid_side`` mesh.

    Each layout's ``figure16/<layout>/baseline`` spec, at t = g = p =
    ``baseline_count``, precedes its ``figure16/<layout>/ratio<r>`` specs.
    ``num_qubits`` defaults to one qubit per tile.
    """
    allocations = [("baseline", ResourceAllocation.uniform(baseline_count))]
    allocations += [(f"ratio{ratio}", allocation_for_ratio(ratio, area_units)) for ratio in ratios]
    return [
        ScenarioSpec.from_dict(
            {
                "name": f"figure16/{layout}/{point}",
                "topology": {"kind": "mesh", "width": grid_side},
                "workload": {"kind": "qft", "num_qubits": num_qubits or grid_side * grid_side},
                "physics": {
                    "teleporters": allocation.teleporters_per_node,
                    "generators": allocation.generators_per_node,
                    "purifiers": allocation.purifiers_per_node,
                },
                # Rates bit-identical to the other allocators', computed
                # fastest at this many concurrent channels.
                "runtime": {"layout": layout, "allocator": "vectorized"},
            }
        )
        for layout in layouts
        for point, allocation in allocations
    ]


def figure16_from_records(
    records: Sequence[Mapping[str, Any]],
) -> Tuple[FigureData, List[Fig16Point]]:
    """Reduce the flat run records of :func:`figure16_specs` to the figure.

    ``records`` come from :meth:`~repro.scenarios.run.RunResult.flat_record`
    or :func:`repro.api.sweep`, in spec order.  Each makespan is divided by
    its layout's baseline makespan.
    """
    baselines = {r["layout"]: r["makespan_us"] for r in records if r["name"].endswith("/baseline")}
    points: List[Fig16Point] = []
    for record in records:
        if record["name"].endswith("/baseline"):
            continue
        physics = record["spec"]["physics"]
        allocation = ResourceAllocation(
            physics["teleporters"], physics["generators"], physics["purifiers"]
        )
        points.append(
            Fig16Point(
                layout=record["layout"],
                ratio=allocation.teleporters_per_node // allocation.purifiers_per_node,
                allocation=allocation,
                makespan_us=record["makespan_us"],
                utilisation=record["utilisation"],
                normalised_runtime=record["makespan_us"] / baselines[record["layout"]],
            )
        )
    series = []
    for layout in baselines:
        ours = [point for point in points if point.layout == layout]
        x, y = [p.ratio for p in ours], [p.normalised_runtime for p in ours]
        series.append(Series.from_points(layout, x, y))
    spec = next(r for r in records if r["name"].endswith("/baseline"))["spec"]
    side = spec["topology"]["width"]
    figure = FigureData(
        name="figure16",
        title="QFT runtime vs interconnect resource allocation (fixed area)",
        x_label="t = g = ratio x p",
        y_label=f"runtime normalised to t=g=p={spec['physics']['purifiers']}",
        series=tuple(series),
        log_y=False,
        notes=(
            f"{side}x{side} grid, {spec['workload']['num_qubits']}-qubit QFT. Home Base "
            "is teleporter-bound and tolerates small purifiers; Mobile Qubit is "
            "purifier-bound and degrades as p shrinks."
        ),
    )
    return figure, points


def figure16(**sweep: Any) -> Tuple[FigureData, List[Fig16Point]]:
    """Regenerate Figure 16: normalised runtime per allocation and layout.

    Takes :func:`figure16_specs`' keyword arguments and runs its specs
    in-process; a point that fails raises its error.  Returns the figure plus
    the per-configuration points (useful for inspecting utilisation and
    bottlenecks).
    """
    return figure16_from_records([run(spec).flat_record() for spec in figure16_specs(**sweep)])
