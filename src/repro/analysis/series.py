"""Containers for regenerated figures and tables, with text rendering.

``python -m repro experiments`` prints the rows/series the paper reports; these
containers keep the data structured (so tests can assert on shapes and
orderings) and render compact ASCII views for humans.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..errors import ConfigurationError


@dataclass(frozen=True)
class Series:
    """One named curve: parallel x and y value lists."""

    label: str
    x: tuple
    y: tuple

    def __post_init__(self) -> None:
        if len(self.x) != len(self.y):
            raise ConfigurationError(
                f"series {self.label!r}: x and y lengths differ ({len(self.x)} vs {len(self.y)})"
            )

    @classmethod
    def from_points(cls, label: str, x: Sequence[float], y: Sequence[float]) -> "Series":
        return cls(label=label, x=tuple(x), y=tuple(y))

    def __len__(self) -> int:
        return len(self.x)

    @property
    def finite_y(self) -> List[float]:
        """Y values that are finite (infeasible points are inf/nan)."""
        return [v for v in self.y if v is not None and math.isfinite(v)]

    def y_at(self, x_value: float) -> Optional[float]:
        """Y value at the given x, or None if that x was not sampled."""
        for xv, yv in zip(self.x, self.y):
            if xv == x_value:
                return yv
        return None

    def is_monotonic_increasing(self, *, strict: bool = False) -> bool:
        values = self.finite_y
        pairs = zip(values, values[1:])
        if strict:
            return all(b > a for a, b in pairs)
        return all(b >= a - 1e-15 for a, b in pairs)

    def is_monotonic_decreasing(self, *, strict: bool = False) -> bool:
        values = self.finite_y
        pairs = zip(values, values[1:])
        if strict:
            return all(b < a for a, b in pairs)
        return all(b <= a + 1e-15 for a, b in pairs)


@dataclass(frozen=True)
class FigureData:
    """A regenerated figure: named series plus axis metadata."""

    name: str
    title: str
    x_label: str
    y_label: str
    series: tuple
    log_y: bool = True
    notes: str = ""

    def get(self, label: str) -> Series:
        for series in self.series:
            if series.label == label:
                return series
        raise KeyError(f"no series labelled {label!r} in {self.name}")

    @property
    def labels(self) -> List[str]:
        return [series.label for series in self.series]

    def render(self, *, max_points: int = 12) -> str:
        """Compact text rendering: one row per x sample, one column per series."""
        lines = [f"{self.name}: {self.title}", f"  x = {self.x_label}; y = {self.y_label}"]
        if not self.series:
            return "\n".join([*lines, "  (no series)"])
        xs = list(self.series[0].x)
        stride = max(len(xs) // max_points, 1)
        header = "  " + f"{self.x_label[:14]:>14s} | " + " | ".join(
            f"{s.label[:24]:>24s}" for s in self.series
        )
        lines.append(header)
        lines.append("  " + "-" * (len(header) - 2))
        for i in range(0, len(xs), stride):
            row = [f"{_fmt(xs[i]):>14s}"]
            for series in self.series:
                value = series.y[i] if i < len(series.y) else float("nan")
                row.append(f"{_fmt(value):>24s}")
            lines.append("  " + " | ".join(row))
        if self.notes:
            lines.append(f"  note: {self.notes}")
        return "\n".join(lines)


@dataclass(frozen=True)
class TableData:
    """A regenerated table: column names and rows of values."""

    name: str
    title: str
    columns: tuple
    rows: tuple
    notes: str = ""

    def column(self, name: str) -> List[object]:
        if name not in self.columns:
            raise KeyError(f"no column {name!r} in {self.name}")
        index = self.columns.index(name)
        return [row[index] for row in self.rows]

    def render(self) -> str:
        widths = [
            max(len(str(col)), *(len(_fmt(row[i])) for row in self.rows)) if self.rows else len(str(col))
            for i, col in enumerate(self.columns)
        ]
        lines = [f"{self.name}: {self.title}"]
        header = "  " + " | ".join(f"{col:>{w}s}" for col, w in zip(self.columns, widths))
        lines.append(header)
        lines.append("  " + "-" * (len(header) - 2))
        for row in self.rows:
            lines.append(
                "  " + " | ".join(f"{_fmt(value):>{w}s}" for value, w in zip(row, widths))
            )
        if self.notes:
            lines.append(f"  note: {self.notes}")
        return "\n".join(lines)


def _fmt(value: object) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        if math.isinf(value):
            return "inf"
        if math.isnan(value):
            return "nan"
        if value == 0:
            return "0"
        if abs(value) >= 1e4 or abs(value) < 1e-3:
            return f"{value:.3g}"
        return f"{value:.4g}"
    return str(value)
