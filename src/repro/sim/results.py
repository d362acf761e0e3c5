"""Simulation result containers and statistics.

A simulation run produces a :class:`SimulationResult`: the makespan (the
paper's "runtime" metric), per-operation and per-channel records, and
resource utilisation summaries that explain *where* contention arose — the
quantity Figure 16 varies resource allocation to expose.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class ChannelRecord:
    """One long-distance communication serviced by the network."""

    source: Tuple[int, int]
    destination: Tuple[int, int]
    hops: int
    start_us: float
    end_us: float
    pairs_transited: float
    purpose: str = "operation"
    qubit: Optional[int] = None
    #: Fidelity accounting (None on runs without a noise model): the EPR
    #: fidelity the channel delivered and the endpoint purification tree
    #: depth selected at channel-open time to reach it.
    delivered_fidelity: Optional[float] = None
    purification_level: Optional[int] = None

    @property
    def duration_us(self) -> float:
        return self.end_us - self.start_us


@dataclass(frozen=True)
class OperationRecord:
    """One two-logical-qubit operation, from issue to completion."""

    index: int
    qubit_a: int
    qubit_b: int
    issue_us: float
    complete_us: float
    channel_count: int
    total_hops: int

    @property
    def duration_us(self) -> float:
        return self.complete_us - self.issue_us


def fidelity_summary(
    channels: Sequence[ChannelRecord], target: Optional[float]
) -> Optional[Dict[str, object]]:
    """Flat JSON-safe fidelity summary of ``channels``, or None when untracked.

    ``below_target`` counts channels whose delivered fidelity misses the
    run's ``target`` — the quantity that decides whether the interconnect is
    usable at all, regardless of its bandwidth.  Batch and service runs both
    report this summary.
    """
    values = [c.delivered_fidelity for c in channels if c.delivered_fidelity is not None]
    if not values:
        return None
    summary: Dict[str, object] = {
        "channels": len(values),
        "mean": sum(values) / len(values),
        "min": min(values),
        "max": max(values),
    }
    if target is not None:
        summary["target"] = target
        summary["below_target"] = sum(1 for v in values if v < target)
    return summary


@dataclass
class SimulationResult:
    """Outcome of one simulator run."""

    workload_name: str
    machine_description: str
    makespan_us: float
    operations: List[OperationRecord] = field(default_factory=list)
    channels: List[ChannelRecord] = field(default_factory=list)
    resource_utilisation: Dict[str, float] = field(default_factory=dict)
    #: Transport backend that serviced the run (its ``BACKENDS`` name).
    backend: str = "fluid"
    #: Delivered-fidelity target on noise-tracked runs (None otherwise).
    target_fidelity: Optional[float] = None
    metadata: Dict[str, object] = field(default_factory=dict)

    # -- headline numbers -----------------------------------------------------

    @property
    def operation_count(self) -> int:
        return len(self.operations)

    @property
    def channel_count(self) -> int:
        return len(self.channels)

    # -- channel statistics ------------------------------------------------------

    def average_channel_hops(self) -> float:
        if not self.channels:
            return 0.0
        return sum(c.hops for c in self.channels) / len(self.channels)

    def average_channel_duration_us(self) -> float:
        if not self.channels:
            return 0.0
        return sum(c.duration_us for c in self.channels) / len(self.channels)

    def total_pairs_transited(self) -> float:
        return sum(c.pairs_transited for c in self.channels)

    def max_concurrent_channels(self) -> int:
        """Peak number of simultaneously active channels."""
        events = []
        for channel in self.channels:
            events.append((channel.start_us, 1))
            events.append((channel.end_us, -1))
        events.sort()
        active = peak = 0
        for _, delta in events:
            active += delta
            peak = max(peak, active)
        return peak

    # -- fidelity statistics ---------------------------------------------------------

    def fidelity_summary(self) -> Optional[Dict[str, object]]:
        """Flat JSON-safe fidelity summary, or None when fidelity was not tracked."""
        return fidelity_summary(self.channels, self.target_fidelity)

    # -- reporting ---------------------------------------------------------------------

    def bottleneck_resource(self) -> Optional[str]:
        """The resource class with the highest utilisation, if tracked."""
        if not self.resource_utilisation:
            return None
        return max(self.resource_utilisation, key=self.resource_utilisation.get)

    def describe(self) -> str:
        lines = [
            f"SimulationResult for {self.workload_name!r} on {self.machine_description}",
            f"  makespan            : {self.makespan_us:.1f} us",
            f"  operations          : {self.operation_count}",
            f"  channels            : {self.channel_count}"
            f" (avg {self.average_channel_hops():.2f} hops,"
            f" avg {self.average_channel_duration_us():.1f} us)",
            f"  pairs transited     : {self.total_pairs_transited():.3g}",
            f"  peak concurrency    : {self.max_concurrent_channels()} channels",
        ]
        fidelity = self.fidelity_summary()
        if fidelity is not None:
            line = (
                f"  delivered fidelity  : mean {fidelity['mean']:.6f}, "
                f"min {fidelity['min']:.6f} over {fidelity['channels']} channels"
            )
            if "target" in fidelity:
                line += f" (target {fidelity['target']:.6f}, {fidelity['below_target']} below)"
            lines.append(line)
        if self.resource_utilisation:
            lines.append("  resource utilisation:")
            for name, value in sorted(self.resource_utilisation.items()):
                lines.append(f"    {name:20s}: {value:6.1%}")
        return "\n".join(lines)
