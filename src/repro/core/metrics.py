"""The paper's six evaluation metrics (Section 3.3).

The paper evaluates EPR distribution mechanisms on: error rate, EPR pair
count, latency, quantum resource needs, classical control complexity and
runtime.  :func:`evaluate_channel_metrics` collects the first five from a
channel report (runtime is the simulator's output and is reported by
:mod:`repro.sim.results`).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..network.nodes import ResourceAllocation
from ..physics.purification_tree import hardware_purifiers_for_tree
from .channel import ChannelReport


@dataclass(frozen=True)
class ChannelMetrics:
    """The paper's evaluation metrics for one channel."""

    #: Error (1 - fidelity) of EPR pairs delivered to the endpoints before
    #: endpoint purification.
    error_rate: float
    #: Raw EPR pairs that must transit the channel per logical communication.
    epr_pair_count: float
    #: Channel setup latency in microseconds.
    latency_us: float
    #: Quantum resource needs: hardware purifier units required at each
    #: endpoint (queue-purifier implementation) plus storage cells per router.
    endpoint_purifier_units: int
    router_storage_cells: int
    #: Classical control complexity: classical messages exchanged per
    #: delivered good pair (one ID packet per hop plus two bits per
    #: teleportation and one per purification round).
    classical_messages: float

    def describe(self) -> str:
        return (
            f"ChannelMetrics(error={self.error_rate:.3e}, "
            f"pairs/logical comm={self.epr_pair_count:.3g}, "
            f"latency={self.latency_us:.1f} us, "
            f"purifier units={self.endpoint_purifier_units}, "
            f"storage cells={self.router_storage_cells}, "
            f"classical msgs={self.classical_messages:.3g})"
        )


def evaluate_channel_metrics(
    report: ChannelReport,
    *,
    teleporters_per_node: int = 1,
) -> ChannelMetrics:
    """Evaluate the paper's metrics for a built channel."""
    budget = report.budget
    # Classical traffic: every transiting pair carries an ID packet per hop,
    # every teleportation sends two classical bits, and every purification
    # round exchanges one bit per endpoint.
    per_pair_messages = budget.teleport_operations * 3.0
    endpoint_rounds_messages = budget.endpoint_pairs * 2.0
    classical = (per_pair_messages + endpoint_rounds_messages) * report.encoding.physical_qubits
    return ChannelMetrics(
        error_rate=budget.arrival_error,
        epr_pair_count=report.pairs_per_logical_communication,
        latency_us=report.setup_latency_us,
        endpoint_purifier_units=hardware_purifiers_for_tree(budget.endpoint_rounds),
        router_storage_cells=ResourceAllocation(teleporters_per_node).storage_cells,
        classical_messages=classical,
    )
