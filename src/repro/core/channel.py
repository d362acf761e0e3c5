"""The :class:`QuantumChannel` facade.

A quantum channel is the paper's unit of long-distance communication: a pair
of endpoints, a distance, a distribution methodology and a purification
placement.  Constructing the channel means distributing enough above-threshold
EPR pairs to the endpoints that a logical qubit can be teleported across.

:class:`QuantumChannel` glues together the distribution, budget and logical
encoding models and produces a single :class:`ChannelReport` with everything
the paper's six metrics need.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import ConfigurationError
from ..physics.parameters import IonTrapParameters
from ..physics.teleportation import teleportation_fidelity, teleportation_time
from .budget import ChannelBudget, EPRBudgetModel
from .distribution import (
    BallisticDistribution,
    ChainedTeleportationDistribution,
    DistributionMethod,
    DistributionResult,
)
from .logical import STEANE_LEVEL_2, LogicalQubitEncoding
from .placement import PurificationPlacement, endpoint_only


@dataclass(frozen=True)
class ChannelReport:
    """Everything there is to know about one constructed channel."""

    hops: int
    distance_cells: float
    distribution_name: str
    placement: PurificationPlacement
    protocol_name: str
    encoding: LogicalQubitEncoding
    budget: ChannelBudget
    distribution: DistributionResult
    data_fidelity_in: float
    data_fidelity_out: float
    data_teleport_latency_us: float

    @property
    def feasible(self) -> bool:
        return self.budget.feasible

    @property
    def setup_latency_us(self) -> float:
        """Latency to establish the channel (distribute + purify one pair)."""
        return self.budget.setup_latency_us

    @property
    def pairs_per_logical_communication(self) -> float:
        """Raw EPR pairs that must transit the channel per logical qubit moved."""
        return self.budget.pairs_per_logical_communication(self.encoding)

    @property
    def total_pairs_per_logical_communication(self) -> float:
        """Total raw EPR pairs consumed per logical qubit moved."""
        return self.budget.total_pairs_per_logical_communication(self.encoding)

    def describe(self) -> str:
        lines = [
            f"QuantumChannel over {self.hops} hops "
            f"({self.distance_cells:.0f} cells), {self.distribution_name} distribution, "
            f"{self.placement.label}, {self.protocol_name.upper()}",
            f"  feasible            : {self.feasible}",
            f"  arrival EPR error   : {self.budget.arrival_error:.3e}",
            f"  endpoint rounds     : {self.budget.endpoint_rounds}",
            f"  pairs teleported    : {self.budget.pairs_teleported:.3g} per good pair",
            f"  total pairs         : {self.budget.total_pairs:.3g} per good pair",
            f"  per logical comm    : {self.pairs_per_logical_communication:.3g} pairs "
            f"({self.encoding.physical_qubits} physical qubits)",
            f"  setup latency       : {self.setup_latency_us:.1f} us",
            f"  data fidelity out   : {self.data_fidelity_out:.8f}",
        ]
        return "\n".join(lines)


class QuantumChannel:
    """Build reliable quantum channels and report their cost.

    Parameters
    ----------
    hops:
        Path length in teleportation hops (T'-node to T'-node links).
    params:
        Ion-trap parameter bundle.
    distribution:
        ``"chained"`` (default, the paper's choice) or ``"ballistic"``.
    placement:
        Purification placement policy; default purifies only at the endpoints.
    protocol:
        Purification protocol name (``"dejmps"`` default, or ``"bbpssw"``).
    encoding:
        Logical qubit encoding used for per-communication accounting.
    """

    def __init__(
        self,
        hops: int,
        params: IonTrapParameters | None = None,
        *,
        distribution: str = "chained",
        placement: Optional[PurificationPlacement] = None,
        protocol: str = "dejmps",
        encoding: LogicalQubitEncoding = STEANE_LEVEL_2,
    ) -> None:
        if hops < 1:
            raise ConfigurationError(f"a channel needs at least 1 hop, got {hops}")
        self.hops = hops
        self.params = params or IonTrapParameters.default()
        self.placement = placement or endpoint_only()
        self.protocol_name = protocol
        self.encoding = encoding
        self.distribution_name = distribution
        self._distribution = self._build_distribution(distribution)
        self._budget_model = EPRBudgetModel(
            self.params, protocol=protocol, placement=self.placement
        )

    def _build_distribution(self, name: str) -> DistributionMethod:
        key = name.strip().lower()
        if key in ("chained", "chained_teleportation", "teleportation"):
            return ChainedTeleportationDistribution(
                self.params, protocol=self.protocol_name, placement=self.placement
            )
        if key == "ballistic":
            return BallisticDistribution(
                self.params, protocol=self.protocol_name, placement=self.placement
            )
        raise ConfigurationError(f"unknown distribution methodology {name!r}")

    @property
    def distance_cells(self) -> float:
        """Physical channel length in ballistic cells."""
        return float(self.hops * self.params.cells_per_hop)

    def build(self, data_fidelity_in: float = 1.0) -> ChannelReport:
        """Construct the channel and report its cost and delivered quality.

        ``data_fidelity_in`` is the fidelity of the data qubit before it is
        teleported through the channel; the report includes its fidelity after
        a single long-distance teleportation using an endpoint-purified pair.
        """
        budget = self._budget_model.budget(self.hops)
        distribution = self._distribution.distribute(self.hops)
        # The data qubit is teleported once, using a pair purified up to the
        # fault-tolerance threshold (or the arrival fidelity if endpoint
        # purification is disabled for an ablation).
        epr_fidelity = (
            max(self.params.threshold_fidelity, budget.arrival_fidelity)
            if self.placement.endpoint_to_threshold and budget.feasible
            else budget.arrival_fidelity
        )
        data_out = teleportation_fidelity(data_fidelity_in, epr_fidelity, self.params)
        data_latency = teleportation_time(self.distance_cells, self.params)
        return ChannelReport(
            hops=self.hops,
            distance_cells=self.distance_cells,
            distribution_name=self.distribution_name,
            placement=self.placement,
            protocol_name=self.protocol_name,
            encoding=self.encoding,
            budget=budget,
            distribution=distribution,
            data_fidelity_in=data_fidelity_in,
            data_fidelity_out=data_out,
            data_teleport_latency_us=data_latency,
        )
