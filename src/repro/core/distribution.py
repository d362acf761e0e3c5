"""EPR pair distribution methodologies (paper Section 3.1, Figures 4 and 5).

Two ways of getting the halves of an EPR pair to the endpoints of a channel:

* **Ballistic movement** — the pair is generated at a G node near the middle
  of the path and its halves are physically shuttled to the endpoint purifier
  nodes.  Fidelity decays geometrically with the full path length (Eq. 1) and
  latency is linear in distance.
* **Chained teleportation** — the pair is generated at the midpoint and each
  half is successively teleported from T' node to T' node over pre-distributed
  virtual-wire link pairs.  The pair accumulates the link pairs' errors plus
  gate/measurement noise per hop, but latency is nearly distance-independent
  because the links are pre-established.

Both methodologies produce a Bell-diagonal arrival state and a setup latency,
which feed the budget and channel models.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..errors import ConfigurationError
from ..physics.ballistic import ballistic_time
from ..physics.epr import generation_state, generation_time
from ..physics.parameters import IonTrapParameters
from ..physics.purification import PurificationProtocol, get_protocol
from ..physics.states import BellDiagonalState
from ..physics.teleportation import teleport_state, teleportation_time
from .placement import PurificationPlacement, endpoint_only


@dataclass(frozen=True)
class DistributionResult:
    """Outcome of distributing one EPR pair to the endpoints of a channel."""

    arrival_state: BellDiagonalState
    latency_us: float
    teleport_operations: int
    ballistic_cells: float
    link_pairs_consumed: float

    @property
    def arrival_fidelity(self) -> float:
        return self.arrival_state.fidelity

    @property
    def arrival_error(self) -> float:
        return self.arrival_state.error


class DistributionMethod(ABC):
    """Common interface for EPR distribution methodologies."""

    name: str = "abstract"

    def __init__(
        self,
        params: IonTrapParameters | None = None,
        *,
        protocol: str = "dejmps",
        placement: Optional[PurificationPlacement] = None,
    ) -> None:
        self.params = params or IonTrapParameters.default()
        self.placement = placement or endpoint_only()
        self.protocol: PurificationProtocol = get_protocol(protocol, self.params)

    @abstractmethod
    def distribute(self, hops: int) -> DistributionResult:
        """Distribute one EPR pair across a path of ``hops`` teleportation hops."""

    def path_cells(self, hops: int) -> float:
        """Physical length of the path in ballistic cells."""
        if hops < 0:
            raise ConfigurationError(f"hops must be non-negative, got {hops}")
        return float(hops * self.params.cells_per_hop)


class BallisticDistribution(DistributionMethod):
    """Figure 4: generate at the midpoint, shuttle the halves ballistically."""

    name = "ballistic"

    def distribute(self, hops: int) -> DistributionResult:
        cells = self.path_cells(hops)
        state = generation_state(self.params)
        # Each half travels half the path; decoherence acts on both halves, so
        # the pair decays over the full path length.
        state = state.movement_decay(self.params.errors.move_cell, cells)
        state = state.movement_decay(
            self.params.errors.move_cell, 2 * self.params.endpoint_local_cells
        )
        latency = generation_time(self.params) + ballistic_time(cells / 2.0, self.params)
        latency += ballistic_time(self.params.endpoint_local_cells, self.params)
        return DistributionResult(
            arrival_state=state,
            latency_us=latency,
            teleport_operations=0,
            ballistic_cells=cells + 2 * self.params.endpoint_local_cells,
            link_pairs_consumed=0.0,
        )


class ChainedTeleportationDistribution(DistributionMethod):
    """Figure 5: successively teleport the pair's halves over virtual wires."""

    name = "chained_teleportation"

    # -- link (virtual wire) pairs -------------------------------------------

    def raw_link_state(self) -> BellDiagonalState:
        """State of a virtual-wire pair as delivered to adjacent T' nodes.

        A G node sits between two T' nodes; each generated half travels about
        half a hop ballistically, so the pair decays over one hop length.
        """
        state = generation_state(self.params)
        return state.movement_decay(self.params.errors.move_cell, self.params.cells_per_hop)

    def link_state(self) -> BellDiagonalState:
        """Link state after any virtual-wire purification mandated by placement."""
        state = self.raw_link_state()
        if self.placement.virtual_wire_rounds:
            outcomes = self.protocol.iterate(state, self.placement.virtual_wire_rounds)
            state = outcomes[-1].state
        return state

    def link_cost(self) -> float:
        """Expected raw generated pairs consumed per usable link pair."""
        if not self.placement.virtual_wire_rounds:
            return 1.0
        outcomes = self.protocol.iterate(
            self.raw_link_state(), self.placement.virtual_wire_rounds
        )
        cost = 1.0
        for outcome in outcomes:
            cost *= 2.0 / outcome.success_probability
        return cost

    # -- chained transport -----------------------------------------------------

    def arrival_trajectory(self, hops: int) -> Tuple[BellDiagonalState, List[float]]:
        """Arrival state at the endpoints plus per-hop purification cost factors."""
        if hops < 0:
            raise ConfigurationError(f"hops must be non-negative, got {hops}")
        link = self.link_state()
        state = link
        per_hop_costs: List[float] = []
        overhead = self.params.router_overhead_cells
        for _ in range(max(hops - 1, 0)):
            state = state.movement_decay(self.params.errors.move_cell, overhead)
            state = teleport_state(state, link, self.params)
            if self.placement.per_hop_rounds:
                outcomes = self.protocol.iterate(state, self.placement.per_hop_rounds)
                cost = 1.0
                for outcome in outcomes:
                    cost *= 2.0 / outcome.success_probability
                per_hop_costs.append(cost)
                state = outcomes[-1].state
            else:
                per_hop_costs.append(1.0)
        state = state.movement_decay(
            self.params.errors.move_cell, 2 * self.params.endpoint_local_cells
        )
        return state, per_hop_costs

    def distribute(self, hops: int) -> DistributionResult:
        # The delivered pair starts life as a link pair at the midpoint; every
        # teleport along the chain consumes one more.
        state, _ = self.arrival_trajectory(hops)
        teleports = max(hops - 1, 0)
        link_cost = self.link_cost()
        link_pairs = link_cost
        for _ in range(teleports):
            link_pairs += link_cost
        # Latency: the links are pre-distributed, so the chained swaps happen in
        # one teleportation round; correction bits then ride the classical
        # network over the whole path.
        cells = self.path_cells(hops)
        latency = generation_time(self.params)
        latency += teleportation_time(0.0, self.params)
        latency += self.params.times.classical(cells)
        latency += ballistic_time(self.params.endpoint_local_cells, self.params)
        if self.placement.per_hop_rounds:
            latency += (
                self.placement.per_hop_rounds
                * teleports
                * self.params.times.purify_round(self.params.cells_per_hop)
            )
        return DistributionResult(
            arrival_state=state,
            latency_us=latency,
            teleport_operations=teleports,
            ballistic_cells=self.params.router_overhead_cells * teleports
            + 2 * self.params.endpoint_local_cells,
            link_pairs_consumed=link_pairs,
        )


def get_distribution(
    name: str,
    params: IonTrapParameters | None = None,
    **kwargs: object,
) -> DistributionMethod:
    """Construct a distribution methodology by name."""
    key = name.strip().lower()
    table = {
        "ballistic": BallisticDistribution,
        "chained": ChainedTeleportationDistribution,
        "chained_teleportation": ChainedTeleportationDistribution,
        "teleportation": ChainedTeleportationDistribution,
    }
    if key not in table:
        raise ConfigurationError(
            f"unknown distribution method {name!r}; expected one of {sorted(table)}"
        )
    return table[key](params, **kwargs)  # type: ignore[arg-type]
