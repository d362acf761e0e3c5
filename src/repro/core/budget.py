"""EPR resource budget engine (paper Section 4.7, Figures 10-12).

For a channel of ``hops`` teleportation hops and a purification placement
policy, the budget model answers:

* what Bell-diagonal state arrives at the endpoints (after chained
  teleportation over the virtual wires, intra-router shuttling and the final
  local move);
* how many endpoint purification rounds are needed to clear the
  fault-tolerance threshold, and with what expected yield;
* how many EPR pairs must therefore *transit* the channel per delivered
  above-threshold pair (Figure 11);
* how many raw generated pairs are consumed in total, counting the virtual
  wire pairs burned by every hop of every transiting pair and by any
  virtual-wire purification (Figure 10);
* whether the channel is feasible at all for a given operation error rate
  (Figure 12's breakdown near 1e-5).

Accounting conventions (documented in DESIGN.md):

* A path of ``D`` hops needs ``D - 1`` chained teleportations (the delivered
  pair starts life as the middle virtual-wire pair).
* ``transit(j)`` is the expected number of pairs that perform hop ``j``.  For
  endpoint-only and virtual-wire placements it equals the endpoint tree's
  expected input count; for between-teleport placements it grows by the
  per-hop purification cost factor, which is what makes that policy's resource
  usage exponential in distance (the paper's qualitative conclusion).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from ..physics.parameters import IonTrapParameters
from ..physics.purification import PurificationProtocol, get_protocol
from ..physics.purification_tree import expected_pairs_for_rounds
from ..physics.states import BellDiagonalState
from ..physics.teleportation import teleport_state
from .distribution import ChainedTeleportationDistribution
from .logical import STEANE_LEVEL_2, LogicalQubitEncoding
from .placement import PurificationPlacement, endpoint_only


@dataclass(frozen=True)
class ChannelBudget:
    """Resource budget for delivering one above-threshold EPR pair."""

    hops: int
    placement: PurificationPlacement
    protocol_name: str
    feasible: bool
    link_error_raw: float
    link_error: float
    link_cost: float
    arrival_error: float
    endpoint_rounds: int
    endpoint_pairs: float
    pairs_teleported: float
    teleport_operations: float
    total_pairs: float
    setup_latency_us: float
    per_hop_costs: Tuple[float, ...] = ()

    @property
    def arrival_fidelity(self) -> float:
        return 1.0 - self.arrival_error

    def pairs_per_logical_communication(
        self, encoding: LogicalQubitEncoding = STEANE_LEVEL_2
    ) -> float:
        """Raw pairs that must transit the channel to move one logical qubit."""
        return self.pairs_teleported * encoding.physical_qubits

    def total_pairs_per_logical_communication(
        self, encoding: LogicalQubitEncoding = STEANE_LEVEL_2
    ) -> float:
        """Total raw pairs consumed to move one logical qubit."""
        return self.total_pairs * encoding.physical_qubits

    def describe(self) -> str:
        status = "feasible" if self.feasible else "INFEASIBLE"
        return (
            f"ChannelBudget({self.placement.label}, D={self.hops} hops, {status}): "
            f"arrival error={self.arrival_error:.3e}, "
            f"endpoint rounds={self.endpoint_rounds}, "
            f"pairs teleported={self.pairs_teleported:.3g}, "
            f"total pairs={self.total_pairs:.3g}"
        )


class EPRBudgetModel:
    """Computes :class:`ChannelBudget` values for a parameter set and policy."""

    def __init__(
        self,
        params: IonTrapParameters | None = None,
        *,
        protocol: str = "dejmps",
        placement: Optional[PurificationPlacement] = None,
        max_endpoint_rounds: int = 30,
    ) -> None:
        self.params = params or IonTrapParameters.default()
        self.placement = placement or endpoint_only()
        self.protocol_name = protocol
        self.protocol: PurificationProtocol = get_protocol(protocol, self.params)
        self.max_endpoint_rounds = max_endpoint_rounds
        self._distribution = ChainedTeleportationDistribution(
            self.params, protocol=protocol, placement=self.placement
        )

    # -- intermediate quantities -------------------------------------------------

    def raw_link_state(self) -> BellDiagonalState:
        """Raw virtual-wire pair state (generation plus one hop of movement)."""
        return self._distribution.raw_link_state()

    def link_state(self) -> BellDiagonalState:
        """Virtual-wire pair state after any mandated link purification."""
        return self._distribution.link_state()

    def link_cost(self) -> float:
        """Expected raw generated pairs per usable link pair."""
        return self._distribution.link_cost()

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

    # -- the budget ---------------------------------------------------------------

    def budget(self, hops: int) -> ChannelBudget:
        """Full resource budget for a channel of ``hops`` teleportation hops."""
        arrival, per_hop_costs = self.arrival_trajectory(hops)
        raw_link = self.raw_link_state()
        link = self.link_state()
        link_cost = self.link_cost()

        feasible = True
        endpoint_rounds = 0
        endpoint_pairs = 1.0
        if self.placement.endpoint_to_threshold:
            rounds = self.protocol.rounds_to_fidelity(
                arrival, self.params.threshold_fidelity, max_rounds=self.max_endpoint_rounds
            )
            if rounds is None:
                feasible = False
                endpoint_rounds = self.max_endpoint_rounds
                endpoint_pairs = float("inf")
            else:
                endpoint_rounds = rounds
                outcomes = self.protocol.iterate(arrival, rounds)
                endpoint_pairs = expected_pairs_for_rounds(outcomes)

        # Pairs that must *enter* the channel per delivered good pair: the
        # endpoint tree's expected inputs, inflated by every per-hop
        # purification stage they must survive on the way.
        hop_growth = 1.0
        for cost in per_hop_costs:
            hop_growth *= cost
        pairs_teleported = endpoint_pairs * hop_growth

        # transit(j): pairs performing hop j (j = 1 is the first swap away from
        # the generator).  Later hops carry fewer pairs because per-hop
        # purification has already consumed some.
        teleport_operations = 0.0
        suffix = 1.0
        for cost in reversed(per_hop_costs):
            suffix *= cost
            teleport_operations += endpoint_pairs * suffix
        if not per_hop_costs:
            teleport_operations = endpoint_pairs * max(hops - 1, 0)

        total_pairs = (
            float("inf")
            if math.isinf(endpoint_pairs)
            else link_cost * (pairs_teleported + teleport_operations)
        )

        latency = self._setup_latency(hops, endpoint_rounds)

        return ChannelBudget(
            hops=hops,
            placement=self.placement,
            protocol_name=self.protocol_name,
            feasible=feasible,
            link_error_raw=raw_link.error,
            link_error=link.error,
            link_cost=link_cost,
            arrival_error=arrival.error,
            endpoint_rounds=endpoint_rounds,
            endpoint_pairs=endpoint_pairs,
            pairs_teleported=pairs_teleported,
            teleport_operations=teleport_operations,
            total_pairs=total_pairs,
            setup_latency_us=latency,
            per_hop_costs=tuple(per_hop_costs),
        )

    def sweep(self, hop_values: Sequence[int]) -> List[ChannelBudget]:
        """Budgets for a sequence of distances (Figure 10/11 series)."""
        return [self.budget(hops) for hops in hop_values]

    # -- helpers --------------------------------------------------------------------

    def _setup_latency(self, hops: int, endpoint_rounds: int) -> float:
        """Channel setup latency for one delivered pair (pipeline depth, not throughput)."""
        cells = float(hops * self.params.cells_per_hop)
        times = self.params.times
        latency = times.generate
        if self.placement.virtual_wire_rounds:
            latency += self.placement.virtual_wire_rounds * times.purify_round(
                self.params.cells_per_hop
            )
        if hops > 1:
            # All swaps fire in parallel; corrections ride the classical network.
            latency += times.teleport(0.0) + times.classical(cells)
            if self.placement.per_hop_rounds:
                latency += (
                    self.placement.per_hop_rounds
                    * (hops - 1)
                    * times.purify_round(self.params.cells_per_hop)
                )
        latency += times.ballistic(self.params.endpoint_local_cells)
        latency += endpoint_rounds * times.purify_round(cells)
        return latency


def compare_placements(
    hops: int,
    placements: Sequence[PurificationPlacement],
    params: IonTrapParameters | None = None,
    *,
    protocol: str = "dejmps",
) -> List[ChannelBudget]:
    """Budgets for several placement policies at one distance."""
    params = params or IonTrapParameters.default()
    budgets = []
    for placement in placements:
        model = EPRBudgetModel(params, protocol=protocol, placement=placement)
        budgets.append(model.budget(hops))
    return budgets
