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
import operator
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate
from typing import List, Optional, Sequence, Tuple

from ..physics.parameters import IonTrapParameters
from ..physics.purification import PurificationProtocol, get_protocol
from ..physics.purification_tree import expected_pairs_for_rounds
from ..physics.states import BellDiagonalState
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
    endpoint_rounds: int
    endpoint_pairs: float
    pairs_teleported: float
    teleport_operations: float
    total_pairs: float
    setup_latency_us: float
    #: Pair state reaching the endpoint purifiers after generation, chained
    #: teleportation and the local moves.
    arrival_state: BellDiagonalState
    #: State after ``endpoint_rounds`` purification rounds (the arrival state
    #: at 0 rounds); ``None`` when no depth clears the threshold.
    delivered_state: Optional[BellDiagonalState]
    per_hop_costs: Tuple[float, ...] = ()

    @property
    def arrival_error(self) -> float:
        return self.arrival_state.error

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

    # -- the budget ---------------------------------------------------------------

    def budget(self, hops: int) -> ChannelBudget:
        """Full resource budget for a channel of ``hops`` teleportation hops."""
        distribution = self._distribution
        arrival, per_hop_costs = distribution.arrival_trajectory(hops)
        raw_link = distribution.raw_link_state()
        link = distribution.link_state()
        link_cost = distribution.link_cost()

        feasible = True
        endpoint_rounds = 0
        endpoint_pairs = 1.0
        delivered: Optional[BellDiagonalState] = arrival
        if self.placement.endpoint_to_threshold:
            rounds = self.protocol.rounds_to_fidelity(
                arrival, self.params.threshold_fidelity, max_rounds=self.max_endpoint_rounds
            )
            if rounds is None:
                feasible = False
                endpoint_rounds = self.max_endpoint_rounds
                endpoint_pairs = float("inf")
                delivered = None
            else:
                endpoint_rounds = rounds
                outcomes = self.protocol.iterate(arrival, rounds)
                endpoint_pairs = expected_pairs_for_rounds(outcomes)
                if outcomes:
                    delivered = outcomes[-1].state

        # Pairs that must *enter* the channel per delivered good pair: the
        # endpoint tree's expected inputs, inflated by every per-hop
        # purification stage they must survive on the way.
        pairs_teleported = endpoint_pairs * math.prod(per_hop_costs)

        # transit(j): pairs performing hop j (j = 1 is the first swap away from
        # the generator).  Later hops carry fewer pairs because per-hop
        # purification has already consumed some.  The transits are added
        # last hop first, one by one (``sum`` compensates on Python >= 3.12).
        if per_hop_costs:
            suffixes = accumulate(reversed(per_hop_costs), operator.mul)
            teleport_operations = reduce(
                operator.add, (endpoint_pairs * suffix for suffix in suffixes), 0.0
            )
        else:
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
            endpoint_rounds=endpoint_rounds,
            endpoint_pairs=endpoint_pairs,
            pairs_teleported=pairs_teleported,
            teleport_operations=teleport_operations,
            total_pairs=total_pairs,
            setup_latency_us=latency,
            arrival_state=arrival,
            delivered_state=delivered,
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
