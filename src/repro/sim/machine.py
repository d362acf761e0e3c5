"""The simulated machine: topology + layout + resource allocation + physics.

:class:`QuantumMachine` bundles everything the simulator needs to know about
the hardware: the mesh of T' nodes, the (t, g, p) allocation at each node, the
logical-qubit layout (Home Base or Mobile Qubit), the ion-trap parameters and
the purification policy.  It also exposes the per-resource *bandwidths* the
flow model shares between concurrent channels.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional, Tuple

from ..core.logical import STEANE_LEVEL_2, LogicalQubitEncoding
from ..core.placement import PurificationPlacement, endpoint_only
from ..core.planner import ChannelPlanner
from ..errors import ConfigurationError
from ..network.fabrics import build_topology
from ..network.layout import MachineLayout, build_layout
from ..network.nodes import ResourceAllocation
from ..network.routing import DimensionOrder
from ..physics.parameters import IonTrapParameters

#: The fluid model's resource kinds, in the order of their id blocks: each
#: T' node's X and Y teleporter sets, each link's generator, each node's
#: purifier bank.
RESOURCE_KINDS = ("teleporter_x", "teleporter_y", "generator", "purifier")
#: A channel's demand: the resource ids it uses and its work on each, in order.
Demand = Tuple[Tuple[int, ...], Tuple[float, ...]]


@dataclass(frozen=True)
class FlowDemandProfile:
    """Per-hop-count work quantities of one logical communication.

    Every quantity the fluid transport charges to a resource depends only on
    the channel's hop count (the path decides *which* resources, not *how
    much*), so the profile is memoized per distance and shared by all flows
    of the same length.  Work is expressed in server-microseconds.
    """

    hops: int
    pairs: float
    good_pairs: int
    swap_work: float  # teleporter work per intermediate T' node
    generator_work: float  # generator work per traversed virtual-wire link
    purifier_work: float  # queue-purifier work per endpoint
    data_teleport_work: float  # endpoint teleporter work per endpoint
    floor_us: float  # latency floor: setup pipeline + data teleport


class QuantumMachine:
    """A mesh-connected ion-trap machine ready to be simulated."""

    def __init__(
        self,
        width: int,
        height: Optional[int] = None,
        *,
        topology_kind: str = "mesh",
        allocation: Optional[ResourceAllocation] = None,
        layout: str = "home_base",
        num_qubits: Optional[int] = None,
        params: Optional[IonTrapParameters] = None,
        placement: Optional[PurificationPlacement] = None,
        protocol: str = "dejmps",
        encoding: LogicalQubitEncoding = STEANE_LEVEL_2,
        logical_gate_us: float = 300.0,
        routing_order: DimensionOrder = DimensionOrder.XY,
        generator_bandwidth_scale: float = 1.0,
        track_fidelity: bool = False,
        target_fidelity: Optional[float] = None,
        routing_policy: Optional[str] = None,
        routing_hysteresis: Optional[float] = None,
        topology_options: Optional[Dict[str, int]] = None,
    ) -> None:
        if logical_gate_us < 0:
            raise ConfigurationError(f"logical_gate_us must be non-negative, got {logical_gate_us}")
        if generator_bandwidth_scale <= 0:
            raise ConfigurationError(
                f"generator_bandwidth_scale must be positive, got {generator_bandwidth_scale}"
            )
        self.allocation = allocation or ResourceAllocation()
        self.params = params or IonTrapParameters.default()
        if target_fidelity is not None:
            # The target folds into the threshold, so purification-level
            # selection (budget.endpoint_rounds), the fluid purifier work and
            # the detailed queue depth all follow the same target by
            # construction instead of by convention.
            if not (0.0 < target_fidelity < 1.0):
                raise ConfigurationError(
                    f"target_fidelity must be in (0, 1), got {target_fidelity}"
                )
            self.params = replace(self.params, threshold_error=1.0 - target_fidelity)
        #: Whether channels report the fidelity they deliver; scenarios switch
        #: it on by carrying a ``noise`` section (see :mod:`repro.scenarios.spec`).
        self.track_fidelity = track_fidelity
        self.placement = placement or endpoint_only()
        self.encoding = encoding
        self.protocol = protocol
        self.logical_gate_us = logical_gate_us
        self.generator_bandwidth_scale = generator_bandwidth_scale
        self.topology = build_topology(
            topology_kind,
            width,
            height,
            allocation=self.allocation,
            cells_per_hop=self.params.cells_per_hop,
            **(topology_options or {}),
        )
        self.topology_kind = topology_kind
        #: Routing policy (see :mod:`repro.network.routing`); ``None`` keeps
        #: the historical single deterministic route per endpoint pair.
        self.routing_policy = routing_policy
        self.routing_hysteresis = routing_hysteresis
        self._load_balancer = None
        if routing_policy is not None:
            # Validate eagerly so a bad spec fails at machine build, not at
            # the first channel open mid-simulation.
            from ..network.routing import create_balancer

            self._load_balancer = create_balancer(
                routing_policy, hysteresis=routing_hysteresis
            )
        self.num_qubits = num_qubits or self.topology.qubit_capacity
        self.layout: MachineLayout = build_layout(layout, self.topology, self.num_qubits)
        self.layout_name = self.layout.name
        self.planner = ChannelPlanner(
            self.topology,
            self.params,
            placement=self.placement,
            protocol=protocol,
            encoding=encoding,
            order=routing_order,
        )
        self._flow_profiles: Dict[int, FlowDemandProfile] = {}
        nodes, links = self.topology.node_count, self.topology.link_count
        #: First resource id of each kind in :data:`RESOURCE_KINDS`, then the
        #: id count.  Within a block, the id's offset is the topology's node
        #: or link number.
        self.resource_blocks = (0, nodes, 2 * nodes, 2 * nodes + links, 3 * nodes + links)
        teleporters = self.teleporter_bandwidth_per_direction()
        capacities = (teleporters, teleporters, self.generator_bandwidth_per_link(), self.purifier_bandwidth_per_node())
        #: Bandwidth of one resource of each kind.
        self.kind_capacity = dict(zip(RESOURCE_KINDS, capacities))

    # -- descriptions -----------------------------------------------------------------

    def describe(self) -> str:
        return (
            f"QuantumMachine {self.topology.width}x{self.topology.height} "
            f"{self.topology_kind} "
            f"({self.num_qubits} logical qubits, {self.layout_name} layout, "
            f"{self.allocation.label}, {self.protocol.upper()})"
        )

    # -- routing ----------------------------------------------------------------------------

    def load_balancer(self):
        """The configured :class:`~repro.network.routing.LoadBalancer`, or None.

        Transport backends call this once at construction; ``None`` (no
        ``network.routing`` spec section) means every channel takes the
        planner's single deterministic route, bitwise-identical to the
        pre-multi-path behaviour.
        """
        return self._load_balancer

    # -- flow-model bandwidths ------------------------------------------------------------
    #
    # Bandwidths are expressed in "servers", i.e. how many operations of the
    # corresponding kind can be in service simultaneously; dividing work
    # (server-microseconds) by bandwidth gives time.

    def teleporter_bandwidth_per_direction(self) -> float:
        """Teleporters in each of a T' node's X and Y sets: ``max(t/2, 0.5)``.

        Both backends size the sets from this one rule; at ``t = 1`` the two
        sets share the node's single teleporter.
        """
        return max(self.allocation.teleporters_per_node / 2.0, 0.5)

    def generator_bandwidth_per_link(self) -> float:
        """Generators available on each virtual-wire link.

        ``generator_bandwidth_scale`` models faster or slower ancilla (EPR
        pair) factories than the allocation's integer count — the scenario
        engine sweeps it continuously.
        """
        return float(self.allocation.generators_per_node) * self.generator_bandwidth_scale

    def purifier_bandwidth_per_node(self) -> float:
        """Queue purifiers available at each endpoint P node."""
        return float(self.allocation.purifiers_per_node)

    def resource_keys(self, ids: Iterable[int]) -> List[Tuple]:
        """The tuple key of each resource id: ``(kind, (x, y))`` for a node's
        resource, ``("generator", (ax, ay), (bx, by))`` for a link's."""
        nodes = [(node.as_tuple(),) for node in self.topology.nodes()]
        links = [(link.a.as_tuple(), link.b.as_tuple()) for link in self.topology.links()]
        places = nodes + nodes + links + nodes
        return [(RESOURCE_KINDS[bisect_right(self.resource_blocks, rid) - 1], *places[rid]) for rid in ids]

    # -- per-communication work ----------------------------------------------------------

    def pairs_per_logical_communication(self, hops: int) -> float:
        """Raw pairs that must transit a channel of ``hops`` per logical qubit moved."""
        budget = self.planner.budget_for_hops(hops)
        return budget.pairs_teleported * self.encoding.physical_qubits

    def good_pairs_per_logical_communication(self) -> int:
        """Above-threshold pairs needed at the endpoints per logical qubit moved."""
        return self.encoding.physical_qubits

    def detailed_pair_budget(self, hops: int) -> "tuple[int, int]":
        """(purification depth, raw pairs) one channel needs at per-pair granularity.

        The event-driven purifier consumes ``2**depth`` raw pairs per good
        pair (every round succeeds in the deterministic model), and a channel
        must deliver one good pair per physical qubit of the logical operand.
        """
        depth = max(self.planner.budget_for_hops(hops).endpoint_rounds, 1)
        return depth, self.good_pairs_per_logical_communication() * (2 ** depth)

    def purifier_rounds_per_good_pair(self, hops: int) -> float:
        """Purification rounds executed at an endpoint per good pair produced."""
        budget = self.planner.budget_for_hops(hops)
        rounds = budget.endpoint_rounds
        return float(2 ** rounds - 1) if rounds > 0 else 0.0

    def channel_setup_floor_us(self, hops: int) -> float:
        """Distance-dependent latency floor of a channel (pipeline depth)."""
        budget = self.planner.budget_for_hops(hops)
        return budget.setup_latency_us

    def data_teleport_us(self, hops: int) -> float:
        """Latency of teleporting the data qubits once the channel is up."""
        distance_cells = hops * self.params.cells_per_hop
        return self.params.times.teleport(distance_cells)

    def flow_profile(self, hops: int) -> FlowDemandProfile:
        """Memoized per-distance work quantities for the fluid flow model.

        Building a flow's demand vector only needs these scalars plus the
        path coordinates, so memoizing them turns demand construction into a
        cheap per-node dictionary fill (the EPR budget behind them is the
        expensive part).
        """
        profile = self._flow_profiles.get(hops)
        if profile is None:
            times = self.params.times
            pairs = self.pairs_per_logical_communication(hops)
            good_pairs = self.good_pairs_per_logical_communication()
            swap_time = times.teleport(0.0)
            profile = FlowDemandProfile(
                hops=hops,
                pairs=pairs,
                good_pairs=good_pairs,
                swap_work=pairs * swap_time,
                generator_work=pairs * times.generate,
                purifier_work=good_pairs
                * self.purifier_rounds_per_good_pair(hops)
                * times.purify_round(0.0),
                data_teleport_work=good_pairs * swap_time,
                floor_us=self.channel_setup_floor_us(hops) + self.data_teleport_us(hops),
            )
            self._flow_profiles[hops] = profile
        return profile
