"""Channel planning on a mesh topology (paper Section 3.2, "Route Planning").

High-level classical control tracks logical qubits, picks a path for every
logical communication with dimension-order routing, designates the G node
nearest the middle of the path as the pair source, and computes the EPR budget
the channel will need.  :class:`ChannelPlanner` implements exactly that and is
the bridge between the analytical core and the network/simulation layers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..errors import RoutingError
from ..network.geometry import Coordinate
from ..network.routing import CandidatePaths, DimensionOrder, Path, candidate_paths
from ..network.topology import MeshTopology
from ..physics.parameters import IonTrapParameters
from .budget import ChannelBudget, EPRBudgetModel
from .logical import STEANE_LEVEL_2, LogicalQubitEncoding
from .placement import PurificationPlacement, endpoint_only


@dataclass(frozen=True)
class ChannelPlan:
    """A planned channel: path, seed generator and resource budget."""

    source: Coordinate
    destination: Coordinate
    path: Path
    generator_node: Coordinate
    budget: ChannelBudget
    encoding: LogicalQubitEncoding

    @property
    def hops(self) -> int:
        return self.path.hops

    @property
    def feasible(self) -> bool:
        return self.budget.feasible

    @property
    def pairs_per_logical_communication(self) -> float:
        return self.budget.pairs_per_logical_communication(self.encoding)

    @property
    def setup_latency_us(self) -> float:
        return self.budget.setup_latency_us

    def describe(self) -> str:
        return (
            f"ChannelPlan {self.source}->{self.destination}: {self.hops} hops via "
            f"{self.generator_node}, {self.pairs_per_logical_communication:.0f} pairs "
            f"per logical communication, setup {self.setup_latency_us:.0f} us"
        )


class ChannelPlanner:
    """Plans channels between T' nodes of a mesh."""

    def __init__(
        self,
        topology: MeshTopology,
        params: IonTrapParameters | None = None,
        *,
        placement: Optional[PurificationPlacement] = None,
        protocol: str = "dejmps",
        encoding: LogicalQubitEncoding = STEANE_LEVEL_2,
        order: DimensionOrder = DimensionOrder.XY,
    ) -> None:
        self.topology = topology
        self.params = params or IonTrapParameters.default()
        if self.params.cells_per_hop != topology.cells_per_hop:
            self.params = self.params.with_hop_cells(topology.cells_per_hop)
        self.placement = placement or endpoint_only()
        self.protocol = protocol
        self.encoding = encoding
        self.order = order
        self._budget_model = EPRBudgetModel(
            self.params, protocol=protocol, placement=self.placement
        )
        self._budget_cache: dict = {}
        self._plan_cache: dict = {}
        self._candidate_cache: dict = {}
        self._path_plan_cache: dict = {}

    def route(self, source: Coordinate, destination: Coordinate) -> Path:
        """The default (policy-free) path between two T' nodes.

        Dimension-order on grid fabrics; the first minimal candidate on
        hierarchical fabrics.  Load balancers pick among :meth:`candidates`
        instead and plan via :meth:`plan_via`.
        """
        return self.candidates(source, destination)[0]

    def candidates(self, source: Coordinate, destination: Coordinate) -> CandidatePaths:
        """All candidate paths for the pair (memoized per endpoint pair)."""
        key = (source, destination)
        cached = self._candidate_cache.get(key)
        if cached is None:
            # candidate_paths validates both endpoints against the topology.
            cached = candidate_paths(source, destination, self.topology, order=self.order)
            self._candidate_cache[key] = cached
        return cached

    def budget_for_hops(self, hops: int) -> ChannelBudget:
        """EPR budget for a channel of ``hops`` hops (cached per distance).

        The budget depends only on ``params``, ``protocol``, ``placement``
        and ``hops``, so planners with the same three inputs may share one
        cache (:meth:`adopt_budgets`).
        """
        if hops not in self._budget_cache:
            self._budget_cache[hops] = self._budget_model.budget(hops)
        return self._budget_cache[hops]

    @property
    def protocol_instance(self):
        """The purification protocol object the budget model runs."""
        return self._budget_model.protocol

    def plan(self, source: Coordinate, destination: Coordinate) -> ChannelPlan:
        """Plan a channel between two T' nodes (memoized per endpoint pair).

        Plans are immutable and deterministic in (source, destination) for a
        fixed planner configuration, so the memo is exact.  Service mode
        plans a channel per dispatched request, which makes repeated endpoint
        pairs the common case.
        """
        key = (source, destination)
        cached = self._plan_cache.get(key)
        if cached is not None:
            return cached
        if source == destination:
            raise RoutingError("source and destination T' nodes coincide; no channel needed")
        path = self.route(source, destination)
        budget = self.budget_for_hops(path.hops)
        plan = ChannelPlan(
            source=source,
            destination=destination,
            path=path,
            generator_node=path.midpoint_node(),
            budget=budget,
            encoding=self.encoding,
        )
        self._plan_cache[key] = plan
        return plan

    def plan_via(
        self, source: Coordinate, destination: Coordinate, path: Path
    ) -> ChannelPlan:
        """Plan a channel along a specific (balancer-chosen) candidate path.

        Memoized per (endpoints, path nodes): a balancer re-picking the same
        candidate for a later flow reuses the plan object, and the budget is
        shared per hop count with :meth:`plan` through ``budget_for_hops``.
        """
        key = (source, destination, path.nodes)
        cached = self._path_plan_cache.get(key)
        if cached is not None:
            return cached
        plan = ChannelPlan(
            source=source,
            destination=destination,
            path=path,
            generator_node=path.midpoint_node(),
            budget=self.budget_for_hops(path.hops),
            encoding=self.encoding,
        )
        self._path_plan_cache[key] = plan
        return plan

    def adopt_budgets(self, budgets: dict) -> None:
        """Use ``budgets`` as this planner's per-distance budget cache.

        The caller shares one dict among planners with equal ``params``,
        ``protocol`` and ``placement``; adoption only skips recomputation.
        """
        self._budget_cache = budgets

    def plan_many(
        self, endpoints: Sequence[Tuple[Coordinate, Coordinate]]
    ) -> List[ChannelPlan]:
        """Plan several channels (skipping zero-length requests)."""
        plans = []
        for source, destination in endpoints:
            if source == destination:
                continue
            plans.append(self.plan(source, destination))
        return plans

    def worst_case_plan(self) -> ChannelPlan:
        """Plan for the longest channel on the fabric.

        Corner to corner on a mesh; hierarchical fabrics expose their own
        ``worst_case_endpoints`` (first host to last host).
        """
        endpoints = getattr(self.topology, "worst_case_endpoints", None)
        if endpoints is not None:
            corner_a, corner_b = endpoints()
        else:
            corner_a = Coordinate(0, 0)
            corner_b = Coordinate(self.topology.width - 1, self.topology.height - 1)
        return self.plan(corner_a, corner_b)
