"""Tests for dimension-order routing and the router model."""

import pytest

from repro.errors import RoutingError
from repro.network.geometry import Coordinate
from repro.network.nodes import ResourceAllocation
from repro.network.routing import (
    DimensionOrder,
    Path,
    dimension_order_route,
    link_load,
    node_load,
    route_many,
)
from repro.network.topology import square_mesh
from repro.sim.detailed import DetailedTransport
from repro.sim.engine import SimulationEngine
from repro.sim.machine import QuantumMachine
from repro.sim.teleporter import swap_routing, teleporter_set


def _turns(path):
    """The nodes where a pair transiting ``path`` turns between teleporter sets."""
    nodes = path.nodes
    return [
        node
        for previous, node, nxt in zip(nodes, nodes[1:], nodes[2:])
        if swap_routing(previous, node, nxt)[1]
    ]


class TestDimensionOrderRoute:
    def test_xy_route_goes_x_first(self):
        path = dimension_order_route(Coordinate(0, 0), Coordinate(3, 2))
        assert path.nodes[1] == Coordinate(1, 0)
        assert path.hops == 5
        assert path.destination == Coordinate(3, 2)

    def test_yx_route_goes_y_first(self):
        path = dimension_order_route(
            Coordinate(0, 0), Coordinate(3, 2), order=DimensionOrder.YX
        )
        assert path.nodes[1] == Coordinate(0, 1)
        assert path.hops == 5

    def test_hops_equal_manhattan_distance(self):
        src, dst = Coordinate(2, 7), Coordinate(9, 1)
        path = dimension_order_route(src, dst)
        assert path.hops == src.manhattan(dst)

    def test_single_node_path(self):
        path = dimension_order_route(Coordinate(3, 3), Coordinate(3, 3))
        assert path.hops == 0
        assert _turns(path) == []

    def test_straight_path_has_no_turn(self):
        path = dimension_order_route(Coordinate(0, 0), Coordinate(5, 0))
        assert _turns(path) == []

    def test_l_shaped_path_turns_at_corner(self):
        path = dimension_order_route(Coordinate(0, 0), Coordinate(4, 3))
        assert _turns(path) == [Coordinate(4, 0)]

    def test_midpoint_node_is_on_path(self):
        path = dimension_order_route(Coordinate(0, 0), Coordinate(6, 6))
        assert path.midpoint_node() in path.nodes

    def test_links_are_consecutive(self):
        path = dimension_order_route(Coordinate(1, 1), Coordinate(4, 4))
        assert len(path.links) == path.hops

    def test_topology_validation(self):
        mesh = square_mesh(4)
        with pytest.raises(RoutingError):
            dimension_order_route(Coordinate(0, 0), Coordinate(10, 0), mesh)

    def test_path_rejects_non_adjacent_nodes(self):
        with pytest.raises(RoutingError):
            Path((Coordinate(0, 0), Coordinate(2, 1)))
        with pytest.raises(RoutingError):
            Path((Coordinate(1, 0), Coordinate(3, 0)))
        # Without declared wrap extents even a zero-edge jump is invalid.
        with pytest.raises(RoutingError):
            Path((Coordinate(0, 0), Coordinate(2, 0)))

    def test_path_wrap_steps_must_match_declared_extent(self):
        # The exact boundary link of a 9-wide ring is valid...
        path = Path((Coordinate(0, 0), Coordinate(8, 0)), wraps=(9, 0))
        assert path.hops == 1
        # ...but an interior jump on the same ring is not a link.
        with pytest.raises(RoutingError):
            Path((Coordinate(0, 0), Coordinate(5, 0)), wraps=(9, 0))

    def test_route_many(self):
        paths = route_many([(Coordinate(0, 0), Coordinate(1, 1)), (Coordinate(2, 2), Coordinate(0, 2))])
        assert [p.hops for p in paths] == [2, 2]

    def test_link_and_node_load(self):
        paths = route_many(
            [(Coordinate(0, 0), Coordinate(2, 0)), (Coordinate(0, 0), Coordinate(2, 1))]
        )
        loads = link_load(paths)
        assert max(loads.values()) == 2  # both paths share the first two X links
        nodes = node_load(paths)
        assert nodes[Coordinate(0, 0)] == 2


class TestRouter:
    """The Figure 6 router: set choice, per-set capacity and storage."""

    def test_teleporter_split(self):
        machine = QuantumMachine(4, allocation=ResourceAllocation(8, 1, 1))
        assert machine.teleporter_bandwidth_per_direction() == 4.0
        assert machine.allocation.storage_cells == 32

    def test_odd_teleporter_count_keeps_at_least_one_per_set(self):
        # t = 1: the two sets share one teleporter, each realised as one
        # server at half speed.
        machine = QuantumMachine(4, allocation=ResourceAllocation(1, 1, 1))
        node = DetailedTransport(SimulationEngine(), machine).teleporter_for(Coordinate(1, 1))
        assert machine.teleporter_bandwidth_per_direction() == 0.5
        assert node.service_for("x").capacity == node.service_for("y").capacity == 1

    def test_straight_transit_uses_outgoing_dimension(self):
        assert swap_routing(Coordinate(1, 2), Coordinate(2, 2), Coordinate(3, 2)) == ("x", False)
        assert swap_routing(Coordinate(2, 1), Coordinate(2, 2), Coordinate(2, 3)) == ("y", False)

    def test_turning_transit_moves_between_sets(self):
        assert swap_routing(Coordinate(1, 2), Coordinate(2, 2), Coordinate(2, 3)) == ("y", True)
        assert swap_routing(Coordinate(2, 1), Coordinate(2, 2), Coordinate(3, 2)) == ("x", True)

    def test_local_injection(self):
        # A pair injected at its source router uses the set facing its first link.
        assert teleporter_set(Coordinate(2, 2), Coordinate(2, 3)) == "y"
        assert teleporter_set(Coordinate(2, 2), Coordinate(1, 2)) == "x"
