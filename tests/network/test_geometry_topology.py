"""Tests for grid geometry and the mesh topology."""

import networkx as nx
import pytest
from nx_oracle import nx_graph

from repro.errors import ConfigurationError, RoutingError
from repro.network.geometry import Coordinate, iter_grid, manhattan_distance, midpoint
from repro.network.nodes import ResourceAllocation
from repro.network.topology import LinkId, MeshTopology, square_mesh
from repro.sim.teleporter import teleporter_set


class TestCoordinate:
    def test_manhattan_distance(self):
        assert Coordinate(0, 0).manhattan(Coordinate(3, 4)) == 7
        assert manhattan_distance(Coordinate(2, 2), Coordinate(2, 2)) == 0

    def test_neighbours_interior(self):
        assert len(Coordinate(2, 2).neighbours(5, 5)) == 4

    def test_neighbours_corner(self):
        assert len(Coordinate(0, 0).neighbours(5, 5)) == 2

    def test_neighbours_edge(self):
        assert len(Coordinate(0, 2).neighbours(5, 5)) == 3

    def test_midpoint(self):
        assert midpoint(Coordinate(0, 0), Coordinate(4, 6)) == Coordinate(2, 3)

    def test_rejects_negative_coordinates(self):
        with pytest.raises(ConfigurationError):
            Coordinate(-1, 0)

    def test_iter_grid_row_major(self):
        coords = list(iter_grid(3, 2))
        assert coords[0] == Coordinate(0, 0)
        assert coords[1] == Coordinate(1, 0)
        assert coords[-1] == Coordinate(2, 1)
        assert len(coords) == 6

    def test_iter_grid_rejects_bad_dimensions(self):
        with pytest.raises(ConfigurationError):
            list(iter_grid(0, 3))


class TestLinkId:
    def test_canonical_orientation(self):
        a, b = Coordinate(1, 1), Coordinate(2, 1)
        assert LinkId(a, b) == LinkId(b, a)

    def test_horizontal_flag(self):
        # A horizontal link is served by the X set at both ends, a vertical
        # one by the Y set.
        a, east, north = Coordinate(1, 1), Coordinate(2, 1), Coordinate(1, 2)
        assert teleporter_set(a, east) == teleporter_set(east, a) == "x"
        assert teleporter_set(a, north) == teleporter_set(north, a) == "y"

    def test_rejects_non_adjacent(self):
        # Diagonal jumps and colinear jumps away from the zero edge can never
        # be links, not even on a wrapping fabric.
        with pytest.raises(ConfigurationError):
            LinkId(Coordinate(0, 0), Coordinate(2, 1))
        with pytest.raises(ConfigurationError):
            LinkId(Coordinate(1, 0), Coordinate(3, 0))

    def test_accepts_wrap_links(self):
        # The long-way-around link of a ring or torus joins node 0 to the far
        # edge of its dimension.
        assert LinkId(Coordinate(0, 0), Coordinate(7, 0)).is_wrap
        assert LinkId(Coordinate(2, 0), Coordinate(2, 4)).is_wrap
        assert not LinkId(Coordinate(0, 0), Coordinate(1, 0)).is_wrap

    def test_stable_name_is_a_serialization_contract(self):
        # Pinned exactly: JSON records and golden traces key per-link data by
        # this string, so changing the format is a breaking change.
        assert LinkId(Coordinate(2, 1), Coordinate(1, 1)).stable_name == "(1,1)-(2,1)"
        assert LinkId(Coordinate(0, 0), Coordinate(7, 0)).stable_name == "(0,0)-(7,0)"
        assert str(LinkId(Coordinate(1, 1), Coordinate(2, 1))) == "(1,1)-(2,1)"


class TestMeshTopology:
    def test_node_and_link_counts(self):
        mesh = MeshTopology(4, 3)
        assert mesh.node_count == 12
        # Links: horizontal 3*3=9, vertical 4*2=8.
        assert mesh.link_count == 17

    def test_square_mesh_16(self):
        mesh = square_mesh(16)
        assert mesh.node_count == 256
        assert mesh.diameter_hops() == 30

    def test_connectivity(self):
        assert nx.is_connected(nx_graph(square_mesh(5)))

    def test_hop_and_cell_distance(self):
        mesh = square_mesh(8, cells_per_hop=600)
        assert mesh.hop_distance(Coordinate(0, 0), Coordinate(3, 4)) == 7
        assert mesh.cell_distance(Coordinate(0, 0), Coordinate(3, 4)) == 4200

    def test_shortest_path_equals_manhattan(self):
        mesh = square_mesh(6)
        a, b = Coordinate(1, 2), Coordinate(5, 0)
        assert nx.shortest_path_length(nx_graph(mesh), a, b) == mesh.hop_distance(a, b)

    def test_adjacency_and_link_lookup(self):
        mesh = square_mesh(4)
        assert mesh.are_adjacent(Coordinate(0, 0), Coordinate(0, 1))
        assert not mesh.are_adjacent(Coordinate(0, 0), Coordinate(1, 1))
        with pytest.raises(RoutingError):
            mesh.link_between(Coordinate(0, 0), Coordinate(1, 1))

    def test_validate_node_rejects_outside(self):
        with pytest.raises(RoutingError):
            square_mesh(4).validate_node(Coordinate(4, 0))

    def test_resource_totals(self):
        allocation = ResourceAllocation(teleporters_per_node=4, generators_per_node=2, purifiers_per_node=3)
        mesh = MeshTopology(3, 3, allocation)
        assert mesh.total_teleporters() == 36
        assert mesh.total_generators() == 2 * mesh.link_count
        assert mesh.total_purifiers() == 27
        assert mesh.interconnect_area_units() == 36 + 2 * mesh.link_count + 27

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ConfigurationError):
            MeshTopology(0, 5)

    def test_describe(self):
        assert "16x16" in square_mesh(16).describe()


class TestWrapLinkRegistration:
    """Regression: degenerate wrapped dimensions must not double-register.

    On a 1-wide or 2-node wrapped dimension the "long way around" is the
    direct link itself; the wrap pass used to re-add it under a second
    (asymmetrically ordered) LinkId, splitting one physical wire's state
    across two registry entries.
    """

    def test_linkid_rejects_self_loop(self):
        with pytest.raises(ConfigurationError):
            LinkId(Coordinate(0, 0), Coordinate(0, 0))

    def test_wrap_link_is_orientation_symmetric(self):
        a, b = Coordinate(0, 0), Coordinate(8, 0)
        assert LinkId(a, b) == LinkId(b, a)
        assert hash(LinkId(a, b)) == hash(LinkId(b, a))
        assert LinkId(a, b).stable_name == LinkId(b, a).stable_name

    def test_two_node_ring_collapses_wrap(self):
        # The wrap would duplicate the single direct link; the guard drops it.
        ring = MeshTopology(2, 1, wrap_x=True)
        assert not ring.wrap_x
        assert ring.link_count == 1

    def test_one_wide_torus_keeps_only_real_wraps(self):
        torus = MeshTopology(1, 4, wrap_x=True, wrap_y=True)
        assert not torus.wrap_x  # width 1: no second node to wrap to
        assert torus.wrap_y
        assert torus.link_count == 4  # 3 vertical + 1 wrap, each registered once

    def test_duplicate_registration_raises(self):
        ring = MeshTopology(9, 1, wrap_x=True)
        with pytest.raises(ConfigurationError, match="already registered"):
            ring._add_link(Coordinate(0, 0), Coordinate(8, 0))

    def test_ring_wrap_link_resolves_from_either_direction(self):
        ring = MeshTopology(9, 1, wrap_x=True)
        a, b = Coordinate(0, 0), Coordinate(8, 0)
        assert ring.link_between(a, b) is ring.link_between(b, a)
        assert ring.link_between(a, b).is_wrap


class TestResourceAllocation:
    def test_uniform(self):
        allocation = ResourceAllocation.uniform(1024)
        assert allocation.teleporters_per_node == 1024
        assert allocation.purifiers_per_node == 1024
        assert allocation.label == "t=g=p=1024"

    def test_ratio(self):
        allocation = ResourceAllocation.ratio(2, 4)
        assert allocation.teleporters_per_node == 8
        assert allocation.purifiers_per_node == 2
        assert "4p" in allocation.label

    def test_area_units(self):
        assert ResourceAllocation(4, 4, 2).area_units() == 10

    def test_rejects_zero_resources(self):
        with pytest.raises(ConfigurationError):
            ResourceAllocation(teleporters_per_node=0)

    def test_rejects_bad_ratio(self):
        with pytest.raises(ConfigurationError):
            ResourceAllocation.ratio(1, 0)
