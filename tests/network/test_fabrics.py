"""Tests for the fabric table and wrap-around topologies."""

import networkx as nx
import pytest
from nx_oracle import nx_graph

from repro.errors import ConfigurationError
from repro.network.fabrics import FABRICS, Fabric, build_topology
from repro.network.geometry import Coordinate
from repro.network.routing import dimension_order_route
from repro.network.topology import LinkId


class TestRegistry:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown topology kind"):
            build_topology("klein_bottle", 4)

    def test_options_are_declared_at_registration(self):
        assert FABRICS["leaf_spine"].options == ("hosts_per_leaf",)
        assert FABRICS["dragonfly"].options == ("hosts_per_router",)
        assert FABRICS["mesh"].options == ()
        with pytest.raises(ConfigurationError, match=r"does not take options \['hosts_per_leaf'\]"):
            build_topology("mesh", 4, hosts_per_leaf=2)

    def test_a_type_error_inside_a_builder_is_not_an_option_error(self, monkeypatch):
        def _broken(width, height=None, *, allocation=None, cells_per_hop=600):
            raise TypeError("builder bug")

        monkeypatch.setitem(FABRICS, "mesh", Fabric(_broken))
        with pytest.raises(TypeError, match="builder bug"):
            build_topology("mesh", 4)

    def test_mesh_matches_direct_construction(self):
        mesh = build_topology("mesh", 4, 3)
        assert (mesh.width, mesh.height) == (4, 3)
        assert mesh.fabric == "mesh"
        assert not mesh.wrap_x and not mesh.wrap_y

    def test_mesh_defaults_square(self):
        assert build_topology("mesh", 5).height == 5


class TestLine:
    def test_structure(self):
        line = build_topology("line", 6)
        assert (line.width, line.height) == (6, 1)
        assert line.fabric == "line"
        assert line.node_count == 6
        assert line.link_count == 5
        assert line.diameter_hops() == 5

    def test_rejects_2d(self):
        with pytest.raises(ConfigurationError, match="one-dimensional"):
            build_topology("line", 6, 2)


class TestRing:
    def test_structure(self):
        ring = build_topology("ring", 9)
        assert ring.fabric == "ring"
        assert ring.link_count == 9  # one wrap link more than the line
        assert ring.diameter_hops() == 4
        assert nx.is_connected(nx_graph(ring))

    def test_wrap_distance_takes_short_way(self):
        ring = build_topology("ring", 9)
        assert ring.hop_distance(Coordinate(1, 0), Coordinate(7, 0)) == 3
        assert ring.hop_distance(Coordinate(0, 0), Coordinate(8, 0)) == 1

    def test_route_crosses_wrap_link(self):
        ring = build_topology("ring", 9)
        path = dimension_order_route(Coordinate(1, 0), Coordinate(7, 0), ring)
        assert path.hops == 3
        assert any(link.is_wrap for link in path.links)
        # Every traversed link exists on the fabric.
        for link in path.links:
            assert ring.are_adjacent(link.a, link.b)

    def test_too_small_rejected(self):
        with pytest.raises(ConfigurationError, match="at least 3"):
            build_topology("ring", 2)


class TestTorus:
    def test_structure(self):
        torus = build_topology("torus", 5)
        assert torus.fabric == "torus"
        # Every node has degree 4 on a torus: 2 * n^2 links.
        assert torus.link_count == 2 * 25
        assert torus.diameter_hops() == 4

    def test_corner_to_corner_is_two_hops(self):
        torus = build_topology("torus", 5)
        assert torus.hop_distance(Coordinate(0, 0), Coordinate(4, 4)) == 2
        path = dimension_order_route(Coordinate(0, 0), Coordinate(4, 4), torus)
        assert path.hops == 2
        assert all(link.is_wrap for link in path.links)

    def test_graph_and_manhattan_distances_agree(self):
        torus = build_topology("torus", 5, 7)
        graph = nx_graph(torus)
        for a, b in [
            (Coordinate(0, 0), Coordinate(4, 6)),
            (Coordinate(2, 1), Coordinate(3, 5)),
            (Coordinate(1, 6), Coordinate(4, 0)),
        ]:
            assert torus.hop_distance(a, b) == nx.shortest_path_length(graph, a, b)
            assert dimension_order_route(a, b, torus).hops == torus.hop_distance(a, b)

    def test_too_small_rejected(self):
        with pytest.raises(ConfigurationError, match="torus"):
            build_topology("torus", 2)


class TestWrapLinks:
    def test_wrap_flag_needs_three_nodes(self):
        from repro.network.topology import MeshTopology

        # On a 2-wide dimension the wrap link coincides with the direct link.
        narrow = MeshTopology(2, 1, wrap_x=True)
        assert not narrow.wrap_x
        assert narrow.link_count == 1

    def test_wrap_link_identity(self):
        ring = build_topology("ring", 5)
        wrap = LinkId(Coordinate(0, 0), Coordinate(4, 0))
        assert wrap in set(ring.links())
