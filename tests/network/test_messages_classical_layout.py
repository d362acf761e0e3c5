"""Tests for the machine layouts (Home Base and Mobile Qubit)."""

import pytest

from repro.errors import ConfigurationError
from repro.network.geometry import Coordinate
from repro.network.layout import HomeBaseLayout, MobileQubitLayout, build_layout
from repro.network.topology import square_mesh


class TestHomeBaseLayout:
    def test_home_sites_are_row_major(self):
        layout = HomeBaseLayout(square_mesh(4), 16)
        assert layout.home_site(1) == Coordinate(0, 0)
        assert layout.home_site(5) == Coordinate(0, 1)
        assert layout.home_site(16) == Coordinate(3, 3)

    def test_operation_is_a_round_trip(self):
        layout = HomeBaseLayout(square_mesh(4), 16)
        requests = layout.communications_for(1, 7)
        assert len(requests) == 2
        assert requests[0].source == layout.home_site(7)
        assert requests[0].dest == layout.home_site(1)
        assert requests[1].source == layout.home_site(1)
        assert requests[1].dest == layout.home_site(7)

    def test_positions_unchanged_after_round_trip(self):
        layout = HomeBaseLayout(square_mesh(4), 16)
        layout.communications_for(1, 7)
        assert layout.position_of(7) == layout.home_site(7)

    def test_rejects_same_qubit_twice(self):
        layout = HomeBaseLayout(square_mesh(4), 16)
        with pytest.raises(ConfigurationError):
            layout.communications_for(3, 3)

    def test_rejects_out_of_range_qubit(self):
        layout = HomeBaseLayout(square_mesh(4), 16)
        with pytest.raises(ConfigurationError):
            layout.communications_for(1, 17)

    def test_too_many_qubits_for_grid(self):
        with pytest.raises(ConfigurationError):
            HomeBaseLayout(square_mesh(2), 5)


class TestMobileQubitLayout:
    def test_snake_placement_makes_consecutive_qubits_adjacent(self):
        layout = MobileQubitLayout(square_mesh(4), 16)
        for qubit in range(1, 16):
            a = layout.home_site(qubit)
            b = layout.home_site(qubit + 1)
            assert a.manhattan(b) == 1

    def test_walk_moves_one_hop(self):
        layout = MobileQubitLayout(square_mesh(4), 16)
        requests = layout.communications_for(1, 2)
        assert len(requests) == 1
        assert requests[0].hops() == 1
        assert layout.position_of(1) == layout.home_site(2)

    def test_qft_walk_is_mostly_nearest_neighbour(self):
        layout = MobileQubitLayout(square_mesh(4), 16)
        hops = []
        for partner in range(2, 17):
            for request in layout.communications_for(1, partner):
                if request.purpose == "walk":
                    hops.append(request.hops())
        assert all(h == 1 for h in hops)

    def test_final_interaction_triggers_return_home(self):
        layout = MobileQubitLayout(square_mesh(4), 16)
        for partner in range(2, 16):
            layout.communications_for(1, partner)
        requests = layout.communications_for(1, 16)
        purposes = [r.purpose for r in requests]
        assert "return_home" in purposes
        assert layout.position_of(1) == layout.home_site(1)

    def test_average_hops_smaller_than_home_base(self):
        from repro.workloads.qft import qft_pairs

        mesh = square_mesh(4)
        pairs = qft_pairs(16)
        mobile = MobileQubitLayout(mesh, 16).average_hops(pairs)
        home = HomeBaseLayout(mesh, 16).average_hops(pairs)
        assert mobile < home

    def test_reset_restores_home_positions(self):
        layout = MobileQubitLayout(square_mesh(4), 16)
        layout.communications_for(1, 5)
        layout.reset()
        assert layout.position_of(1) == layout.home_site(1)


class TestLayoutFactory:
    def test_build_by_name(self):
        mesh = square_mesh(4)
        assert isinstance(build_layout("home_base", mesh, 16), HomeBaseLayout)
        assert isinstance(build_layout("mobile", mesh, 16), MobileQubitLayout)

    def test_unknown_layout_rejected(self):
        with pytest.raises(ConfigurationError):
            build_layout("torus", square_mesh(4), 16)
