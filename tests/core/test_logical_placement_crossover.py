"""Tests for logical encodings, purification placement and the latency crossover."""

import pytest

from repro.core.crossover import (
    crossover_distance_cells,
    crossover_series,
    latency_comparison,
    recommended_hop_cells,
)
from repro.core.logical import (
    STEANE_LEVEL_1,
    STEANE_LEVEL_2,
    STEANE_LEVEL_3,
    LogicalQubitEncoding,
    expected_pairs_per_logical_communication,
    pairs_per_logical_communication,
)
from repro.core.placement import (
    PlacementScheme,
    PurificationPlacement,
    between_teleports,
    endpoint_only,
    standard_schemes,
    virtual_wire,
)
from repro.errors import ConfigurationError
from repro.physics.parameters import IonTrapParameters, OperationTimes


class TestLogicalEncoding:
    def test_steane_level_counts(self):
        assert STEANE_LEVEL_1.physical_qubits == 7
        assert STEANE_LEVEL_2.physical_qubits == 49
        assert STEANE_LEVEL_3.physical_qubits == 343

    def test_level_zero_is_unencoded(self):
        assert LogicalQubitEncoding(level=0).physical_qubits == 1

    def test_paper_392_pairs(self):
        assert pairs_per_logical_communication(3) == 392

    def test_pairs_scale_with_rounds(self):
        assert pairs_per_logical_communication(4) == 2 * pairs_per_logical_communication(3)

    def test_expected_pairs_with_yield(self):
        assert expected_pairs_per_logical_communication(8.5) == pytest.approx(8.5 * 49)

    def test_rejects_negative_rounds(self):
        with pytest.raises(ConfigurationError):
            pairs_per_logical_communication(-1)

    def test_rejects_sub_unity_yield(self):
        with pytest.raises(ConfigurationError):
            expected_pairs_per_logical_communication(0.5)

    def test_rejects_bad_level(self):
        with pytest.raises(ConfigurationError):
            LogicalQubitEncoding(level=-1)

    def test_describe(self):
        assert "49" in STEANE_LEVEL_2.describe()


class TestPlacement:
    def test_endpoint_only_scheme(self):
        placement = endpoint_only()
        assert placement.scheme is PlacementScheme.ENDPOINTS_ONLY
        assert not placement.purifies_links
        assert not placement.purifies_per_hop
        assert placement.label == "only at end"

    def test_virtual_wire_scheme(self):
        placement = virtual_wire(2)
        assert placement.scheme is PlacementScheme.VIRTUAL_WIRE
        assert placement.purifies_links
        assert placement.label == "twice before teleport"

    def test_between_teleports_scheme(self):
        placement = between_teleports(1)
        assert placement.scheme is PlacementScheme.BETWEEN_TELEPORTS
        assert placement.label == "once after each teleport"

    def test_standard_schemes_are_the_five_from_the_paper(self):
        labels = [p.label for p in standard_schemes()]
        assert labels == [
            "twice after each teleport",
            "once after each teleport",
            "twice before teleport",
            "once before teleport",
            "only at end",
        ]

    def test_custom_label_preserved(self):
        placement = PurificationPlacement(virtual_wire_rounds=1, label="custom")
        assert placement.label == "custom"

    def test_rejects_negative_rounds(self):
        with pytest.raises(ConfigurationError):
            PurificationPlacement(virtual_wire_rounds=-1)
        with pytest.raises(ConfigurationError):
            virtual_wire(0)
        with pytest.raises(ConfigurationError):
            between_teleports(0)


class TestCrossover:
    def test_crossover_near_600_cells(self):
        # The paper quotes "about 600 cells".
        assert 550 <= crossover_distance_cells() <= 650

    def test_recommended_hop_rounds_to_600(self):
        assert recommended_hop_cells() == 600

    def test_teleportation_wins_beyond_crossover(self):
        crossover = crossover_distance_cells()
        assert latency_comparison(crossover + 10).teleportation_faster
        assert not latency_comparison(crossover - 100).teleportation_faster
        # Ballistic movement wins at half the crossover, teleportation at twice it.
        assert not latency_comparison(300).teleportation_faster
        assert latency_comparison(1200).teleportation_faster

    def test_comparison_ratio(self):
        comparison = latency_comparison(1220)
        assert comparison.ratio == pytest.approx(
            comparison.ballistic_us / comparison.teleportation_us
        )

    def test_series_covers_range(self):
        series = crossover_series(1000, step=100)
        assert len(series) == 11
        assert series[0].distance_cells == 0

    def test_rejects_negative_distance(self):
        with pytest.raises(ConfigurationError):
            latency_comparison(-1)

    def test_no_crossover_when_classical_is_slow(self):
        slow_classical = IonTrapParameters(
            times=OperationTimes(classical_per_cell=0.5)
        )
        with pytest.raises(ConfigurationError):
            crossover_distance_cells(slow_classical)
