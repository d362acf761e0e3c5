"""Tests for the EPR budget engine (Figures 10-12 machinery)."""

import math

import pytest

from repro.core.budget import EPRBudgetModel, compare_placements
from repro.core.distribution import ChainedTeleportationDistribution
from repro.core.logical import STEANE_LEVEL_2
from repro.core.placement import between_teleports, endpoint_only, standard_schemes, virtual_wire
from repro.errors import ConfigurationError
from repro.physics.parameters import IonTrapParameters


@pytest.fixture(scope="module")
def params():
    return IonTrapParameters.default()


@pytest.fixture(scope="module")
def endpoint_model(params):
    return EPRBudgetModel(params, placement=endpoint_only())


class TestEndpointOnlyBudget:
    def test_depth_three_at_simulated_distances(self, endpoint_model):
        # Section 5.3: "a maximum purification tree of depth three" on the
        # 16x16 machine (max Manhattan distance 30 hops).
        assert endpoint_model.budget(10).endpoint_rounds == 3
        assert endpoint_model.budget(30).endpoint_rounds == 3

    def test_pairs_per_logical_communication_near_392(self, endpoint_model):
        budget = endpoint_model.budget(30)
        pairs = budget.pairs_per_logical_communication(STEANE_LEVEL_2)
        # 2^3 * 49 = 392 ideal; the yield-adjusted figure is slightly above.
        assert 392 <= pairs <= 480

    def test_arrival_error_grows_with_distance(self, endpoint_model):
        errors = [endpoint_model.budget(h).arrival_error for h in (5, 15, 30, 60)]
        assert errors == sorted(errors)

    def test_total_includes_link_pairs(self, endpoint_model):
        budget = endpoint_model.budget(20)
        assert budget.total_pairs > budget.pairs_teleported
        assert budget.total_pairs == pytest.approx(
            budget.link_cost * (budget.pairs_teleported + budget.teleport_operations)
        )

    def test_feasible_with_default_parameters(self, endpoint_model):
        assert endpoint_model.budget(60).feasible

    def test_setup_latency_positive_and_growing(self, endpoint_model):
        short = endpoint_model.budget(5).setup_latency_us
        long = endpoint_model.budget(40).setup_latency_us
        assert 0 < short < long

    def test_sweep_returns_budget_per_distance(self, endpoint_model):
        budgets = endpoint_model.sweep([5, 10, 15])
        assert [b.hops for b in budgets] == [5, 10, 15]

    def test_rejects_negative_hops(self, endpoint_model):
        with pytest.raises(ConfigurationError):
            endpoint_model.budget(-1)

    def test_describe_mentions_distance(self, endpoint_model):
        assert "D=10" in endpoint_model.budget(10).describe()


class TestPlacementComparison:
    """The Figure 10 / Figure 11 qualitative orderings."""

    def test_after_teleport_schemes_dominate_teleported_count(self, params):
        budgets = {b.placement.label: b for b in compare_placements(20, standard_schemes(), params)}
        assert (
            budgets["once after each teleport"].pairs_teleported
            > 10 * budgets["only at end"].pairs_teleported
        )
        assert (
            budgets["twice after each teleport"].pairs_teleported
            > budgets["once after each teleport"].pairs_teleported
        )

    def test_virtual_wire_minimises_teleported_count(self, params):
        budgets = {b.placement.label: b for b in compare_placements(30, standard_schemes(), params)}
        assert (
            budgets["twice before teleport"].pairs_teleported
            <= budgets["only at end"].pairs_teleported
        )

    def test_after_teleport_total_grows_exponentially(self, params):
        model = EPRBudgetModel(params, placement=between_teleports(1))
        t10 = model.budget(10).total_pairs
        t30 = model.budget(30).total_pairs
        assert t30 > 100 * t10

    def test_endpoint_and_virtual_wire_totals_within_small_factor(self, params):
        budgets = {b.placement.label: b for b in compare_placements(30, standard_schemes(), params)}
        end = budgets["only at end"].total_pairs
        wire = budgets["once before teleport"].total_pairs
        assert 0.2 < wire / end < 5.0

    def test_virtual_wire_reduces_endpoint_rounds_or_keeps_them(self, params):
        end = EPRBudgetModel(params, placement=endpoint_only()).budget(30)
        wire = EPRBudgetModel(params, placement=virtual_wire(2)).budget(30)
        assert wire.endpoint_rounds <= end.endpoint_rounds
        assert wire.arrival_error < end.arrival_error

    def test_per_hop_costs_only_for_between_teleports(self, params):
        end = EPRBudgetModel(params, placement=endpoint_only()).budget(10)
        after = EPRBudgetModel(params, placement=between_teleports(1)).budget(10)
        assert all(c == 1.0 for c in end.per_hop_costs)
        assert all(c > 2.0 for c in after.per_hop_costs)


class TestFeasibility:
    """The Figure 12 breakdown behaviour."""

    def test_infeasible_at_high_uniform_error(self):
        params = IonTrapParameters.uniform_error(1e-4)
        budget = EPRBudgetModel(params).budget(32)
        assert not budget.feasible
        assert math.isinf(budget.pairs_teleported)
        assert math.isinf(budget.total_pairs)

    def test_feasible_at_low_uniform_error(self):
        params = IonTrapParameters.uniform_error(1e-7)
        assert EPRBudgetModel(params).budget(32).feasible

    def test_breakdown_happens_between_1e6_and_1e4(self):
        feasible, infeasible = None, None
        for error in (1e-6, 3e-6, 1e-5, 3e-5, 1e-4):
            budget = EPRBudgetModel(IonTrapParameters.uniform_error(error)).budget(32)
            if budget.feasible:
                feasible = error
            elif infeasible is None:
                infeasible = error
        assert feasible is not None and infeasible is not None
        assert 1e-6 <= feasible < infeasible <= 1e-4

    def test_resources_grow_as_error_grows(self):
        values = []
        for error in (1e-9, 1e-7, 1e-6):
            budget = EPRBudgetModel(IonTrapParameters.uniform_error(error)).budget(32)
            values.append(budget.pairs_teleported)
        assert values == sorted(values)


class TestPairStates:
    """The budget owns the channel's arrival and delivered pair states."""

    @pytest.mark.parametrize(
        "params",
        [
            IonTrapParameters.default(),
            IonTrapParameters(threshold_error=0.01),
            IonTrapParameters.uniform_error(1e-5),
        ],
        ids=["default", "loose_target", "uniform_1e-5"],
    )
    @pytest.mark.parametrize("protocol", ["dejmps", "bbpssw"])
    def test_delivered_state_is_the_reference_recurrence(self, params, protocol):
        # The loose target reaches 0 rounds; BBPSSW at 1e-5 is infeasible.
        for placement in standard_schemes():
            model = EPRBudgetModel(params, protocol=protocol, placement=placement)
            distribution = ChainedTeleportationDistribution(
                params, protocol=protocol, placement=placement
            )
            for hops in (0, 1, 2, 8, 32):
                budget = model.budget(hops)
                assert budget.arrival_state == distribution.distribute(hops).arrival_state
                if not budget.feasible:
                    assert budget.delivered_state is None
                    continue
                rounds = budget.endpoint_rounds
                if rounds == 0:
                    expected = budget.arrival_state
                else:
                    expected = model.protocol.iterate(budget.arrival_state, rounds)[-1].state
                assert budget.delivered_state == expected
                assert budget.delivered_state.fidelity >= params.threshold_fidelity
