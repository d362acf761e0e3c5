"""The paper's headline quantitative claims, checked end to end.

Each test cites the paper section it reproduces.  These are the acceptance
tests for the reproduction: if one of them fails, EXPERIMENTS.md is wrong.
"""

import pytest

from repro.analysis.fig12 import breakdown_error_rate
from repro.analysis.fig9 import error_amplification
from repro.core.budget import EPRBudgetModel
from repro.core.crossover import crossover_distance_cells, recommended_hop_cells
from repro.core.logical import STEANE_LEVEL_2, pairs_per_logical_communication
from repro.core.placement import endpoint_only, virtual_wire
from repro.network.layout import HomeBaseLayout, MobileQubitLayout
from repro.network.routing import DimensionOrder, dimension_order_route, link_load, node_load
from repro.network.topology import square_mesh
from repro.physics.ballistic import ballistic_error
from repro.physics.parameters import IonTrapParameters
from repro.physics.purification import get_protocol
from repro.physics.states import BellDiagonalState
from repro.sim.engine import SimulationEngine
from repro.sim.qpurifier import QueuePurifier, QueuePurifierModel
from repro.workloads.qft import qft_pairs


@pytest.fixture(scope="module")
def params():
    return IonTrapParameters.default()


def _qft_paths(layout_cls, order, side=8):
    """Dimension-order routes of every non-local QFT communication."""
    layout = layout_cls(square_mesh(side), side * side)
    return [
        dimension_order_route(request.source, request.dest, order=order)
        for a, b in qft_pairs(side * side)
        for request in layout.communications_for(a, b)
        if not request.is_local
    ]


class TestSection1Introduction:
    def test_corner_to_corner_error_exceeds_1e3(self, params):
        # "a qubit would experience a probability of error of more than 1e-3
        # in traveling from corner to corner" of a 1000x1000 grid.
        assert ballistic_error(0.0, 2 * 999, params) > 1e-3

    def test_hundreds_of_qubits_per_data_communication(self, params):
        # Abstract: "100s of qubits must be distributed to accommodate a
        # single data communication."
        budget = EPRBudgetModel(params).budget(15)
        assert budget.pairs_per_logical_communication(STEANE_LEVEL_2) > 100


class TestSection3Routing:
    def test_xy_and_yx_routing_are_mirror_images(self):
        # Section 3.2 fixes XY dimension-order routing; YX gives the same hop
        # total and the same peak link load, so the choice is arbitrary.
        xy = _qft_paths(HomeBaseLayout, DimensionOrder.XY, side=6)
        yx = _qft_paths(HomeBaseLayout, DimensionOrder.YX, side=6)
        assert sum(p.hops for p in xy) == sum(p.hops for p in yx)
        assert max(link_load(xy).values()) == max(link_load(yx).values())

    def test_home_base_traffic_travels_farther_and_concentrates_load(self):
        # Home Base QFT traffic travels much farther and loads the busiest
        # router more than Mobile Qubit, which is why it is teleporter-bound
        # in Figure 16.
        home = _qft_paths(HomeBaseLayout, DimensionOrder.XY)
        mobile = _qft_paths(MobileQubitLayout, DimensionOrder.XY)

        def mean_hops(paths):
            return sum(p.hops for p in paths) / len(paths)

        assert mean_hops(home) > 2 * mean_hops(mobile)
        assert max(node_load(home).values()) > max(node_load(mobile).values())


class TestSection4Models:
    def test_latency_crossover_about_600_cells(self, params):
        # "for a distance of about 600 cells, teleportation is faster than
        # ballistic movement."
        assert 550 <= crossover_distance_cells(params) <= 650
        assert recommended_hop_cells(params) == 600

    def test_two_teleporters_100_cells_apart_example(self, params):
        # "for two teleporters spaced 100 cells apart, ballistic movement
        # error equals ~1e-4 compared to 1e-7 for a two-qubit gate error."
        movement = ballistic_error(0.0, 100, params)
        assert movement == pytest.approx(1e-4, rel=0.05)
        assert params.errors.two_qubit_gate == 1e-7

    def test_64_teleports_increase_error_by_factor_100(self, params):
        # Figure 9 discussion: "teleporting 64 times could increase EPR pair
        # qubit error by a factor of 100" (order of magnitude check).
        assert 30 <= error_amplification(1e-4, 64, params) <= 150

    def test_dejmps_needs_5_to_10x_fewer_rounds_than_bbpssw(self, params):
        # Section 4.5: "The BBPSSW protocol takes 5-10 times more rounds to
        # converge ... as the DEJMPS protocol."
        state = BellDiagonalState.werner(0.99)
        target = params.threshold_fidelity
        dejmps = get_protocol("dejmps", params).rounds_to_fidelity(state, target)
        bbpssw = get_protocol("bbpssw", params).rounds_to_fidelity(state, target)
        assert dejmps is not None and bbpssw is not None
        assert 3 <= bbpssw / dejmps <= 12

    def test_purification_exponential_in_rounds(self, params):
        # "to perform x rounds, we need more than 2^x EPR pairs."
        protocol = get_protocol("dejmps", params)
        state = BellDiagonalState.werner(0.97)
        from repro.physics.purification_tree import expected_pairs_for_rounds

        for rounds in (1, 2, 3, 4):
            cost = expected_pairs_for_rounds(protocol.iterate(state, rounds))
            assert cost > 2 ** rounds

    def test_network_breaks_down_near_1e5_operation_error(self):
        # Figure 12: "the abrupt ends of all the plots near 1e-5."
        breakdown = breakdown_error_rate(error_rates=[1e-7, 3e-6, 1e-5, 3e-5, 1e-4])
        assert 3e-6 < breakdown <= 1e-4

    def test_bbpssw_budget_teleports_over_10x_dejmps_pairs(self, params):
        # Section 4.7 budgets with DEJMPS because BBPSSW needs more rounds and
        # so exponentially more pairs through the channel.
        for hops in (10, 20, 30):
            dejmps = EPRBudgetModel(params, protocol="dejmps").budget(hops)
            bbpssw = EPRBudgetModel(params, protocol="bbpssw").budget(hops)
            assert bbpssw.endpoint_rounds > dejmps.endpoint_rounds
            assert bbpssw.pairs_teleported > 10 * dejmps.pairs_teleported

    def test_final_design_uses_virtual_wire_plus_endpoint_purification(self, params):
        # Section 4.7 design decision: purifying the virtual wires reduces the
        # pairs that must move through the teleporters relative to endpoint-only.
        end = EPRBudgetModel(params, placement=endpoint_only()).budget(30)
        wire = EPRBudgetModel(params, placement=virtual_wire(2)).budget(30)
        assert wire.pairs_teleported < end.pairs_teleported


class TestSection5Simulation:
    def test_392_pairs_for_longest_communication_path(self, params):
        # "the expected number of EPR pairs required for the longest
        # communication path is 392 (= 2^3 x 49)."
        budget = EPRBudgetModel(params).budget(30)
        assert budget.endpoint_rounds == 3
        assert pairs_per_logical_communication(budget.endpoint_rounds) == 392

    def test_queue_purifier_saves_hardware(self):
        # Section 5.1: depth-n tree with n purifiers instead of 2^n - 1.
        from repro.physics.purification_tree import hardware_purifiers_for_tree

        assert hardware_purifiers_for_tree(3, queue_based=True) == 3
        assert hardware_purifiers_for_tree(3, queue_based=False) == 7

    def test_queue_purifier_depth_doubles_raw_pairs(self):
        # Section 5.1: each extra tree level doubles the raw pairs per good
        # pair; a depth-4 naive tree needs 2^4 - 1 units where the queue needs 4.
        depth3 = QueuePurifierModel(units=1, depth=3)
        depth4 = QueuePurifierModel(units=1, depth=4)
        assert depth4.raw_pairs_per_good_pair == 2 * depth3.raw_pairs_per_good_pair
        assert depth4.hardware_units_naive_tree() == 15

    def test_event_driven_purifier_matches_model_throughput(self, params):
        # Section 5.1: the event-driven queue purifier delivers good pairs at
        # the closed-form model's period.
        engine = SimulationEngine()
        purifier = QueuePurifier(engine, units=2, depth=3, params=params)
        for _ in range(8 * 20):
            purifier.accept_raw_pair()
        engine.run()
        model = QueuePurifierModel(
            units=2, depth=3, round_time_us=params.times.purify_round(0.0)
        )
        assert purifier.good_pairs_produced == 20
        period = engine.now / purifier.good_pairs_produced
        assert 0.8 * model.good_pair_period_us <= period <= 1.5 * model.good_pair_period_us

    def test_storage_is_4t_per_teleporter_node(self):
        # Section 5.3: "yielding 4t storage cells per T' node."
        from repro.network.nodes import ResourceAllocation

        assert ResourceAllocation(teleporters_per_node=8).storage_cells == 32
