"""Tests for the DEJMPS and BBPSSW purification protocols."""

import pytest

from repro.errors import ConfigurationError
from repro.physics.parameters import ErrorRates, IonTrapParameters
from repro.physics.purification import BBPSSWProtocol, DEJMPSProtocol, get_protocol
from repro.physics.states import BellDiagonalState

NOISELESS = IonTrapParameters(
    errors=ErrorRates(one_qubit_gate=0.0, two_qubit_gate=0.0, move_cell=0.0, measure=0.0),
    purify_move_cells=0,
)


@pytest.fixture
def dejmps():
    return get_protocol("dejmps", IonTrapParameters.default())


@pytest.fixture
def bbpssw():
    return get_protocol("bbpssw", IonTrapParameters.default())


class TestFactory:
    def test_get_protocol_by_name(self):
        assert isinstance(get_protocol("dejmps"), DEJMPSProtocol)
        assert isinstance(get_protocol("BBPSSW"), BBPSSWProtocol)

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ConfigurationError):
            get_protocol("nested")


class TestSingleRound:
    def test_round_improves_werner_fidelity(self, dejmps, bbpssw):
        state = BellDiagonalState.werner(0.9)
        assert dejmps.purify_identical(state).fidelity > 0.9
        assert bbpssw.purify_identical(state).fidelity > 0.9

    def test_success_probability_reasonable(self, dejmps):
        outcome = dejmps.purify_identical(BellDiagonalState.werner(0.95))
        assert 0.8 < outcome.success_probability <= 1.0

    def test_expected_input_pairs_above_two(self, dejmps):
        outcome = dejmps.purify_identical(BellDiagonalState.werner(0.9))
        assert outcome.expected_input_pairs > 2.0

    def test_noiseless_dejmps_converges_to_one(self):
        protocol = DEJMPSProtocol(NOISELESS, noisy=False)
        state = BellDiagonalState.werner(0.9)
        for _ in range(12):
            state = protocol.purify_identical(state).state
        assert state.fidelity > 1 - 1e-9

    def test_noiseless_bbpssw_converges_to_one(self):
        protocol = BBPSSWProtocol(NOISELESS, noisy=False)
        state = BellDiagonalState.werner(0.9)
        for _ in range(80):
            state = protocol.purify_identical(state).state
        assert state.fidelity > 1 - 1e-6

    def test_output_normalised(self, dejmps):
        outcome = dejmps.purify_identical(BellDiagonalState(0.9, 0.06, 0.03, 0.01))
        assert sum(outcome.state.coefficients) == pytest.approx(1.0)


class TestConvergenceShape:
    """The Figure 8 qualitative claims."""

    def test_dejmps_reaches_floor_within_few_rounds(self, dejmps):
        errors = dejmps.error_series(BellDiagonalState.werner(0.99), 10)
        floor = min(errors)
        # Within 5 rounds DEJMPS is essentially at its floor.
        assert errors[5] <= floor * 2

    def test_bbpssw_needs_many_more_rounds(self, dejmps, bbpssw):
        state = BellDiagonalState.werner(0.99)
        target = 1 - 7.5e-5
        dejmps_rounds = dejmps.rounds_to_fidelity(state, target)
        bbpssw_rounds = bbpssw.rounds_to_fidelity(state, target)
        assert dejmps_rounds is not None and bbpssw_rounds is not None
        assert bbpssw_rounds >= 3 * dejmps_rounds

    def test_dejmps_floor_below_bbpssw_floor(self, dejmps, bbpssw):
        state = BellDiagonalState.werner(0.99)
        assert dejmps.max_achievable_fidelity(state) > bbpssw.max_achievable_fidelity(state)

    def test_bbpssw_error_ratio_near_two_thirds(self, bbpssw):
        # Near F = 1 the BBPSSW recurrence reduces error by ~2/3 per round.
        errors = bbpssw.error_series(BellDiagonalState.werner(0.999), 3)
        ratio = errors[1] / errors[0]
        assert 0.6 < ratio < 0.75

    def test_floor_set_by_operation_errors(self):
        good = get_protocol("dejmps", IonTrapParameters.default())
        bad = get_protocol("dejmps", IonTrapParameters.uniform_error(1e-4))
        state = BellDiagonalState.werner(0.99)
        assert good.max_achievable_fidelity(state) > bad.max_achievable_fidelity(state)

    def test_higher_initial_fidelity_needs_fewer_rounds(self, dejmps):
        target = 1 - 7.5e-5
        r_low = dejmps.rounds_to_fidelity(BellDiagonalState.werner(0.99), target)
        r_high = dejmps.rounds_to_fidelity(BellDiagonalState.werner(0.9999), target)
        assert r_high <= r_low


class TestRoundsToFidelity:
    def test_already_above_target_needs_zero_rounds(self, dejmps):
        state = BellDiagonalState.werner(0.99999)
        assert dejmps.rounds_to_fidelity(state, 1 - 7.5e-5) == 0

    def test_unreachable_target_returns_none(self):
        protocol = get_protocol("dejmps", IonTrapParameters.uniform_error(1e-3))
        state = BellDiagonalState.werner(0.99)
        assert protocol.rounds_to_fidelity(state, 1 - 7.5e-5) is None

    def test_iterate_rejects_negative_rounds(self, dejmps):
        with pytest.raises(ConfigurationError):
            dejmps.iterate(BellDiagonalState.werner(0.99), -1)

    def test_error_series_starts_at_input(self, dejmps):
        series = dejmps.error_series(BellDiagonalState.werner(0.99), 4)
        assert series[0] == pytest.approx(0.01)
        assert len(series) == 5
