"""Tests for EPR generation and the noise model helpers."""

import pytest

from repro.physics.epr import generation_fidelity, generation_state, generation_time
from repro.physics.gates import NoiseModel
from repro.physics.parameters import IonTrapParameters
from repro.physics.states import BellDiagonalState


class TestGeneration:
    def test_eq4_formula(self):
        params = IonTrapParameters.default()
        expected = (1 - 1e-8) * (1 - 1e-7) * params.zero_prep_fidelity
        assert generation_fidelity(params) == pytest.approx(expected)

    def test_zero_prep_override(self):
        params = IonTrapParameters.default()
        assert generation_fidelity(params, zero_prep_fidelity=0.9) < 0.91

    def test_generation_state_is_werner(self):
        state = generation_state()
        assert state.psi_plus == pytest.approx(state.phi_minus)

    def test_generation_time_matches_table1(self):
        assert generation_time() == pytest.approx(122.0, rel=0.02)


class TestNoiseModel:
    def test_two_qubit_gate_noise_reduces_fidelity(self):
        noise = NoiseModel(IonTrapParameters.default())
        state = BellDiagonalState.perfect()
        assert noise.after_two_qubit_gate(state).fidelity < 1.0

    def test_measurement_flip_probability_small(self):
        noise = NoiseModel(IonTrapParameters.default())
        assert noise.measurement_flip_probability(2) == pytest.approx(2e-8, rel=0.01)

    def test_measurement_flip_zero_measurements(self):
        noise = NoiseModel(IonTrapParameters.default())
        assert noise.measurement_flip_probability(0) == 0.0

    def test_teleport_operation_noise_bounded(self):
        noise = NoiseModel(IonTrapParameters.default())
        out = noise.teleport_operation_noise(BellDiagonalState.perfect())
        assert 1 - out.fidelity < 1e-6
