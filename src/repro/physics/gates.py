"""Noisy gate and measurement channels acting on EPR pair states.

The purification and teleportation models need a consistent treatment of how
imperfect local operations degrade the Bell-diagonal pairs they act on.  The
paper's constants (Table 2) give per-operation error probabilities; here we
translate them into channels on :class:`~repro.physics.states.BellDiagonalState`.

The modelling choices (standard in the entanglement-purification literature,
e.g. Dur/Briegel):

* a noisy one-qubit gate on one half of a pair = ideal gate followed by a
  single-qubit depolarising channel with probability ``p_1q``;
* a noisy two-qubit gate touching one half of a pair = ideal gate followed by
  a depolarising channel on the pair with probability ``p_2q``;
* a noisy measurement reports the wrong outcome with probability ``p_ms``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .parameters import IonTrapParameters
from .states import BellDiagonalState


@dataclass(frozen=True)
class NoiseModel:
    """Bundle of channel applications derived from :class:`IonTrapParameters`."""

    params: IonTrapParameters

    def after_two_qubit_gate(self, state: BellDiagonalState) -> BellDiagonalState:
        """Pair state after a noisy two-qubit gate involving one of its halves."""
        return state.depolarize(self.params.errors.two_qubit_gate)

    def measurement_flip_probability(self, measurements: int = 1) -> float:
        """Probability that an odd number of ``measurements`` outcomes is wrong.

        For the two-sided parity comparison used in purification the relevant
        failure is exactly one of the two measurement results being flipped.
        """
        p = self.params.errors.measure
        if measurements <= 0:
            return 0.0
        # Probability of an odd number of flips among `measurements` trials.
        return 0.5 * (1.0 - (1.0 - 2.0 * p) ** measurements)

    def purification_pre_noise(self, state: BellDiagonalState, *, rotations: int = 1) -> BellDiagonalState:
        """Noise applied to each input pair before the purification CNOTs.

        Each purification round applies ``rotations`` single-qubit rotations to
        each half (DEJMPS uses one per half; BBPSSW's twirl is accounted for
        separately), one bilateral two-qubit gate touching the pair, and a few
        cells of shuttling to bring the two pairs adjacent inside the purifier.
        """
        out = state
        for _ in range(max(rotations, 0)):
            out = out.local_depolarize(self.params.errors.one_qubit_gate)
            out = out.local_depolarize(self.params.errors.one_qubit_gate)
        out = out.depolarize(self.params.errors.two_qubit_gate)
        if self.params.purify_move_cells:
            out = out.movement_decay(self.params.errors.move_cell, self.params.purify_move_cells)
        return out

    def teleport_operation_noise(self, state: BellDiagonalState) -> BellDiagonalState:
        """Noise on a pair consumed as the resource of one teleportation.

        A teleportation uses one two-qubit gate, two one-qubit gates and two
        measurements (Eq. 5).  The measurements only affect the classical
        correction, which we fold in as an additional depolarising weight.
        """
        out = state.local_depolarize(self.params.errors.one_qubit_gate)
        out = out.local_depolarize(self.params.errors.one_qubit_gate)
        out = out.depolarize(self.params.errors.two_qubit_gate)
        flip = self.measurement_flip_probability(2)
        return out.depolarize(flip)
