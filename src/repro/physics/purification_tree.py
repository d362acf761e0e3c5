"""Tree-structured purification cost model (paper Section 4.7).

A purification *tree* of depth ``r`` starts from ``2**r`` raw pairs of equal
fidelity; every level halves the pair count (and loses a further fraction to
failed rounds), so the expected number of raw input pairs per surviving output
pair is

    cost(r) = prod_{level k=1..r} 2 / P_success(k)

which is the "slightly more than 2**r" the paper quotes.  This module turns a
:class:`~repro.physics.purification.PurificationProtocol` trajectory into that
cost and into a :class:`PurificationSchedule` describing the full tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..errors import ConfigurationError, InfeasibleError
from .parameters import IonTrapParameters
from .purification import PurificationOutcome, PurificationProtocol
from .states import BellDiagonalState


@dataclass(frozen=True)
class PurificationSchedule:
    """A planned purification tree.

    Attributes
    ----------
    rounds:
        Tree depth (number of levels).
    input_state:
        Bell-diagonal state of the raw pairs entering level 0.
    outcomes:
        Per-level outcomes (state and success probability).
    expected_input_pairs:
        Expected raw pairs consumed per surviving output pair.
    """

    rounds: int
    input_state: BellDiagonalState
    outcomes: tuple
    expected_input_pairs: float

    @property
    def output_state(self) -> BellDiagonalState:
        """State of the surviving pair at the top of the tree."""
        if not self.outcomes:
            return self.input_state
        return self.outcomes[-1].state

    @property
    def output_fidelity(self) -> float:
        return self.output_state.fidelity

    @property
    def output_error(self) -> float:
        return self.output_state.error

    def describe(self) -> str:
        lines = [
            f"PurificationSchedule(rounds={self.rounds}, "
            f"input_error={self.input_state.error:.3e}, "
            f"output_error={self.output_error:.3e}, "
            f"expected_input_pairs={self.expected_input_pairs:.2f})"
        ]
        for level, outcome in enumerate(self.outcomes, start=1):
            lines.append(
                f"  level {level}: error={outcome.error:.3e} "
                f"p_success={outcome.success_probability:.4f}"
            )
        return "\n".join(lines)


def expected_pairs_for_rounds(outcomes: List[PurificationOutcome]) -> float:
    """Expected raw input pairs per output pair for a sequence of tree levels."""
    cost = 1.0
    for outcome in outcomes:
        if outcome.success_probability <= 0.0:
            return float("inf")
        cost *= 2.0 / outcome.success_probability
    return cost


def build_schedule(
    protocol: PurificationProtocol,
    input_state: BellDiagonalState,
    rounds: int,
) -> PurificationSchedule:
    """Build the schedule for a fixed number of tree levels."""
    if rounds < 0:
        raise ConfigurationError(f"rounds must be non-negative, got {rounds}")
    outcomes = protocol.iterate(input_state, rounds)
    return PurificationSchedule(
        rounds=rounds,
        input_state=input_state,
        outcomes=tuple(outcomes),
        expected_input_pairs=expected_pairs_for_rounds(outcomes),
    )


def schedule_to_threshold(
    protocol: PurificationProtocol,
    input_state: BellDiagonalState,
    *,
    target_fidelity: Optional[float] = None,
    params: IonTrapParameters | None = None,
    max_rounds: int = 30,
) -> PurificationSchedule:
    """Smallest purification tree that lifts ``input_state`` above threshold.

    Raises :class:`InfeasibleError` when the protocol cannot reach the target
    under its noise model (the breakdown regime of Figure 12).
    """
    params = params or protocol.params
    target = params.threshold_fidelity if target_fidelity is None else target_fidelity
    rounds = protocol.rounds_to_fidelity(input_state, target, max_rounds=max_rounds)
    if rounds is None:
        raise InfeasibleError(
            f"{protocol.name} cannot purify error {input_state.error:.3e} "
            f"to target error {1.0 - target:.3e} under the configured noise"
        )
    return build_schedule(protocol, input_state, rounds)


def hardware_purifiers_for_tree(rounds: int, *, queue_based: bool = True) -> int:
    """Number of hardware purifier units needed for a depth-``rounds`` tree.

    A naive tree purifier dedicates one unit per internal node (``2**r - 1``);
    the paper's queue purifier (Figure 14) needs only one unit per level.
    """
    if rounds < 0:
        raise ConfigurationError(f"rounds must be non-negative, got {rounds}")
    if rounds == 0:
        return 0
    if queue_based:
        return rounds
    return 2 ** rounds - 1
