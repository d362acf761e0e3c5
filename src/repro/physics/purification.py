"""Entanglement purification protocols (paper Section 4.5, Figure 8).

Purification combines two lower-fidelity EPR pairs using local operations at
both endpoints plus one exchanged classical bit, producing (on success) a
single pair of higher fidelity.  The paper compares two recurrence protocols:

* **BBPSSW** (Bennett et al. 1996): twirls its inputs to Werner form every
  round, which makes the analysis simple but spreads errors evenly and limits
  the convergence to a geometric ~2/3 error reduction per round near F = 1.
* **DEJMPS** (Deutsch et al. 1996): keeps the Bell-diagonal structure and adds
  a pair of local rotations before the bilateral CNOT, giving much faster
  (roughly quadratic) convergence and a higher maximum fidelity.

Both are implemented exactly on Bell-diagonal coefficient vectors, including
the effect of noisy local operations (one/two-qubit gate error, per-round
ballistic shuttling, measurement flips), which produces the error floors
visible in Figure 8 and the feasibility cliff of Figure 12.

The bilateral-CNOT recurrence in the (phi+, psi+, psi-, phi-) ordering used by
:class:`~repro.physics.states.BellDiagonalState`:

    success branch (outcomes coincide), unnormalised:
        a' = a^2 + d^2      d' = 2 a d
        b' = b^2 + c^2      c' = 2 b c
    acceptance probability  N = (a + d)^2 + (b + c)^2

    failure branch (outcomes differ), unnormalised:
        a' = b' = a b + c d      c' = d' = a c + b d
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import List, Optional

from ..errors import ConfigurationError, InfeasibleError
from .gates import NoiseModel
from .parameters import IonTrapParameters
from .states import BellDiagonalState

#: Safety bound on recurrence iteration when searching for fixed points.
_MAX_SEARCH_ROUNDS = 200


@dataclass(frozen=True)
class PurificationOutcome:
    """Result of one purification round.

    Attributes
    ----------
    state:
        Bell-diagonal state of the surviving pair, conditioned on acceptance.
    success_probability:
        Probability that the round is accepted (both classical bits agree,
        including the effect of measurement errors).
    """

    state: BellDiagonalState
    success_probability: float

    @property
    def fidelity(self) -> float:
        return self.state.fidelity

    @property
    def error(self) -> float:
        return self.state.error

    @property
    def expected_input_pairs(self) -> float:
        """Expected number of input pairs consumed per surviving output pair.

        Two pairs enter each attempt and one attempt in ``1/success_probability``
        succeeds, so the expectation is ``2 / success_probability``.
        """
        if self.success_probability <= 0.0:
            return float("inf")
        return 2.0 / self.success_probability


def _bilateral_cnot_branches(a: BellDiagonalState, b: BellDiagonalState):
    """Return (success_coeffs, fail_coeffs, acceptance_probability)."""
    a0, a1, a2, a3 = a.coefficients  # phi+, psi+, psi-, phi-
    b0, b1, b2, b3 = b.coefficients
    success = (
        a0 * b0 + a3 * b3,
        a1 * b1 + a2 * b2,
        a1 * b2 + a2 * b1,
        a0 * b3 + a3 * b0,
    )
    fail = (
        a0 * b1 + a3 * b2,
        a1 * b0 + a2 * b3,
        a1 * b3 + a2 * b0,
        a0 * b2 + a3 * b1,
    )
    n_success = sum(success)
    return success, fail, n_success


class PurificationProtocol(ABC):
    """Common interface for recurrence purification protocols."""

    #: Short protocol name used in reports and figure legends.
    name: str = "abstract"

    def __init__(self, params: IonTrapParameters | None = None, *, noisy: bool = True) -> None:
        self.params = params or IonTrapParameters.default()
        self.noisy = noisy
        self._noise = NoiseModel(self.params)

    # -- protocol-specific hooks ------------------------------------------------

    @abstractmethod
    def _prepare_inputs(
        self, a: BellDiagonalState, b: BellDiagonalState
    ) -> tuple[BellDiagonalState, BellDiagonalState]:
        """Apply the protocol's pre-rotation / twirl to the two input pairs."""

    @abstractmethod
    def _finalise_output(self, state: BellDiagonalState) -> BellDiagonalState:
        """Apply the protocol's post-processing (e.g. BBPSSW's output twirl)."""

    # -- core recurrence ---------------------------------------------------------

    def round(self, a: BellDiagonalState, b: BellDiagonalState) -> PurificationOutcome:
        """Perform one purification round combining pairs ``a`` and ``b``."""
        a_in, b_in = self._prepare_inputs(a, b)
        if self.noisy:
            a_in = self._noise.purification_pre_noise(a_in)
            b_in = self._noise.purification_pre_noise(b_in)
        success, fail, n_success = _bilateral_cnot_branches(a_in, b_in)
        flip = self._noise.measurement_flip_probability(2) if self.noisy else 0.0
        accept_prob = (1.0 - flip) * n_success + flip * (1.0 - n_success)
        if accept_prob <= 0.0:
            raise InfeasibleError(
                f"{self.name} purification round has zero acceptance probability"
            )
        mixed = [
            (1.0 - flip) * s + flip * f for s, f in zip(success, fail)
        ]
        state = BellDiagonalState.from_coefficients(mixed)
        state = self._finalise_output(state)
        return PurificationOutcome(state=state, success_probability=accept_prob)

    def purify_identical(self, state: BellDiagonalState) -> PurificationOutcome:
        """One round applied to two identical copies of ``state`` (tree level)."""
        return self.round(state, state)

    def iterate(self, state: BellDiagonalState, rounds: int) -> List[PurificationOutcome]:
        """Apply ``rounds`` successive tree levels starting from ``state``.

        Level ``k`` purifies two copies of the level ``k - 1`` output, which is
        the tree-structured usage of Figure 8 / Section 4.7.
        """
        if rounds < 0:
            raise ConfigurationError(f"rounds must be non-negative, got {rounds}")
        outcomes: List[PurificationOutcome] = []
        current = state
        for _ in range(rounds):
            outcome = self.purify_identical(current)
            outcomes.append(outcome)
            current = outcome.state
        return outcomes

    def error_series(self, state: BellDiagonalState, rounds: int) -> List[float]:
        """Error (1 - fidelity) after 0..rounds tree levels (Figure 8 series)."""
        series = [state.error]
        current = state
        for _ in range(rounds):
            outcome = self.purify_identical(current)
            current = outcome.state
            series.append(current.error)
        return series

    def rounds_to_fidelity(
        self,
        state: BellDiagonalState,
        target_fidelity: float,
        *,
        max_rounds: int = 30,
    ) -> Optional[int]:
        """Minimum number of rounds to reach ``target_fidelity``, or None.

        Returns ``None`` when the protocol's maximum achievable fidelity under
        the configured noise is below the target (the Figure 12 breakdown
        regime) within ``max_rounds`` rounds.
        """
        if state.fidelity >= target_fidelity:
            return 0
        current = state
        best = current.fidelity
        for rounds in range(1, max_rounds + 1):
            current = self.purify_identical(current).state
            if current.fidelity >= target_fidelity:
                return rounds
            if current.fidelity <= best + 1e-15:
                # No further progress: we've hit the noise floor below target.
                return None
            best = current.fidelity
        return None

    def max_achievable_fidelity(
        self, state: BellDiagonalState, *, max_rounds: int = _MAX_SEARCH_ROUNDS
    ) -> float:
        """Highest fidelity reachable from ``state`` under the noise model."""
        current = state
        best = current.fidelity
        for _ in range(max_rounds):
            current = self.purify_identical(current).state
            if current.fidelity <= best + 1e-15:
                return best
            best = current.fidelity
        return best


class DEJMPSProtocol(PurificationProtocol):
    """Deutsch et al. (DEJMPS) recurrence protocol.

    The protocol's local rotations exchange the ``psi_minus`` and ``phi_minus``
    (Y and Z type) error components before the bilateral CNOT, so the error
    component the bare recurrence fails to suppress is rotated into a
    suppressed slot on the following round.  Convergence is roughly quadratic
    and the maximum fidelity is limited only by the local-operation noise.
    """

    name = "DEJMPS"

    def _prepare_inputs(self, a: BellDiagonalState, b: BellDiagonalState):
        a_rot = a.permute_errors((0, 2, 1))
        b_rot = b.permute_errors((0, 2, 1))
        if self.noisy:
            # The rotation itself is a pair of single-qubit gates on each pair.
            a_rot = a_rot.local_depolarize(self.params.errors.one_qubit_gate)
            b_rot = b_rot.local_depolarize(self.params.errors.one_qubit_gate)
        return a_rot, b_rot

    def _finalise_output(self, state: BellDiagonalState) -> BellDiagonalState:
        return state


class BBPSSWProtocol(PurificationProtocol):
    """Bennett et al. (BBPSSW) recurrence protocol.

    Inputs are twirled into Werner form before the bilateral CNOT and the
    output is twirled again, which partially randomises the state every round
    (the paper's explanation for its slower convergence and lower maximum
    fidelity).
    """

    name = "BBPSSW"

    def _prepare_inputs(self, a: BellDiagonalState, b: BellDiagonalState):
        a_w = BellDiagonalState.werner(a.fidelity)
        b_w = BellDiagonalState.werner(b.fidelity)
        if self.noisy:
            # Twirling is implemented with random local rotations; charge one
            # single-qubit gate per half, matching the DEJMPS accounting.
            a_w = a_w.local_depolarize(self.params.errors.one_qubit_gate)
            b_w = b_w.local_depolarize(self.params.errors.one_qubit_gate)
        return a_w, b_w

    def _finalise_output(self, state: BellDiagonalState) -> BellDiagonalState:
        return BellDiagonalState.werner(state.fidelity)


#: The purification protocols, by the name ``physics.protocol`` selects.
PROTOCOLS = {
    "dejmps": DEJMPSProtocol,
    "bbpssw": BBPSSWProtocol,
}


def get_protocol(
    name: str,
    params: IonTrapParameters | None = None,
    *,
    noisy: bool = True,
) -> PurificationProtocol:
    """Construct a purification protocol by its :data:`PROTOCOLS` name."""
    key = name.strip().lower()
    if key not in PROTOCOLS:
        raise ConfigurationError(
            f"unknown purification protocol {name!r}; expected one of {sorted(PROTOCOLS)}"
        )
    return PROTOCOLS[key](params, noisy=noisy)
