"""EPR pair generation model (paper Section 4.4, Eq. 4).

A generator (G) node produces an EPR pair from two freshly initialised qubits
with one single-qubit and one two-qubit gate.  The resulting fidelity is

    F_gen ∝ (1 - p_1q) (1 - p_2q) F_zero

where ``F_zero`` is the fidelity of the zero-prepared inputs.
"""

from __future__ import annotations

from typing import Optional

from .fidelity import validate_fidelity
from .parameters import IonTrapParameters
from .states import BellDiagonalState


def generation_fidelity(
    params: IonTrapParameters | None = None,
    zero_prep_fidelity: Optional[float] = None,
) -> float:
    """Fidelity of a freshly generated EPR pair (Eq. 4)."""
    params = params or IonTrapParameters.default()
    f_zero = params.zero_prep_fidelity if zero_prep_fidelity is None else zero_prep_fidelity
    f_zero = validate_fidelity(f_zero, name="zero_prep_fidelity")
    return (1.0 - params.errors.one_qubit_gate) * (1.0 - params.errors.two_qubit_gate) * f_zero


def generation_state(
    params: IonTrapParameters | None = None,
    zero_prep_fidelity: Optional[float] = None,
) -> BellDiagonalState:
    """Bell-diagonal state of a freshly generated EPR pair.

    The imperfection of the preparation is unbiased, so the generated state is
    Werner-like with fidelity :func:`generation_fidelity`.
    """
    return BellDiagonalState.werner(generation_fidelity(params, zero_prep_fidelity))


def generation_time(params: IonTrapParameters | None = None) -> float:
    """Time to generate one EPR pair (Table 1 lists ~122 us)."""
    params = params or IonTrapParameters.default()
    return params.times.generate
