"""Ion-trap physics substrate: fidelity, timing and purification models.

This subpackage implements the analytical models of Section 4 of the paper:

* :mod:`repro.physics.constants` — the Table 1 / Table 2 constants and the
  fault-tolerance threshold.
* :mod:`repro.physics.parameters` — a validated parameter bundle
  (:class:`IonTrapParameters`) used by every other model.
* :mod:`repro.physics.states` — Bell-diagonal / Werner state algebra.
* :mod:`repro.physics.ballistic` — Eq. 1 / Eq. 2 ballistic transport.
* :mod:`repro.physics.epr` — Eq. 4 EPR-pair generation.
* :mod:`repro.physics.teleportation` — Eq. 3 / Eq. 5 teleportation.
* :mod:`repro.physics.purification` — DEJMPS and BBPSSW recurrence protocols.
* :mod:`repro.physics.purification_tree` — tree / queue purification cost.
"""

from .constants import (
    DEFAULT_ERROR_RATES,
    DEFAULT_OPERATION_TIMES,
    THRESHOLD_ERROR,
    THRESHOLD_FIDELITY,
)
from .parameters import ErrorRates, IonTrapParameters, OperationTimes
from .fidelity import error_to_fidelity, fidelity_to_error, validate_fidelity
from .states import BellDiagonalState, WernerState
from .ballistic import ballistic_fidelity, ballistic_move_state, ballistic_time
from .epr import generation_fidelity, generation_time
from .teleportation import (
    chained_teleportation_fidelity,
    teleportation_fidelity,
    teleportation_time,
    teleport_state,
)
from .purification import (
    BBPSSWProtocol,
    DEJMPSProtocol,
    PurificationOutcome,
    PurificationProtocol,
    get_protocol,
)
from .purification_tree import PurificationSchedule, expected_pairs_for_rounds, schedule_to_threshold

__all__ = [
    "BBPSSWProtocol",
    "BellDiagonalState",
    "DEFAULT_ERROR_RATES",
    "DEFAULT_OPERATION_TIMES",
    "DEJMPSProtocol",
    "ErrorRates",
    "IonTrapParameters",
    "OperationTimes",
    "PurificationOutcome",
    "PurificationProtocol",
    "PurificationSchedule",
    "THRESHOLD_ERROR",
    "THRESHOLD_FIDELITY",
    "WernerState",
    "ballistic_fidelity",
    "ballistic_move_state",
    "ballistic_time",
    "chained_teleportation_fidelity",
    "error_to_fidelity",
    "expected_pairs_for_rounds",
    "fidelity_to_error",
    "generation_fidelity",
    "generation_time",
    "get_protocol",
    "schedule_to_threshold",
    "teleport_state",
    "teleportation_fidelity",
    "teleportation_time",
    "validate_fidelity",
]
