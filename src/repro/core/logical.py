"""Logical qubit encodings and per-communication EPR requirements.

The paper uses concatenated Steane [[7,1,3]] codes: a level-``L`` logical
qubit is encoded in ``7**L`` physical qubits (level 2 = 49, level 3 = 343).
Moving a logical qubit through a teleportation channel therefore requires one
high-fidelity EPR pair per physical qubit, and each high-fidelity pair is the
survivor of a purification tree, so the number of raw EPR pairs that must be
distributed per logical communication is

    pairs = (2 ** purification_rounds) * (7 ** level)

For the simulated machine (level 2, depth-3 purification) this is the paper's
392 pairs (Section 5.3).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError


@dataclass(frozen=True)
class LogicalQubitEncoding:
    """A concatenated error-correction encoding of one logical qubit.

    Attributes
    ----------
    name:
        Human-readable encoding name.
    physical_per_logical_base:
        Number of physical qubits per logical qubit at one level of encoding
        (7 for the Steane code, 9 for Shor's code, ...).
    level:
        Concatenation level.  Level 0 means an unencoded physical qubit.
    """

    name: str = "steane"
    physical_per_logical_base: int = 7
    level: int = 2

    def __post_init__(self) -> None:
        if self.physical_per_logical_base < 1:
            raise ConfigurationError(
                f"physical_per_logical_base must be >= 1, got {self.physical_per_logical_base}"
            )
        if self.level < 0:
            raise ConfigurationError(f"level must be non-negative, got {self.level}")

    @property
    def physical_qubits(self) -> int:
        """Physical qubits per logical qubit at this concatenation level."""
        return self.physical_per_logical_base ** self.level

    def describe(self) -> str:
        return (
            f"{self.name} level {self.level}: "
            f"{self.physical_qubits} physical qubits per logical qubit"
        )


#: Level-1 Steane encoding (7 physical qubits / logical qubit).
STEANE_LEVEL_1 = LogicalQubitEncoding(level=1)
#: Level-2 Steane encoding (49 physical qubits / logical qubit), the paper's
#: baseline for resource accounting.
STEANE_LEVEL_2 = LogicalQubitEncoding(level=2)
#: Level-3 Steane encoding (343 physical qubits / logical qubit).
STEANE_LEVEL_3 = LogicalQubitEncoding(level=3)


def pairs_per_logical_communication(
    purification_rounds: int,
    encoding: LogicalQubitEncoding = STEANE_LEVEL_2,
) -> int:
    """Raw EPR pairs that must reach the endpoints per logical communication.

    ``2 ** purification_rounds`` raw pairs are consumed per surviving
    high-fidelity pair (ignoring the small failure-probability overhead), and
    one surviving pair is needed per physical qubit teleported.

    >>> pairs_per_logical_communication(3)
    392
    """
    if purification_rounds < 0:
        raise ConfigurationError(
            f"purification_rounds must be non-negative, got {purification_rounds}"
        )
    return (2 ** purification_rounds) * encoding.physical_qubits


def expected_pairs_per_logical_communication(
    expected_pairs_per_good_pair: float,
    encoding: LogicalQubitEncoding = STEANE_LEVEL_2,
) -> float:
    """Like :func:`pairs_per_logical_communication` but with yield accounting.

    ``expected_pairs_per_good_pair`` comes from the purification tree model
    (:func:`repro.physics.purification_tree.expected_pairs_for_rounds`) and
    includes the probability of failed rounds, so it is slightly larger than
    ``2 ** rounds``.
    """
    if expected_pairs_per_good_pair < 1.0:
        raise ConfigurationError(
            "expected_pairs_per_good_pair must be >= 1, got "
            f"{expected_pairs_per_good_pair}"
        )
    return expected_pairs_per_good_pair * encoding.physical_qubits
