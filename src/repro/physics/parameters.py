"""Validated parameter bundles for the ion-trap models.

Every analytical model and the simulator take an :class:`IonTrapParameters`
instance, which bundles the Table 1 operation times and Table 2 error rates
plus the geometric overheads that the paper's router and purifier designs
introduce (intra-router movement, per-round shuttling, endpoint local moves).

Two constructors matter for reproducing the paper's figures:

* :meth:`IonTrapParameters.default` — the paper's Table 1 / Table 2 values.
* :meth:`IonTrapParameters.uniform_error` — all four error probabilities set
  to a single value, used for the sensitivity sweep of Figure 12.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..errors import ConfigurationError
from . import constants as C


def _check_probability(name: str, value: float) -> None:
    if not (0.0 <= value < 1.0):
        raise ConfigurationError(f"{name} must be a probability in [0, 1), got {value}")


def _check_positive(name: str, value: float) -> None:
    if value <= 0.0:
        raise ConfigurationError(f"{name} must be positive, got {value}")


def _check_non_negative(name: str, value: float) -> None:
    if value < 0.0:
        raise ConfigurationError(f"{name} must be non-negative, got {value}")


@dataclass(frozen=True)
class OperationTimes:
    """Operation latencies in microseconds (paper Table 1)."""

    one_qubit_gate: float = C.T_ONE_QUBIT_GATE_US
    two_qubit_gate: float = C.T_TWO_QUBIT_GATE_US
    move_cell: float = C.T_MOVE_CELL_US
    measure: float = C.T_MEASURE_US
    classical_per_cell: float = C.T_CLASSICAL_PER_CELL_US

    def __post_init__(self) -> None:
        _check_positive("one_qubit_gate", self.one_qubit_gate)
        _check_positive("two_qubit_gate", self.two_qubit_gate)
        _check_positive("move_cell", self.move_cell)
        _check_positive("measure", self.measure)
        _check_non_negative("classical_per_cell", self.classical_per_cell)

    @property
    def generate(self) -> float:
        """EPR generation time (one- plus two-qubit gate plus measurement check).

        The paper's Table 1 lists ~122 us, which is one single-qubit gate, one
        two-qubit gate and a verification measurement; the derived value here
        reproduces that total with the default constants.
        """
        return self.one_qubit_gate + self.two_qubit_gate + self.measure + 1.0

    def teleport(self, distance_cells: float = 0.0) -> float:
        """Teleportation latency (Eq. 5): local ops, measurement and classical bits."""
        _check_non_negative("distance_cells", distance_cells)
        return (
            2.0 * self.one_qubit_gate
            + self.two_qubit_gate
            + self.measure
            + self.classical_per_cell * distance_cells
        )

    def purify_round(self, distance_cells: float = 0.0) -> float:
        """One purification round (Eq. 6): two-qubit gate, measurement, classical bit."""
        _check_non_negative("distance_cells", distance_cells)
        return self.two_qubit_gate + self.measure + self.classical_per_cell * distance_cells

    def ballistic(self, distance_cells: float) -> float:
        """Ballistic movement latency (Eq. 2)."""
        _check_non_negative("distance_cells", distance_cells)
        return self.move_cell * distance_cells

    def classical(self, distance_cells: float) -> float:
        """Classical bit transmission latency over ``distance_cells``."""
        _check_non_negative("distance_cells", distance_cells)
        return self.classical_per_cell * distance_cells


@dataclass(frozen=True)
class ErrorRates:
    """Per-operation error probabilities (paper Table 2)."""

    one_qubit_gate: float = C.P_ONE_QUBIT_GATE
    two_qubit_gate: float = C.P_TWO_QUBIT_GATE
    move_cell: float = C.P_MOVE_CELL
    measure: float = C.P_MEASURE

    def __post_init__(self) -> None:
        _check_probability("one_qubit_gate", self.one_qubit_gate)
        _check_probability("two_qubit_gate", self.two_qubit_gate)
        _check_probability("move_cell", self.move_cell)
        _check_probability("measure", self.measure)

    @classmethod
    def uniform(cls, error: float) -> "ErrorRates":
        """All four error probabilities set to ``error`` (Figure 12 sweep)."""
        return cls(
            one_qubit_gate=error,
            two_qubit_gate=error,
            move_cell=error,
            measure=error,
        )

    def scaled(self, factor: float) -> "ErrorRates":
        """Return a copy with every probability multiplied by ``factor``.

        Values are clipped just below 1 so the result remains a valid
        probability set; useful for "what if the hardware were k times worse"
        studies.
        """
        if factor < 0:
            raise ConfigurationError(f"factor must be non-negative, got {factor}")
        clip = 1.0 - 1e-12

        def _s(p: float) -> float:
            return min(p * factor, clip)

        return ErrorRates(
            one_qubit_gate=_s(self.one_qubit_gate),
            two_qubit_gate=_s(self.two_qubit_gate),
            move_cell=_s(self.move_cell),
            measure=_s(self.measure),
        )


@dataclass(frozen=True)
class IonTrapParameters:
    """Complete parameter bundle for the communication models.

    Attributes
    ----------
    times:
        Operation latencies (Table 1).
    errors:
        Operation error probabilities (Table 2).
    zero_prep_fidelity:
        Fidelity of a freshly initialised qubit used for EPR generation
        (the ``F_zero`` of Eq. 4).
    cells_per_hop:
        Ballistic cells spanned by one teleportation hop (virtual-wire length),
        ~600 in the paper.
    router_overhead_cells:
        Cells of intra-router ballistic movement per hop (Figure 6 storage and
        turn moves).
    purify_move_cells:
        Cells of shuttling per purification round inside a purifier node.
    endpoint_local_cells:
        Cells between an endpoint T' node and the logical-qubit site it serves.
    threshold_error:
        Fault-tolerance threshold on (1 - fidelity) for data qubits and for any
        EPR pair that interacts with data.
    """

    times: OperationTimes = field(default_factory=OperationTimes)
    errors: ErrorRates = field(default_factory=ErrorRates)
    zero_prep_fidelity: float = C.DEFAULT_ZERO_PREP_FIDELITY
    cells_per_hop: int = 600
    router_overhead_cells: int = C.DEFAULT_ROUTER_OVERHEAD_CELLS
    purify_move_cells: int = C.DEFAULT_PURIFY_MOVE_CELLS
    endpoint_local_cells: int = C.DEFAULT_ENDPOINT_LOCAL_CELLS
    threshold_error: float = C.THRESHOLD_ERROR

    def __post_init__(self) -> None:
        if not (0.0 < self.zero_prep_fidelity <= 1.0):
            raise ConfigurationError(
                f"zero_prep_fidelity must be in (0, 1], got {self.zero_prep_fidelity}"
            )
        if self.cells_per_hop <= 0:
            raise ConfigurationError(f"cells_per_hop must be positive, got {self.cells_per_hop}")
        for name in ("router_overhead_cells", "purify_move_cells", "endpoint_local_cells"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be non-negative, got {getattr(self, name)}")
        if not (0.0 < self.threshold_error < 1.0):
            raise ConfigurationError(
                f"threshold_error must be in (0, 1), got {self.threshold_error}"
            )

    # -- constructors -------------------------------------------------------

    @classmethod
    def default(cls) -> "IonTrapParameters":
        """The paper's Table 1 / Table 2 parameter set."""
        return cls()

    @classmethod
    def uniform_error(
        cls,
        error: float,
        *,
        include_preparation: bool = True,
        **overrides: object,
    ) -> "IonTrapParameters":
        """All operation error probabilities set to ``error`` (Figure 12).

        When ``include_preparation`` is True (the default, matching the
        paper's "error rate of all operations" sweep) the zero-state
        preparation used for EPR generation is degraded by the same rate.
        """
        if include_preparation and "zero_prep_fidelity" not in overrides:
            overrides["zero_prep_fidelity"] = max(1.0 - error, 0.0)
        return cls(errors=ErrorRates.uniform(error), **overrides)  # type: ignore[arg-type]

    # -- convenience accessors ----------------------------------------------

    @property
    def threshold_fidelity(self) -> float:
        """Minimum acceptable fidelity for data-facing EPR pairs."""
        return 1.0 - self.threshold_error

    def with_errors(self, errors: ErrorRates) -> "IonTrapParameters":
        """Return a copy with a different error-rate bundle."""
        return replace(self, errors=errors)

    def with_hop_cells(self, cells_per_hop: int) -> "IonTrapParameters":
        """Return a copy with a different virtual-wire hop length."""
        return replace(self, cells_per_hop=cells_per_hop)

    def describe(self) -> str:
        """Human-readable multi-line description of the parameter set."""
        lines = [
            "IonTrapParameters",
            f"  one-qubit gate : {self.times.one_qubit_gate:g} us, p={self.errors.one_qubit_gate:g}",
            f"  two-qubit gate : {self.times.two_qubit_gate:g} us, p={self.errors.two_qubit_gate:g}",
            f"  move one cell  : {self.times.move_cell:g} us, p={self.errors.move_cell:g}",
            f"  measure        : {self.times.measure:g} us, p={self.errors.measure:g}",
            f"  generate       : {self.times.generate:g} us",
            f"  teleport       : {self.times.teleport():g} us (+classical)",
            f"  purify round   : {self.times.purify_round():g} us (+classical)",
            f"  cells per hop  : {self.cells_per_hop}",
            f"  threshold error: {self.threshold_error:g}",
        ]
        return "\n".join(lines)


DEFAULT_PARAMETERS = IonTrapParameters.default()
