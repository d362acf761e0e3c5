"""Machine layouts: Home Base and Mobile Qubit (paper Section 5, Figure 15).

A layout maps logical qubits onto LQ sites of the mesh and translates each
two-logical-qubit operation into the channel-level communications it requires:

* **Home Base** — every logical qubit has a fixed home site able to error
  correct it, plus room for one visitor.  For an operation (i, j) the second
  operand teleports to the first operand's home and teleports back afterwards,
  so every operation costs two long-distance communications.
* **Mobile Qubit** — every LQ site can error correct two logical qubits, so
  qubits migrate.  In the QFT pattern a qubit walks along the line of its
  partners (nearest-neighbour hops) and only teleports a long distance when it
  returns to its starting location after its final interaction.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, List, Tuple, Type

from ..errors import ConfigurationError
from .geometry import Coordinate
from .topology import MeshTopology


@dataclass(frozen=True)
class CommRequest:
    """One long-distance communication: move ``qubit`` from ``source`` to ``dest``."""

    source: Coordinate
    dest: Coordinate
    qubit: int
    purpose: str = "operation"

    @property
    def is_local(self) -> bool:
        """True when source and destination coincide (no channel needed)."""
        return self.source == self.dest

    def hops(self) -> int:
        return self.source.manhattan(self.dest)


class MachineLayout(ABC):
    """Maps logical qubits to LQ sites and operations to communications."""

    name: str = "abstract"

    def __init__(self, topology: MeshTopology, num_qubits: int) -> None:
        if num_qubits < 1:
            raise ConfigurationError(f"num_qubits must be >= 1, got {num_qubits}")
        if num_qubits > topology.qubit_capacity:
            raise ConfigurationError(
                f"{num_qubits} logical qubits do not fit on a "
                f"{topology.width}x{topology.height} {topology.fabric} "
                f"({topology.qubit_capacity} LQ sites)"
            )
        self.topology = topology
        self.num_qubits = num_qubits
        self._positions: Dict[int, Coordinate] = {
            q: self.home_site(q) for q in range(1, num_qubits + 1)
        }

    # -- site mapping -------------------------------------------------------------

    def home_site(self, qubit: int) -> Coordinate:
        """The LQ site logical qubit ``qubit`` (1-based) starts at."""
        self._validate_qubit(qubit)
        index = qubit - 1
        return self._site_for_index(index)

    def _site_for_index(self, index: int) -> Coordinate:
        """Row-major placement by default; subclasses may override."""
        return Coordinate(index % self.topology.width, index // self.topology.width)

    def position_of(self, qubit: int) -> Coordinate:
        """Current LQ site of ``qubit``."""
        self._validate_qubit(qubit)
        return self._positions[qubit]

    def reset(self) -> None:
        """Return every logical qubit to its home site."""
        self._positions = {q: self.home_site(q) for q in range(1, self.num_qubits + 1)}

    def _validate_qubit(self, qubit: int) -> None:
        if not (1 <= qubit <= self.num_qubits):
            raise ConfigurationError(
                f"qubit index {qubit} out of range 1..{self.num_qubits}"
            )

    # -- operation translation -------------------------------------------------------

    @abstractmethod
    def communications_for(self, qubit_a: int, qubit_b: int) -> List[CommRequest]:
        """Long-distance communications needed to perform an operation on (a, b)."""

    def average_hops(self, operations: List[Tuple[int, int]]) -> float:
        """Average channel length over a list of operations (resets positions)."""
        self.reset()
        total = 0
        count = 0
        for a, b in operations:
            for request in self.communications_for(a, b):
                if not request.is_local:
                    total += request.hops()
                    count += 1
        self.reset()
        return total / count if count else 0.0


class HomeBaseLayout(MachineLayout):
    """Each logical qubit owns a home site; visitors teleport there and back."""

    name = "home_base"

    def communications_for(self, qubit_a: int, qubit_b: int) -> List[CommRequest]:
        self._validate_qubit(qubit_a)
        self._validate_qubit(qubit_b)
        if qubit_a == qubit_b:
            raise ConfigurationError("an operation needs two distinct logical qubits")
        host, visitor = qubit_a, qubit_b
        host_site = self.home_site(host)
        visitor_site = self.home_site(visitor)
        requests = [
            CommRequest(visitor_site, host_site, visitor, purpose="visit"),
            CommRequest(host_site, visitor_site, visitor, purpose="return_home"),
        ]
        # Positions are unchanged after the round trip.
        return [r for r in requests if not r.is_local]


class MobileQubitLayout(MachineLayout):
    """Qubits migrate between sites; sites hold two logical qubits each.

    Sites are numbered along a boustrophedon (snake) path so that
    consecutively numbered logical qubits are physically adjacent, which is
    what makes the QFT's walk pattern mostly nearest-neighbour.
    """

    name = "mobile_qubit"

    def _site_for_index(self, index: int) -> Coordinate:
        width = self.topology.width
        row = index // width
        col = index % width
        if row % 2 == 1:
            col = width - 1 - col
        return Coordinate(col, row)

    def communications_for(self, qubit_a: int, qubit_b: int) -> List[CommRequest]:
        self._validate_qubit(qubit_a)
        self._validate_qubit(qubit_b)
        if qubit_a == qubit_b:
            raise ConfigurationError("an operation needs two distinct logical qubits")
        mover, target = (qubit_a, qubit_b) if qubit_a < qubit_b else (qubit_b, qubit_a)
        mover_site = self._positions[mover]
        target_site = self._positions[target]
        requests: List[CommRequest] = []
        if mover_site != target_site:
            requests.append(CommRequest(mover_site, target_site, mover, purpose="walk"))
            self._positions[mover] = target_site
        if target == self.num_qubits:
            # Final interaction of the mover: teleport back to its home site.
            home = self.home_site(mover)
            if self._positions[mover] != home:
                requests.append(
                    CommRequest(self._positions[mover], home, mover, purpose="return_home")
                )
                self._positions[mover] = home
        return requests


#: The layouts, by every spelling ``runtime.layout`` accepts.
LAYOUTS: Dict[str, Type[MachineLayout]] = {
    "home_base": HomeBaseLayout,
    "homebase": HomeBaseLayout,
    "mobile_qubit": MobileQubitLayout,
    "mobile": MobileQubitLayout,
}


def build_layout(
    name: str, topology: MeshTopology, num_qubits: int
) -> MachineLayout:
    """Construct a layout by one of its :data:`LAYOUTS` spellings."""
    key = name.strip().lower()
    cls = LAYOUTS.get(key)
    if cls is None:
        raise ConfigurationError(
            f"unknown layout {name!r}; expected one of {sorted(LAYOUTS)}"
        )
    return cls(topology, num_qubits)
