"""T'-node simulation process: the two time-multiplexed teleporter sets.

Each T' node's router (Figure 6) splits its ``t`` teleporters into an X set
and a Y set; qubits passing straight through use the set matching their travel
dimension, turning qubits are ballistically moved between sets.  Incoming
storage is ``t`` cells per link (4t per node), and the paper avoids deadlock
by never multiplexing that storage.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..errors import ConfigurationError
from ..network.geometry import Coordinate
from ..network.nodes import TeleporterSpec
from ..network.router import QuantumRouter
from ..physics.parameters import IonTrapParameters
from ..trace.records import TeleportPerformed
from .engine import SimulationEngine
from .resources import ServiceCenter


def swap_routing(
    previous: Coordinate, node: Coordinate, nxt: Coordinate
) -> "tuple[str, bool]":
    """Which teleporter set a transiting swap uses, and whether it turns.

    A pair extending from ``previous`` through ``node`` toward ``nxt`` is
    serviced by ``node``'s X set when it leaves horizontally and its Y set
    otherwise (the Figure 6 router split); it *turns* — paying the ballistic
    move between the sets — when the incoming and outgoing dimensions differ.
    """
    dimension = "x" if nxt.y == node.y else "y"
    turn = (previous.y == node.y) != (nxt.y == node.y)
    return dimension, turn


class TeleporterNodeSim:
    """Event-level model of one T' node's teleporter sets and storage."""

    def __init__(
        self,
        engine: SimulationEngine,
        position: Coordinate,
        *,
        spec: Optional[TeleporterSpec] = None,
        params: Optional[IonTrapParameters] = None,
        name: Optional[str] = None,
    ) -> None:
        self.engine = engine
        self.position = position
        self.spec = spec or TeleporterSpec()
        self.params = params or IonTrapParameters.default()
        self.router = QuantumRouter(position, self.spec)
        label = name or f"T'{position}"
        self._sets: Dict[str, ServiceCenter] = {
            "x": ServiceCenter(engine, self.router.x_teleporters, name=f"{label}.x"),
            "y": ServiceCenter(engine, self.router.y_teleporters, name=f"{label}.y"),
        }
        times = self.params.times
        self._swap_us = times.teleport(0.0)
        # A turning swap adds the intra-router ballistic move between the sets.
        self._turn_swap_us = self._swap_us + times.ballistic(self.router.turn_cells)
        self._turns = 0
        self._teleports = 0

    # -- state ----------------------------------------------------------------------

    @property
    def storage_cells(self) -> int:
        return self.router.storage_cells

    @property
    def teleports_performed(self) -> int:
        return self._teleports

    @property
    def turns_performed(self) -> int:
        return self._turns

    def service_for(self, dimension: str) -> ServiceCenter:
        try:
            return self._sets[dimension]
        except KeyError:
            raise ConfigurationError(
                f"dimension must be 'x' or 'y', got {dimension!r}"
            ) from None

    def utilisation(self, elapsed_us: float) -> float:
        """Combined utilisation of both teleporter sets."""
        x = self._sets["x"].stats.utilisation(elapsed_us)
        y = self._sets["y"].stats.utilisation(elapsed_us)
        return (x + y) / 2.0

    # -- operations ------------------------------------------------------------------------

    def teleport_through(
        self,
        dimension: str,
        done: Callable[[], None],
        *,
        turn: bool = False,
    ) -> None:
        """Perform one chained-teleportation swap through the given set.

        ``turn`` adds the intra-router ballistic move between the X and Y sets
        before the swap is serviced.
        """
        if turn:
            self._turns += 1
            duration = self._turn_swap_us
        else:
            duration = self._swap_us
        self._teleports += 1
        trace = self.engine.trace
        if trace is not None and trace.wants(TeleportPerformed.kind):
            trace.emit(
                TeleportPerformed(
                    t_us=self.engine.now,
                    node=self.position.as_tuple(),
                    dimension=dimension,
                    turn=turn,
                )
            )
        self.service_for(dimension).submit(duration, done)
