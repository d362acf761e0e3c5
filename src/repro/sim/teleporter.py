"""The T' node's router (Figure 6): its X/Y teleporter sets, in one place.

Each T' node's router splits its ``t`` teleporters into an X set and a Y set.
:func:`teleporter_set` states which set serves a neighbour and
:func:`swap_routing` when a transiting pair turns between the sets; both
transport backends charge their teleports through these two functions.  Each
set holds :meth:`~repro.sim.machine.QuantumMachine.teleporter_bandwidth_per_direction`
teleporters, which may be fractional; :class:`TeleporterNodeSim` realises that
share at per-pair granularity.  The node's incoming storage is
:attr:`~repro.network.nodes.ResourceAllocation.storage_cells`.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Optional

from ..errors import ConfigurationError
from ..network.geometry import Coordinate
from ..physics.parameters import IonTrapParameters
from ..trace.records import TeleportPerformed
from .engine import SimulationEngine
from .resources import ServiceCenter

#: Cells a turning qubit is ballistically moved between a router's X and Y sets.
TURN_CELLS = 20


def teleporter_set(node: Coordinate, neighbour: Coordinate) -> str:
    """Which of ``node``'s teleporter sets serves traffic to or from ``neighbour``.

    The X set for a neighbour in the same row, the Y set otherwise.
    """
    return "x" if neighbour.y == node.y else "y"


def swap_routing(
    previous: Coordinate, node: Coordinate, nxt: Coordinate
) -> "tuple[str, bool]":
    """Which teleporter set a transiting swap uses, and whether it turns.

    A pair extending from ``previous`` through ``node`` toward ``nxt`` is
    serviced by the set facing ``nxt``; it *turns* — paying the ballistic
    move between the sets — when the set facing ``previous`` differs.
    """
    dimension = teleporter_set(node, nxt)
    return dimension, teleporter_set(node, previous) != dimension


class TeleporterNodeSim:
    """Event-level model of one T' node's two teleporter sets.

    ``bandwidth`` is the number of teleporters in each set.  A fractional
    share becomes ``ceil(bandwidth)`` servers whose service time is
    stretched by ``servers / bandwidth``, so each set completes exactly
    ``bandwidth`` teleports per swap time; a whole bandwidth is unstretched.
    """

    def __init__(
        self,
        engine: SimulationEngine,
        position: Coordinate,
        *,
        bandwidth: float = 1.0,
        params: Optional[IonTrapParameters] = None,
        name: Optional[str] = None,
    ) -> None:
        self.engine = engine
        self.position = position
        self.params = params or IonTrapParameters.default()
        label = name or f"T'{position}"
        servers = math.ceil(bandwidth)
        self._sets: Dict[str, ServiceCenter] = {
            "x": ServiceCenter(engine, servers, name=f"{label}.x"),
            "y": ServiceCenter(engine, servers, name=f"{label}.y"),
        }
        times = self.params.times
        stretch = servers / bandwidth
        self._swap_us = times.teleport(0.0) * stretch
        # A turning swap adds the intra-router ballistic move between the sets.
        self._turn_swap_us = (times.teleport(0.0) + times.ballistic(TURN_CELLS)) * stretch
        self._turns = 0
        self._teleports = 0

    # -- state ----------------------------------------------------------------------

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
        self._sets[dimension].submit(duration, done)
