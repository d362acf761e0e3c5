"""G-node simulation process: continuous virtual-wire pair production.

A G node sits on every link between adjacent T' nodes and keeps both ends
supplied with halves of entangled pairs.  The process below produces pairs
with its ``g`` generator units into a bounded buffer (the T' node's incoming
storage); consumers take pairs from the buffer and block when it runs dry,
which is how generator bandwidth shows up as a bottleneck.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional

from ..errors import ConfigurationError
from ..physics.parameters import IonTrapParameters
from ..trace.records import EprPairGenerated
from .engine import SimulationEngine
from .resources import ServiceCenter


class LinkGenerator:
    """Continuously refills a bounded buffer of link EPR pairs."""

    def __init__(
        self,
        engine: SimulationEngine,
        *,
        generators: int = 1,
        buffer_capacity: int = 4,
        params: Optional[IonTrapParameters] = None,
        prefill: bool = True,
        name: str = "link",
        rate_scale: float = 1.0,
    ) -> None:
        if generators < 1:
            raise ConfigurationError(f"generators must be >= 1, got {generators}")
        if buffer_capacity < 1:
            raise ConfigurationError(f"buffer_capacity must be >= 1, got {buffer_capacity}")
        if rate_scale <= 0:
            raise ConfigurationError(f"rate_scale must be positive, got {rate_scale}")
        self.engine = engine
        self.params = params or IonTrapParameters.default()
        self.buffer_capacity = buffer_capacity
        self.name = name
        # The ancilla-factory bandwidth knob (``generator_bandwidth_scale`` on
        # the machine) models continuously faster or slower pair factories;
        # with an integer unit count, that is a scaled per-pair service time.
        self._generate_us = self.params.times.generate / rate_scale
        self._service = ServiceCenter(engine, generators, name=f"{name}.generators")
        self._available = buffer_capacity if prefill else 0
        self._in_production = 0
        self._waiters: Deque[Callable[[], None]] = deque()
        self._produced = 0
        self._consumed = 0
        self.top_up()

    # -- state --------------------------------------------------------------------

    @property
    def available_pairs(self) -> int:
        return self._available

    @property
    def pairs_produced(self) -> int:
        return self._produced

    @property
    def pairs_consumed(self) -> int:
        return self._consumed

    @property
    def service(self) -> ServiceCenter:
        return self._service

    # -- production -----------------------------------------------------------------

    def top_up(self) -> None:
        """Keep the generator units busy while the buffer (plus debt) has room."""
        demand = self.buffer_capacity + len(self._waiters)
        while self._available + self._in_production < demand:
            self._in_production += 1
            self._service.submit(self._generate_us, self._pair_ready)

    def _pair_ready(self) -> None:
        self._in_production -= 1
        self._produced += 1
        trace = self.engine.trace
        if trace is not None and trace.wants(EprPairGenerated.kind):
            trace.emit(
                EprPairGenerated(t_us=self.engine.now, link=self.name, produced=self._produced)
            )
        if self._waiters:
            consumer = self._waiters.popleft()
            self._consumed += 1
            consumer()
        else:
            self._available += 1
        self.top_up()

    # -- consumption ------------------------------------------------------------------

    def take_pair(self, callback: Callable[[], None]) -> None:
        """Consume one link pair; ``callback`` runs when a pair is available."""
        if self._available:
            self._available -= 1
            self._consumed += 1
            callback()
        else:
            self._waiters.append(callback)
        self.top_up()

    def take_buffered(self) -> bool:
        """Consume a buffered pair now, if there is one, without refilling.

        A caller that takes several pairs in one go calls :meth:`top_up` once
        after the last; :meth:`take_pair` refills after each.
        """
        if self._available == 0:
            return False
        self._available -= 1
        self._consumed += 1
        return True
