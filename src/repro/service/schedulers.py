"""Pluggable request schedulers ordering admitted work onto the transport.

The scheduler owns the admitted-but-not-yet-dispatched queue: the service
engine pushes every admitted request and pops the next one whenever an
in-flight slot frees up.  Three disciplines ship with the repository:

* ``fifo`` — arrival order (the baseline; per-tenant fairness is whatever
  the arrival mix happens to be);
* ``priority`` — strict priority by the tenant's ``priority`` rank (lower
  first), FIFO within a rank;
* ``fidelity`` — fidelity-class-aware: requests carrying a tighter
  ``target_fidelity`` dispatch first (their channels spend longest in
  purification, so letting them queue compounds their latency), classless
  requests last, FIFO within a class.

All disciplines break ties on a monotone push sequence, never on hash order,
so dispatch order is deterministic.  :data:`SCHEDULERS` names them:
``traffic.scheduler`` validates against it and :func:`create_scheduler`
builds from it.
"""

from __future__ import annotations

import heapq
from abc import ABC, abstractmethod
from collections import deque
from typing import Deque, Dict, List, Tuple, Type

from ..errors import ConfigurationError, SimulationError
from .arrivals import ServiceRequest


class RequestScheduler(ABC):
    """An ordered queue of admitted requests awaiting dispatch."""

    @abstractmethod
    def push(self, request: ServiceRequest) -> None:
        """Enqueue an admitted request."""

    @abstractmethod
    def pop(self) -> ServiceRequest:
        """Dequeue the next request to dispatch (raises when empty)."""

    @abstractmethod
    def __len__(self) -> int:
        """Requests currently queued."""


class FifoScheduler(RequestScheduler):
    """Dispatch in admission order."""

    def __init__(self) -> None:
        self._queue: Deque[ServiceRequest] = deque()

    def push(self, request: ServiceRequest) -> None:
        self._queue.append(request)

    def pop(self) -> ServiceRequest:
        if not self._queue:
            raise SimulationError("cannot pop from an empty request queue")
        return self._queue.popleft()

    def __len__(self) -> int:
        return len(self._queue)


class _HeapScheduler(RequestScheduler):
    """Shared heap machinery: subclasses define the priority key."""

    def __init__(self) -> None:
        self._heap: List[Tuple[Tuple[float, ...], int, ServiceRequest]] = []
        self._sequence = 0

    def _key(self, request: ServiceRequest) -> Tuple[float, ...]:
        raise NotImplementedError

    def push(self, request: ServiceRequest) -> None:
        heapq.heappush(self._heap, (self._key(request), self._sequence, request))
        self._sequence += 1

    def pop(self) -> ServiceRequest:
        if not self._heap:
            raise SimulationError("cannot pop from an empty request queue")
        return heapq.heappop(self._heap)[2]

    def __len__(self) -> int:
        return len(self._heap)


class PriorityScheduler(_HeapScheduler):
    """Strict priority by tenant rank (lower first), FIFO within a rank."""

    def _key(self, request: ServiceRequest) -> Tuple[float, ...]:
        return (float(request.priority),)


class FidelityScheduler(_HeapScheduler):
    """Tightest fidelity class first; classless requests last."""

    def _key(self, request: ServiceRequest) -> Tuple[float, ...]:
        if request.target_fidelity is None:
            return (1.0, 0.0)
        # Higher target == tighter class == earlier dispatch.
        return (0.0, -request.target_fidelity)


#: The request schedulers, by the name ``traffic.scheduler`` selects.
SCHEDULERS: Dict[str, Type[RequestScheduler]] = {
    "fifo": FifoScheduler,
    "priority": PriorityScheduler,
    "fidelity": FidelityScheduler,
}


def create_scheduler(name: str) -> RequestScheduler:
    """Instantiate the scheduler named ``name``."""
    key = (name or "").strip()
    cls = SCHEDULERS.get(key)
    if cls is None:
        raise ConfigurationError(
            f"unknown request scheduler {name!r}; registered: {sorted(SCHEDULERS)}"
        )
    return cls()
