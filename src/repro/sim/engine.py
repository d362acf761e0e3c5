"""Minimal discrete-event simulation kernel.

A deliberately small, dependency-free engine.  The heap holds five-slot
``(time, priority, sequence, callback, handle)`` entries: Python compares
tuples in C, and because every sequence number is unique no comparison ever
reaches the callback in the fourth slot.  Events therefore run in time
order, ties broken by lower priority first and then by insertion order,
which makes simulations fully deterministic.

Every call that puts an entry on the heap takes the next number from one
sequence counter, so interleaving them keeps call order:

* :meth:`SimulationEngine.post` pushes ``(time, 0, sequence, callback,
  None)``.  Nearly every event is posted (a
  :class:`~repro.sim.resources.ServiceCenter` job completion, a logical
  gate, a detailed channel's last latency), and nothing cancels them, so
  they carry no handle.  :meth:`~SimulationEngine.post_at` does the same at
  an absolute time and a given priority: the fluid transport posts its
  once-per-instant rate publish that way, and the service simulator its
  request arrivals.
* :meth:`SimulationEngine.schedule` and :meth:`~SimulationEngine.schedule_at`
  return an :class:`Event` handle, held in the fifth slot, that can cancel
  the entry.  The fluid transport's completion chain is the only caller in
  the package that takes one, whatever its allocator: it keeps one chained
  completion event and re-arms it when a publish moves the earliest
  finish.  A cancelled entry stays in the heap until it is popped or the
  heap is compacted; the handle reports it, which keeps the heap within
  about twice its live events.

A negative, infinite or NaN delay, or an absolute time before ``now`` or
not finite, raises :class:`~repro.errors.SimulationError`: no run computes
through NaN or inf.

Both the detailed per-pair simulator and the flow simulator drive their
state machines through this kernel, so simulated time handling, determinism
and stop conditions live in one place.
"""

from __future__ import annotations

import heapq
import math
from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

from ..errors import SimulationError
from ..trace.records import EventDispatched

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..trace import TraceBus

#: Compaction trigger: never compact heaps smaller than this (the rebuild
#: would cost more than the dead entries), and above it only when more than
#: half the heap is cancelled — which bounds the heap at ~2x the live events.
_COMPACT_MIN_HEAP = 64

_INF = math.inf

#: One heap entry: time, priority, sequence, callback and the handle or None.
HeapEntry = Tuple[float, int, int, Callable[[], None], Optional["Event"]]


class Event:
    """Cancellable handle on one scheduled callback.

    ``time`` and ``priority`` repeat the event's heap key.  ``owner`` is the
    engine whose heap holds the event.  It is cleared when the entry leaves
    the heap by firing or by :meth:`SimulationEngine.drain`, so a late
    :meth:`cancel` is not counted as a dead heap entry.
    """

    __slots__ = ("time", "priority", "cancelled", "owner")

    def __init__(
        self, time: float, priority: int, owner: Optional["SimulationEngine"] = None
    ) -> None:
        self.time = time
        self.priority = priority
        self.cancelled = False
        self.owner = owner

    def cancel(self) -> None:
        """Prevent the event from firing.

        The entry stays in its engine's heap (removing from the middle of a
        binary heap is O(n)) but the engine is told, so it can compact the
        heap once cancelled entries dominate — without that accounting a
        workload that reschedules aggressively (the flow transport may cancel
        and reissue its completion event at every publish) leaks heap
        entries linearly in event count.
        """
        if not self.cancelled:
            self.cancelled = True
            if self.owner is not None:
                self.owner._note_cancellation()


class SimulationEngine:
    """Heap-based discrete-event loop with deterministic ordering.

    ``now`` is the current simulated time in microseconds; only :meth:`run`
    advances it.  ``trace`` optionally attaches a :class:`~repro.trace.TraceBus`;
    components driving their state machines through the engine discover it
    there, so one constructor argument wires observability through a whole
    simulation.
    """

    def __init__(self, *, trace: Optional["TraceBus"] = None) -> None:
        self.now = 0.0
        self._heap: List[HeapEntry] = []
        self._sequence = 0
        self._processed = 0
        self._cancelled_pending = 0
        self.trace = trace

    @property
    def processed_events(self) -> int:
        """Number of events executed so far.

        :meth:`run` adds its events as it returns or raises, so a callback
        reading this sees only the events of earlier runs.
        """
        return self._processed

    @property
    def pending_events(self) -> int:
        """Number of events still scheduled (including cancelled ones)."""
        return len(self._heap)

    @property
    def cancelled_pending(self) -> int:
        """Cancelled events still occupying heap slots (compaction input)."""
        return self._cancelled_pending

    # -- scheduling ----------------------------------------------------------------

    def post(self, delay: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` ``delay`` microseconds from now, at priority 0.

        The entry carries no handle and cannot be cancelled.
        """
        if not 0.0 <= delay < _INF:
            raise SimulationError(f"delay must be finite and non-negative, got {delay}")
        sequence = self._sequence
        self._sequence = sequence + 1
        heapq.heappush(self._heap, (self.now + delay, 0, sequence, callback, None))

    def post_at(self, time: float, callback: Callable[[], None], *, priority: int = 0) -> None:
        """Run ``callback`` at absolute simulated time ``time``, without a handle."""
        if not self.now <= time < _INF:
            raise SimulationError(
                f"time must be finite and not before now={self.now}, got {time}"
            )
        sequence = self._sequence
        self._sequence = sequence + 1
        heapq.heappush(self._heap, (time, priority, sequence, callback, None))

    def schedule(
        self, delay: float, callback: Callable[[], None], *, priority: int = 0
    ) -> Event:
        """Schedule ``callback`` to run ``delay`` microseconds from now."""
        if not 0.0 <= delay < _INF:
            raise SimulationError(f"delay must be finite and non-negative, got {delay}")
        return self._push(self.now + delay, priority, callback)

    def schedule_at(
        self, time: float, callback: Callable[[], None], *, priority: int = 0
    ) -> Event:
        """Schedule ``callback`` at absolute simulated time ``time``."""
        if not self.now <= time < _INF:
            raise SimulationError(
                f"time must be finite and not before now={self.now}, got {time}"
            )
        return self._push(time, priority, callback)

    def _push(self, time: float, priority: int, callback: Callable[[], None]) -> Event:
        sequence = self._sequence
        self._sequence = sequence + 1
        event = Event(time, priority, self)
        heapq.heappush(self._heap, (time, priority, sequence, callback, event))
        return event

    # -- cancellation accounting ------------------------------------------------------

    def _note_cancellation(self) -> None:
        self._cancelled_pending += 1
        if (
            len(self._heap) >= _COMPACT_MIN_HEAP
            and self._cancelled_pending * 2 > len(self._heap)
        ):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without cancelled entries.

        Heap keys are unique, so ``heapify`` reproduces exactly the pop order
        the thinned heap would have had — compaction is invisible to the
        simulation.  The list is rebuilt in place: a callback inside
        :meth:`run` can trigger compaction while the loop holds the list.
        """
        self._heap[:] = [
            entry for entry in self._heap if entry[4] is None or not entry[4].cancelled
        ]
        heapq.heapify(self._heap)
        self._cancelled_pending = 0

    # -- execution --------------------------------------------------------------------

    def step(self) -> bool:
        """Execute the next pending event.  Returns False when none remain."""
        processed = self._processed
        self.run(max_events=1)
        return self._processed > processed

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run until the event heap drains, ``until`` is reached, or ``max_events``.

        Returns the simulated time at which the run stopped.
        """
        heap = self._heap
        pop = heapq.heappop
        trace = self.trace
        horizon = _INF if until is None else until
        budget = _INF if max_events is None else max_events
        executed = 0
        try:
            while heap and executed < budget:
                entry = pop(heap)
                time, priority, sequence, callback, event = entry
                if event is not None and event.cancelled:
                    self._cancelled_pending -= 1
                    continue
                if time > horizon:
                    # Back on the heap, for the next run to fire.
                    heapq.heappush(heap, entry)
                    self.now = horizon
                    break
                if event is not None:
                    event.owner = None
                self.now = time
                executed += 1
                if trace is not None and trace.wants(EventDispatched.kind):
                    trace.emit(EventDispatched(t_us=time, sequence=sequence, priority=priority))
                callback()
        finally:
            self._processed += executed
        return self.now

    def drain(self) -> None:
        """Discard all pending events (used when aborting a simulation)."""
        for entry in self._heap:
            if entry[4] is not None:
                entry[4].owner = None
        self._heap.clear()
        self._cancelled_pending = 0
