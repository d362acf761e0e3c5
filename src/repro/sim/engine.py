"""Minimal discrete-event simulation kernel.

A deliberately small, dependency-free engine.  The heap holds
``(time, priority, sequence, event)`` tuples: Python compares tuples in C,
and because every sequence number is unique no comparison ever reaches the
:class:`Event` handle in the fourth slot.  Events therefore run in time
order, ties broken by lower priority first and then by insertion order,
which makes simulations fully deterministic.  The handle carries the
callback and the cancellation flag.

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


class Event:
    """Handle on one scheduled callback.

    ``time``, ``priority`` and ``sequence`` repeat the event's heap key.
    ``owner`` is the engine whose heap holds the event.  It is cleared when
    the entry leaves the heap by firing or by :meth:`SimulationEngine.drain`,
    so a late :meth:`cancel` is not counted as a dead heap entry.
    """

    __slots__ = ("time", "priority", "sequence", "callback", "cancelled", "owner")

    def __init__(
        self,
        time: float,
        priority: int,
        sequence: int,
        callback: Callable[[], None],
        owner: Optional["SimulationEngine"] = None,
    ) -> None:
        self.time = time
        self.priority = priority
        self.sequence = sequence
        self.callback = callback
        self.cancelled = False
        self.owner = owner

    def cancel(self) -> None:
        """Prevent the event from firing.

        The entry stays in its engine's heap (removing from the middle of a
        binary heap is O(n)) but the engine is told, so it can compact the
        heap once cancelled entries dominate — without that accounting a
        workload that reschedules aggressively (the flow transport cancels
        and reissues a completion event per reallocation) leaks heap entries
        linearly in event count.
        """
        if not self.cancelled:
            self.cancelled = True
            if self.owner is not None:
                self.owner._note_cancellation()


class SimulationEngine:
    """Heap-based discrete-event loop with deterministic ordering.

    ``trace`` optionally attaches a :class:`~repro.trace.TraceBus`; components
    driving their state machines through the engine discover it there, so one
    constructor argument wires observability through a whole simulation.
    """

    def __init__(self, *, trace: Optional["TraceBus"] = None) -> None:
        self._now = 0.0
        self._heap: List[Tuple[float, int, int, Event]] = []
        self._sequence = 0
        self._processed = 0
        self._cancelled_pending = 0
        self.trace = trace

    # -- clock -----------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in microseconds."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Number of events executed so far."""
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

    def schedule(
        self, delay: float, callback: Callable[[], None], *, priority: int = 0
    ) -> Event:
        """Schedule ``callback`` to run ``delay`` microseconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        time = self._now + delay
        sequence = self._sequence
        self._sequence = sequence + 1
        event = Event(time, priority, sequence, callback, self)
        heapq.heappush(self._heap, (time, priority, sequence, event))
        return event

    def schedule_at(
        self, time: float, callback: Callable[[], None], *, priority: int = 0
    ) -> Event:
        """Schedule ``callback`` at absolute simulated time ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule into the past (time={time}, now={self._now})"
            )
        sequence = self._sequence
        self._sequence = sequence + 1
        event = Event(time, priority, sequence, callback, self)
        heapq.heappush(self._heap, (time, priority, sequence, event))
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
        self._heap[:] = [entry for entry in self._heap if not entry[3].cancelled]
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
        horizon = math.inf if until is None else until
        budget = math.inf if max_events is None else max_events
        executed = 0
        while heap and executed < budget:
            time, _, _, event = heap[0]
            if event.cancelled:
                pop(heap)
                self._cancelled_pending -= 1
                continue
            if time > horizon:
                self._now = horizon
                break
            pop(heap)
            self._now = time
            self._processed += 1
            executed += 1
            event.owner = None
            if trace is not None and trace.wants(EventDispatched.kind):
                trace.emit(
                    EventDispatched(t_us=time, sequence=event.sequence, priority=event.priority)
                )
            event.callback()
        return self._now

    def drain(self) -> None:
        """Discard all pending events (used when aborting a simulation)."""
        for entry in self._heap:
            entry[3].owner = None
        self._heap.clear()
        self._cancelled_pending = 0


class Timer:
    """Convenience wrapper: a cancellable one-shot timer on an engine."""

    def __init__(self, engine: SimulationEngine) -> None:
        self._engine = engine
        self._event: Optional[Event] = None

    def start(self, delay: float, callback: Callable[[], None]) -> None:
        """(Re)arm the timer; any previously armed timer is cancelled."""
        self.cancel()

        def _fire() -> None:
            # Disarm before invoking so ``armed`` is accurate inside the
            # callback and a callback may re-arm the timer.
            self._event = None
            callback()

        self._event = self._engine.schedule(delay, _fire)

    def cancel(self) -> None:
        if self._event is not None:
            self._event.cancel()
            self._event = None

    @property
    def armed(self) -> bool:
        return self._event is not None and not self._event.cancelled
