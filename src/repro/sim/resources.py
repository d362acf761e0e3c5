"""Simulation resources: counted pools and FIFO service centres.

The datapath units the paper allocates (teleporters per T' node, generators
per G node, queue purifiers per P node) are modelled as *service centres*:
``capacity`` identical servers with a FIFO queue.  Utilisation and queueing
statistics are tracked so simulation results can report where the bottleneck
was, which is the whole point of Figure 16.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Callable, Deque, Optional

from ..errors import SimulationError
from .engine import SimulationEngine

_INF = math.inf


@dataclass
class ResourceStats:
    """Aggregate statistics for one resource pool."""

    name: str
    capacity: int
    busy_time: float = 0.0
    jobs_served: int = 0
    total_wait: float = 0.0
    max_queue_length: int = 0

    def utilisation(self, elapsed: float) -> float:
        """Average fraction of servers busy over ``elapsed`` microseconds."""
        if elapsed <= 0 or self.capacity <= 0:
            return 0.0
        return min(self.busy_time / (elapsed * self.capacity), 1.0)

    def mean_wait(self) -> float:
        """Mean time jobs spent queueing before service."""
        if self.jobs_served == 0:
            return 0.0
        return self.total_wait / self.jobs_served


class ResourcePool:
    """A counted resource with explicit acquire/release semantics."""

    def __init__(self, engine: SimulationEngine, capacity: int, name: str = "pool") -> None:
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self._engine = engine
        self.capacity = capacity
        self.name = name
        self._available = capacity
        self._waiters: Deque[Callable[[], None]] = deque()
        self.stats = ResourceStats(name=name, capacity=capacity)

    @property
    def available(self) -> int:
        return self._available

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    def acquire(self, callback: Callable[[], None]) -> None:
        """Request one unit; ``callback`` runs (possibly immediately) when granted."""
        if self._available > 0:
            self._available -= 1
            callback()
        else:
            self._waiters.append(callback)
            self.stats.max_queue_length = max(self.stats.max_queue_length, len(self._waiters))

    def release(self) -> None:
        """Return one unit; the oldest waiter (if any) is granted it."""
        if self._waiters:
            callback = self._waiters.popleft()
            callback()
        else:
            if self._available >= self.capacity:
                raise SimulationError(f"{self.name}: release without matching acquire")
            self._available += 1


class ServiceCenter:
    """``capacity`` identical servers with a FIFO queue of fixed-duration jobs.

    :meth:`submit` is every job's entry: a job that finds a server free and no
    job waiting is posted to the engine at once as its completion event, any
    other joins the queue.  A completion frees its server, runs the job's
    ``done`` callback, then hands the server to the oldest waiting job.

    Inside that ``done`` callback the freed server is idle while older jobs
    wait; a job submitted there queues behind them and the oldest takes the
    server at once.  So at most one server is idle while jobs wait, and a
    completion dispatches at most one job.
    """

    def __init__(self, engine: SimulationEngine, capacity: int, name: str = "service") -> None:
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self._engine = engine
        self.capacity = capacity
        self.name = name
        self._busy = 0
        self._queue: Deque[tuple] = deque()
        self.stats = ResourceStats(name=name, capacity=capacity)

    @property
    def busy(self) -> int:
        return self._busy

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    def submit(self, duration: float, done: Optional[Callable[[], None]] = None) -> None:
        """Queue a job of ``duration`` microseconds; ``done`` fires at completion."""
        if not 0.0 <= duration < _INF:
            raise SimulationError(f"duration must be finite and non-negative, got {duration}")
        queue = self._queue
        stats = self.stats
        if self._busy < self.capacity:
            if queue:
                # Inside a completion's ``done``: the oldest waiting job takes
                # the freed server and this one queues behind the rest.
                now = self._engine.now
                queue.append((now, duration, done))
                arrival, duration, done = queue.popleft()
                stats.total_wait += now - arrival
            self._busy += 1
            stats.jobs_served += 1
            stats.busy_time += duration
            self._engine.post(duration, partial(self._finish, done))
            return
        queue.append((self._engine.now, duration, done))
        if len(queue) > stats.max_queue_length:
            stats.max_queue_length = len(queue)

    def _finish(self, done: Optional[Callable[[], None]]) -> None:
        self._busy -= 1
        if done is not None:
            done()
        queue = self._queue
        if queue and self._busy < self.capacity:
            arrival, duration, done = queue.popleft()
            engine = self._engine
            stats = self.stats
            stats.total_wait += engine.now - arrival
            self._busy += 1
            stats.jobs_served += 1
            stats.busy_time += duration
            engine.post(duration, partial(self._finish, done))

    def throughput_per_us(self, job_duration: float) -> float:
        """Steady-state job completion rate for jobs of ``job_duration``."""
        if job_duration <= 0:
            raise SimulationError("job_duration must be positive")
        return self.capacity / job_duration
