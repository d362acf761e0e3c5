"""Sharded, restartable work queue with per-point fault isolation.

The execution core under :class:`~repro.runtime.runner.ExperimentRunner`:
tasks are split into shards, each shard runs on a fresh worker pool, and
every point's outcome — success, exception or timeout — comes back as a
structured :class:`PointOutcome` instead of an exception that would abort
the batch.  One poisoned grid point can no longer throw away its siblings'
results.

Semantics:

* **Fault isolation** — a worker exception is caught inside the worker and
  shipped back as an ``error`` outcome carrying the exception type, message
  and formatted traceback.
* **Timeout** — ``timeout_s`` bounds how long the queue waits for each
  point's result.  A point that exceeds it has its pool terminated (hung
  workers die with it), is recorded as a ``TimeoutError`` outcome, and the
  rest of the shard restarts on a fresh pool.
* **Bounded retry** — ``retries`` re-queues failed points (exceptions and
  timeouts alike) up to N extra attempts, at the back of the queue so a
  persistently failing point never starves healthy ones.
* **Sharding** — pools are created per shard of ``DEFAULT_SHARD_SIZE``
  tasks, so long sweeps run on periodically restarted workers.  The streamed
  ``on_result`` callback (which the runner uses to journal completions)
  gets each outcome as soon as it and the points before it in its shard
  have finished, so a killed sweep keeps them.

Execution is in-process when a single worker suffices and no timeout is
requested (keeping debuggers and single-core machines happy); a timeout
always forces a pool, because preempting an in-process call is not possible.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import time
import traceback
from collections import deque
from dataclasses import dataclass, replace
from typing import Any, Callable, Deque, Iterator, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError

#: Tasks per pool lifetime: each shard gets a fresh pool of workers.
DEFAULT_SHARD_SIZE = 64


@dataclass(frozen=True)
class PointOutcome:
    """The structured result of executing one task (picklable)."""

    status: str  # "ok" | "error"
    value: Any = None
    error: Optional[dict] = None
    attempts: int = 1
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def _error_record(exc: BaseException, *, tb: Optional[str]) -> dict:
    return {
        "type": type(exc).__qualname__,
        "message": str(exc),
        "traceback": tb,
    }


def _call_guarded(worker: Callable[[Any], Any], task: Any) -> PointOutcome:
    """Run one task, converting any exception into an error outcome.

    Module-level (and partial-applied over a module-level worker) so the
    multiprocessing pool can pickle it.  ``KeyboardInterrupt``/``SystemExit``
    are deliberately not caught: a user interrupt should stop the sweep.
    """
    started = time.perf_counter()
    try:
        value = worker(task)
    except Exception as exc:
        return PointOutcome(
            status="error",
            error=_error_record(exc, tb=traceback.format_exc()),
            elapsed_s=time.perf_counter() - started,
        )
    return PointOutcome(status="ok", value=value, elapsed_s=time.perf_counter() - started)


def _timeout_outcome(timeout_s: float) -> PointOutcome:
    return PointOutcome(
        status="error",
        error={
            "type": "TimeoutError",
            "message": f"point exceeded the {timeout_s:g}s per-point timeout",
            "traceback": None,
        },
        elapsed_s=timeout_s,
    )


#: (task index, task payload, attempt number starting at 1).
_QueueItem = Tuple[int, Any, int]


class ShardedWorkQueue:
    """Executes tasks through restartable worker pools, never raising per point."""

    def __init__(
        self,
        worker: Callable[[Any], Any],
        *,
        workers: Optional[int] = None,
        timeout_s: Optional[float] = None,
        retries: int = 0,
    ) -> None:
        if workers is not None and workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        if timeout_s is not None and timeout_s <= 0:
            raise ConfigurationError(f"timeout_s must be positive, got {timeout_s}")
        if retries < 0:
            raise ConfigurationError(f"retries must be >= 0, got {retries}")
        self.worker = worker
        self.workers = workers
        self.timeout_s = timeout_s
        self.retries = retries

    # -- sizing -------------------------------------------------------------------

    def _pool_size(self, task_count: int) -> int:
        if task_count < 1:
            return 1
        workers = self.workers or os.cpu_count() or 1
        return max(1, min(workers, task_count))

    # -- execution ----------------------------------------------------------------

    def run(
        self,
        tasks: Sequence[Any],
        *,
        on_result: Optional[Callable[[int, PointOutcome], None]] = None,
    ) -> List[PointOutcome]:
        """Execute every task; outcomes come back in task order.

        ``on_result`` streams final outcomes (after retries are exhausted) as
        they land, in task order within a shard — the runner journals from it.
        """
        outcomes: List[Optional[PointOutcome]] = [None] * len(tasks)
        pending: Deque[_QueueItem] = deque(
            (index, task, 1) for index, task in enumerate(tasks)
        )
        while pending:
            shard = [pending.popleft() for _ in range(min(DEFAULT_SHARD_SIZE, len(pending)))]
            for index, task, attempt, outcome in self._run_shard(shard):
                outcome = replace(outcome, attempts=attempt)
                if not outcome.ok and attempt <= self.retries:
                    # Back of the queue: healthy points drain first.
                    pending.append((index, task, attempt + 1))
                    continue
                outcomes[index] = outcome
                if on_result is not None:
                    on_result(index, outcome)
        return [outcome for outcome in outcomes if outcome is not None]

    def _run_shard(
        self, shard: List[_QueueItem]
    ) -> Iterator[Tuple[int, Any, int, PointOutcome]]:
        """Run one shard, yielding outcomes in task order as they land.

        The pool restarts after any per-point timeout.
        """
        pool_size = self._pool_size(len(shard))
        if pool_size == 1 and self.timeout_s is None:
            # In-process: no pickling round-trip, debugger-friendly.  A
            # timeout always forces a pool because an in-process call cannot
            # be preempted.
            for index, task, attempt in shard:
                yield index, task, attempt, _call_guarded(self.worker, task)
            return
        remaining = list(shard)
        call = functools.partial(_call_guarded, self.worker)
        while remaining:
            pool_size = self._pool_size(len(remaining))
            timed_out_at: Optional[int] = None
            with multiprocessing.Pool(processes=pool_size) as pool:
                results = pool.imap(call, [task for _, task, _ in remaining])
                for position, (index, task, attempt) in enumerate(remaining):
                    try:
                        if self.timeout_s is not None:
                            outcome = results.next(self.timeout_s)
                        else:
                            outcome = next(results)
                    except multiprocessing.TimeoutError:
                        # Kill the hung worker with its pool; in-flight
                        # siblings restart on a fresh pool below (their
                        # attempt counts are untouched — they did not fail).
                        pool.terminate()
                        yield index, task, attempt, _timeout_outcome(self.timeout_s or 0.0)
                        timed_out_at = position
                        break
                    yield index, task, attempt, outcome
            if timed_out_at is None:
                break
            remaining = remaining[timed_out_at + 1 :]
