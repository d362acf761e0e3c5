"""Parallel experiment execution with caching, journaling and fault isolation.

:class:`ExperimentRunner` drives the figure/table registry in
:mod:`repro.analysis.experiments` and arbitrary parameter sweeps across the
sharded work queue in :mod:`repro.runtime.queue`.  Every unit of work is
addressed by a parameter hash, so re-running a sweep only executes the
points that are not already stored — regenerating all figures a second time
is effectively free, and a killed sweep resumes where it stopped.

Sweeps have two storage modes:

* **Cache mode** (default): each point is pickled under its hash in the
  :class:`~repro.runtime.cache.ResultCache`, exactly as before.
* **Journal mode** (``journal=path``): every completed point — structured
  failures included — is appended to one JSONL journal for the whole sweep
  (see :mod:`repro.runtime.journal`).  Restarting the same sweep loads the
  journal and computes only the missing points; failed points are retried.

Either way, a worker exception no longer kills the batch: it becomes a
structured :attr:`SweepPoint.error`, with an optional per-point timeout and
bounded retry, and progress/ETA reporting streamed to stderr.

Work is shipped to workers as (module, qualname, params) triples rather than
pickled callables, which keeps lambdas and bound methods out of the pool and
the tasks byte-cheap.
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, TextIO, Tuple

from ..errors import ConfigurationError, SweepError
from .cache import ResultCache, parameter_hash, source_fingerprint
from .journal import JournalPoint, SweepJournal
from .queue import PointOutcome, ShardedWorkQueue


@dataclass(frozen=True)
class SweepPoint:
    """One executed sweep point: parameters, result (or error) and provenance.

    ``cached`` marks points served from the pickle cache, ``journaled``
    points loaded back from a sweep journal; ``error`` carries the
    structured failure record (type, message, traceback) when the point's
    final attempt failed, in which case ``result`` is ``None``.
    """

    params: Dict[str, Any]
    result: Any
    cache_key: str
    cached: bool
    journaled: bool = False
    error: Optional[Dict[str, Any]] = None
    attempts: int = 0

    @property
    def ok(self) -> bool:
        return self.error is None


def _resolve(module_name: str, qualname: str) -> Callable[..., Any]:
    target: Any = importlib.import_module(module_name)
    for part in qualname.split("."):
        target = getattr(target, part)
    return target


def _execute_call(task: Tuple[str, str, Dict[str, Any]]) -> Any:
    """Pool worker: import the callable and run it (module-level, picklable)."""
    module_name, qualname, params = task
    return _resolve(module_name, qualname)(**params)


def _execute_experiment(identifier: str) -> Any:
    """Pool worker: run one registry experiment by identifier."""
    from ..analysis.experiments import get_experiment

    return get_experiment(identifier).run()


def _callable_path(func: Callable[..., Any]) -> Tuple[str, str]:
    """(module, qualname) of a function, rejecting unimportable callables."""
    module_name = getattr(func, "__module__", None)
    qualname = getattr(func, "__qualname__", None)
    if not module_name or not qualname or "<" in qualname:
        raise ConfigurationError(
            f"sweep functions must be importable module-level callables, got {func!r}"
        )
    return module_name, qualname


class _Progress:
    """Throttled progress/ETA lines on stderr for long sweeps."""

    def __init__(
        self, total: int, preloaded: int, *, enabled: bool, stream: Optional[TextIO] = None
    ) -> None:
        self.total = total
        self.done = 0
        self.failed = 0
        self.enabled = enabled
        self.stream = stream or sys.stderr
        self.started = time.perf_counter()
        self._last_emit = 0.0
        if enabled and total:
            print(
                f"[sweep] {total} points to run ({preloaded} already stored)",
                file=self.stream,
            )

    def update(self, outcome: PointOutcome) -> None:
        self.done += 1
        if not outcome.ok:
            self.failed += 1
        if not self.enabled:
            return
        now = time.perf_counter()
        # Emit at most twice a second, plus always the final point.
        if self.done < self.total and now - self._last_emit < 0.5:
            return
        self._last_emit = now
        elapsed = now - self.started
        rate = self.done / elapsed if elapsed > 0 else 0.0
        eta = (self.total - self.done) / rate if rate > 0 else float("inf")
        eta_text = f"{eta:.0f}s" if eta != float("inf") else "?"
        failed = f", {self.failed} failed" if self.failed else ""
        print(
            f"[sweep] {self.done}/{self.total} done{failed}  "
            f"({rate:.1f} pts/s, eta {eta_text})",
            file=self.stream,
        )


@dataclass
class _Resolved:
    """Where one key's value came from, however it was obtained."""

    value: Any
    cached: bool = False
    journaled: bool = False
    error: Optional[Dict[str, Any]] = None
    attempts: int = 0


class ExperimentRunner:
    """Runs experiments and sweeps over restartable worker pools with caching.

    Parameters
    ----------
    workers:
        Pool size.  Defaults to ``min(len(tasks), cpu_count)``; with one
        worker (or one task) everything runs in-process, which keeps
        single-core machines and debuggers happy.
    cache_dir:
        Where results are stored.  ``None`` uses ``$REPRO_CACHE_DIR`` or
        ``./.repro-cache``.
    use_cache:
        Disable to always recompute and never write to disk.
    """

    def __init__(
        self,
        *,
        workers: Optional[int] = None,
        cache_dir: Optional[str] = None,
        use_cache: bool = True,
    ) -> None:
        if workers is not None and workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.cache: Optional[ResultCache] = ResultCache(cache_dir) if use_cache else None

    # -- generic machinery ----------------------------------------------------------

    def _run_keyed(
        self,
        worker: Callable[[Any], Any],
        keyed_tasks: List[Tuple[str, Any]],
        *,
        force: bool,
        journal: Optional[str] = None,
        journal_meta: Optional[Dict[str, Any]] = None,
        timeout_s: Optional[float] = None,
        retries: int = 0,
        progress: bool = False,
    ) -> Dict[str, _Resolved]:
        """Run (cache_key, task) pairs, satisfying what it can from storage.

        With ``journal`` set, the journal is the sweep's single store: points
        already recorded ``ok`` are loaded instead of recomputed (failures
        are retried) and every completion is appended as it lands — the
        pickle cache is bypassed entirely.  Without it, hits come from (and
        misses go to) the :class:`ResultCache`, where an existence probe is
        not enough: a corrupt entry reads as a miss and gets recomputed.
        """
        results: Dict[str, _Resolved] = {}
        unique_keys: List[str] = []
        seen = set()
        for key, _ in keyed_tasks:
            if key not in seen:
                seen.add(key)
                unique_keys.append(key)

        journal_handle: Optional[SweepJournal] = None
        if journal is not None:
            journal_handle = SweepJournal(journal)
            sweep_id = parameter_hash(
                {"journal": journal_meta or {}, "keys": sorted(unique_keys)}
            )
            state = journal_handle.open(
                sweep_id=sweep_id, total=len(unique_keys), meta=journal_meta
            )
            if not force:
                for key, point in state.ok_points.items():
                    if key in seen:
                        results[key] = _Resolved(
                            point.result, journaled=True, attempts=point.attempts
                        )

        misses: List[Tuple[str, Any]] = []
        missing_keys = set()
        sentinel = object()
        for key, task in keyed_tasks:
            if key in results or key in missing_keys:
                continue
            if journal_handle is None and self.cache is not None and not force:
                hit = self.cache.get(key, sentinel)
                if hit is not sentinel:
                    results[key] = _Resolved(hit, cached=True)
                    continue
            missing_keys.add(key)
            misses.append((key, task))

        try:
            if misses:
                reporter = _Progress(len(misses), len(results), enabled=progress)
                queue = ShardedWorkQueue(
                    worker,
                    workers=self.workers,
                    timeout_s=timeout_s,
                    retries=retries,
                )

                def _store(index: int, outcome: PointOutcome) -> None:
                    key = misses[index][0]
                    if journal_handle is not None:
                        journal_handle.append(
                            JournalPoint(
                                key=key,
                                index=index,
                                status=outcome.status,
                                result=outcome.value,
                                error=outcome.error,
                                attempts=outcome.attempts,
                                elapsed_s=outcome.elapsed_s,
                            )
                        )
                    elif self.cache is not None and outcome.ok:
                        # Failures are never cached: a transient fault must
                        # not poison the slot for the next run.
                        self.cache.put(key, outcome.value)
                    reporter.update(outcome)

                outcomes = queue.run([task for _, task in misses], on_result=_store)
                for (key, _), outcome in zip(misses, outcomes):
                    results[key] = _Resolved(
                        outcome.value,
                        error=outcome.error,
                        attempts=outcome.attempts,
                    )
        finally:
            if journal_handle is not None:
                journal_handle.close()
        return results

    @staticmethod
    def _raise_on_errors(results: Dict[str, _Resolved]) -> None:
        failures = {
            key: resolved.error
            for key, resolved in results.items()
            if resolved.error is not None
        }
        if not failures:
            return
        key, first = next(iter(failures.items()))
        first = first or {}
        detail = f"{first.get('type', 'Error')}: {first.get('message', '')}"
        tb = first.get("traceback")
        raise SweepError(
            f"{len(failures)} of {len(results)} experiments failed; "
            f"first failure ({key}): {detail}"
            + (f"\n{tb}" if tb else ""),
            errors=failures,
        )

    # -- registry experiments ---------------------------------------------------------

    def run(
        self,
        identifiers: Optional[Sequence[str]] = None,
        *,
        include_heavy: bool = False,
        force: bool = False,
    ) -> Dict[str, Any]:
        """Run registry experiments; returns ``{identifier: artifact}``.

        ``identifiers=None`` runs every registered experiment (heavy ones only
        when ``include_heavy``).  Cached artefacts are returned without
        recomputation unless ``force`` is set.
        """
        from ..analysis.experiments import get_experiment, list_experiments

        if identifiers is None:
            identifiers = list_experiments(include_heavy=include_heavy)
        identifiers = list(identifiers)
        for identifier in identifiers:
            get_experiment(identifier)  # validate before spawning workers
        # Keys include the source fingerprint: editing the package invalidates
        # previously cached artefacts instead of silently serving stale ones.
        source = source_fingerprint()
        keyed = [
            (parameter_hash({"experiment": identifier, "source": source}), identifier)
            for identifier in identifiers
        ]
        by_key = self._run_keyed(_execute_experiment, keyed, force=force)
        self._raise_on_errors(by_key)
        return {identifier: by_key[key].value for key, identifier in keyed}

    # -- parameter sweeps ---------------------------------------------------------------

    def sweep_records(
        self,
        func: Callable[..., Any],
        param_grid: Sequence[Dict[str, Any]],
        *,
        force: bool = False,
        journal: Optional[str] = None,
        timeout_s: Optional[float] = None,
        retries: int = 0,
        progress: bool = False,
    ) -> List[SweepPoint]:
        """Run ``func(**params)`` for every point of ``param_grid``, with provenance.

        ``func`` must be an importable module-level callable (workers re-import
        it by name).  Points come back in grid order.  A point is
        ``cached``/``journaled`` when its value was actually served from
        storage (a corrupt on-disk entry counts as a miss) — which is what
        lets the scenario CLI show which grid points were free.  A failed
        point comes back with ``result=None`` and a structured ``error``
        record instead of raising; with ``journal`` set the failure is
        durably recorded and retried on the next run.
        """
        module_name, qualname = _callable_path(func)
        source = source_fingerprint()
        keyed = []
        for params in param_grid:
            key = parameter_hash(
                {"func": f"{module_name}:{qualname}", "params": params, "source": source}
            )
            keyed.append((key, (module_name, qualname, dict(params))))
        by_key = self._run_keyed(
            _execute_call,
            keyed,
            force=force,
            journal=journal,
            journal_meta={"func": f"{module_name}:{qualname}", "source": source},
            timeout_s=timeout_s,
            retries=retries,
            progress=progress,
        )
        return [
            SweepPoint(
                params=dict(params),
                result=by_key[key].value,
                cache_key=key,
                cached=by_key[key].cached,
                journaled=by_key[key].journaled,
                error=by_key[key].error,
                attempts=by_key[key].attempts,
            )
            for (key, _), params in zip(keyed, param_grid)
        ]
