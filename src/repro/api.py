"""The stable public facade: the blessed entry points, one import away.

External code — notebooks, downstream experiments, sweep drivers — should
import from :mod:`repro.api` and nothing deeper.  The internals it fronts
(:mod:`repro.runtime.runner`, the simulator stacks, the trace plumbing) are
rearranged freely between releases; this module's four callables are the
compatibility surface:

* :func:`load_scenario` — resolve a catalog name or a JSON/YAML file into a
  validated :class:`~repro.scenarios.spec.ScenarioSpec`;
* :func:`run` — execute one scenario (batch or service, per its spec) and
  return a typed :class:`~repro.scenarios.run.RunResult`;
* :func:`serve` — execute an open-loop service scenario (a ``traffic``
  section is required) and return its :class:`RunResult`;
* :func:`sweep` — fan many scenarios across the cached process pool and
  return their flat result records.

>>> from repro import api
>>> result = api.run(api.load_scenario("smoke"))
>>> result.mode
'batch'
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

from .errors import ScenarioError
from .scenarios.run import RunResult
from .scenarios.spec import ScenarioSpec

__all__ = ["load_scenario", "run", "serve", "sweep"]


def _as_spec(spec: Union[ScenarioSpec, Mapping[str, Any]]) -> ScenarioSpec:
    if isinstance(spec, ScenarioSpec):
        return spec
    return ScenarioSpec.from_dict(spec)


def load_scenario(source: str, name: Optional[str] = None) -> ScenarioSpec:
    """Resolve ``source`` into one validated scenario.

    ``source`` is a built-in catalog name (``repro scenarios list``) or a
    path to a JSON/YAML scenario file.  A file that defines several
    scenarios needs ``name`` to pick one.
    """
    from .scenarios import list_scenarios, load_scenario_file
    from .scenarios.catalog import get_scenario

    if source in list_scenarios():
        spec = get_scenario(source)
        if name is not None and name != spec.name:
            raise ScenarioError(
                f"catalog scenario {source!r} does not contain {name!r}"
            )
        return spec
    if not os.path.exists(source):
        raise ScenarioError(
            f"{source!r} is neither a built-in scenario ({list_scenarios()}) "
            "nor a scenario file"
        )
    specs = load_scenario_file(source)
    if name is not None:
        for spec in specs:
            if spec.name == name:
                return spec
        raise ScenarioError(
            f"{source} defines no scenario named {name!r}; "
            f"available: {[spec.name for spec in specs]}"
        )
    if len(specs) != 1:
        raise ScenarioError(
            f"{source} defines {len(specs)} scenarios; pass name= to pick one "
            f"from {[spec.name for spec in specs]}"
        )
    return specs[0]


def run(
    spec: Union[ScenarioSpec, Mapping[str, Any]],
    *,
    backend: Optional[str] = None,
) -> RunResult:
    """Execute one scenario and return its typed result.

    A spec with a ``traffic`` section runs in open-loop service mode,
    anything else in batch mode; ``result.mode`` says which view
    (``result.batch`` / ``result.service``) is populated.  ``backend``
    overrides ``runtime.backend`` for this run.
    """
    from .scenarios.run import run as run_spec

    resolved = _as_spec(spec)
    if backend is not None:
        resolved = resolved.with_backend(backend)
    return run_spec(resolved)


def serve(
    spec: Union[ScenarioSpec, Mapping[str, Any]],
    *,
    backend: Optional[str] = None,
) -> RunResult:
    """Execute one open-loop service scenario and return its typed result.

    Exactly :func:`run`, except a missing ``traffic`` section is an error
    instead of a silent fall-back to batch mode.
    """
    resolved = _as_spec(spec)
    if resolved.traffic is None:
        raise ScenarioError(
            f"scenario {resolved.name!r} has no traffic section; "
            "add one (or use repro.api.run for batch scenarios)"
        )
    return run(resolved, backend=backend)


def sweep(
    specs: Sequence[Union[ScenarioSpec, Mapping[str, Any]]],
    *,
    backend: Optional[str] = None,
    workers: Optional[int] = None,
    cache_dir: Optional[str] = None,
    use_cache: bool = True,
    force: bool = False,
    journal: Optional[str] = None,
    point_timeout_s: Optional[float] = None,
    retries: int = 0,
    progress: bool = False,
) -> List[Dict[str, Any]]:
    """Fan scenarios across the cached process pool; flat records back.

    Each record is the scenario's :meth:`RunResult.flat_record` plus
    ``cached``/``journaled`` provenance flags.
    Pool payloads are canonical (name/description stripped) so equivalent
    specs share a cache slot; records are re-labelled with caller-side
    identity.

    ``journal`` makes the sweep crash-resumable: every completed point is
    appended to one JSONL store, and re-running the same sweep loads it and
    executes only the missing points.  A point whose worker raises (or
    exceeds ``point_timeout_s``, after ``retries`` extra attempts) yields a
    record carrying an ``error`` field instead of result columns — its
    siblings always complete.
    """
    from .runtime.runner import ExperimentRunner
    from .scenarios.run import run_record

    resolved = [_as_spec(spec) for spec in specs]
    if not resolved:
        raise ScenarioError("sweep needs at least one scenario")
    if backend is not None:
        resolved = [spec.with_backend(backend) for spec in resolved]
    runner = ExperimentRunner(workers=workers, cache_dir=cache_dir, use_cache=use_cache)
    canonicals = [spec.canonical_dict() for spec in resolved]
    points = runner.sweep_records(
        run_record,
        [{"spec": canonical} for canonical in canonicals],
        force=force,
        journal=journal,
        timeout_s=point_timeout_s,
        retries=retries,
        progress=progress,
    )
    records: List[Dict[str, Any]] = []
    for spec, canonical, point in zip(resolved, canonicals, points):
        identity = {
            "name": spec.name,
            "label": spec.label,
            # ``to_dict()``, rebuilt from the canonical dict in field order.
            "spec": {"name": spec.name, **canonical, "description": spec.description},
            "cached": point.cached,
            "journaled": point.journaled,
        }
        if point.error is not None:
            records.append({**identity, "error": point.error, "attempts": point.attempts})
        else:
            records.append({**point.result, **identity})
    return records
