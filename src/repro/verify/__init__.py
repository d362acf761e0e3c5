"""Differential verification harness over the simulation trace bus.

Two allocators and two transport backends implement the same physics; this
package is how the repository proves they keep agreeing while the fast paths
are rewritten.  :mod:`~repro.verify.harness` replays scenarios and diffs
their dynamics; :mod:`~repro.verify.golden` pins canonical traces as JSONL
fixtures; ``python -m repro verify run|record|diff`` is the front end.

Exports resolve lazily (PEP 562): importing :mod:`repro.verify` — which the
CLI does just to build its argument parser — must not drag in the whole
simulation stack behind the harness.
"""

from typing import Any

#: Export name -> defining submodule.
_EXPORTS = {
    "DEFAULT_GOLDEN_DIR": "golden",
    "GoldenDiff": "golden",
    "canonical_trace_lines": "golden",
    "diff_golden": "golden",
    "golden_path": "golden",
    "record_golden": "golden",
    "BACKEND_MAKESPAN_RATIO": "harness",
    "BACKEND_ORDER_TOLERANCE": "harness",
    "DIFFERENTIAL_KINDS": "harness",
    "Divergence": "harness",
    "FIDELITY_ABS_TOL": "harness",
    "PARITY_NOISE": "harness",
    "ROUTING_MAKESPAN_TOL": "harness",
    "ScenarioVerdict": "harness",
    "TracedRun": "harness",
    "compare_backend_runs": "harness",
    "compare_fidelity_runs": "harness",
    "compare_runs": "harness",
    "compare_traffic_runs": "harness",
    "traced_run": "harness",
    "verify_backends": "harness",
    "verify_fidelity": "harness",
    "verify_routing": "harness",
    "verify_scenario": "harness",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> Any:
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(_EXPORTS))
