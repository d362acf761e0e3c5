"""Declarative scenario engine: specs, loading, catalog and execution.

Scenarios turn experiments into data.  A :class:`ScenarioSpec` composes a
topology (any fabric), a workload (any instruction stream), physics
parameters and runtime options; the loader reads single scenarios, bundles
and sweep grids from JSON/YAML with inheritance (``extends``); and
:func:`run` executes a spec — batch mode through the
communication simulator, service mode (a ``traffic`` section) through the
open-loop service simulator — returning a typed :class:`RunResult`.
:func:`run_record` is the flat-record form the sweep cache and CLI consume.
``python -m repro scenarios`` is the front end.
"""

from .spec import (
    NetworkSpec,
    NoiseSpec,
    PhysicsSpec,
    RoutingSpec,
    RuntimeSpec,
    ScenarioSpec,
    TenantSpec,
    TopologySpec,
    TrafficSpec,
    WorkloadSpec,
    apply_overrides,
    deep_merge,
)
from .loader import (
    expand_grid,
    load_scenario_file,
    load_scenarios,
    parse_text,
    resolve_scenario,
    select_scenarios,
)
from .catalog import default_grid, get_scenario, list_scenarios
from .run import (
    BatchView,
    RunResult,
    ServiceView,
    build_machine,
    build_stream,
    run,
    run_record,
)

__all__ = [
    "BatchView",
    "NetworkSpec",
    "NoiseSpec",
    "PhysicsSpec",
    "RoutingSpec",
    "RunResult",
    "RuntimeSpec",
    "ScenarioSpec",
    "ServiceView",
    "TenantSpec",
    "TopologySpec",
    "TrafficSpec",
    "WorkloadSpec",
    "apply_overrides",
    "build_machine",
    "build_stream",
    "deep_merge",
    "default_grid",
    "expand_grid",
    "get_scenario",
    "list_scenarios",
    "load_scenario_file",
    "load_scenarios",
    "parse_text",
    "resolve_scenario",
    "run",
    "run_record",
    "select_scenarios",
]
