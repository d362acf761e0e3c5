"""``python -m repro`` — reproduce the paper's figures, tables and services.

The command surface is noun-verb:

``experiments list|run|report``
    The paper-artefact registry: list every registered experiment, regenerate
    specific artefacts, or print the full reproduction report.
``scenarios list|run|sweep``
    The declarative scenario engine: list the catalog, run named or
    file-defined scenarios, or fan a topology x workload grid across the
    pool.  ``--backend NAME`` re-runs the selection on another transport
    granularity.  Scenarios with a ``traffic`` section run in open-loop
    service mode and report steady-state metrics in place of batch
    counters.  ``--journal FILE`` makes the run
    crash-resumable (completed points stream into one JSONL store and are
    never recomputed on restart); ``--point-timeout``/``--retries`` bound a
    poisoned point's damage to its own structured error record; and
    ``--progress`` streams progress/ETA lines to stderr.
``sweep status``
    Inspect a sweep journal: how many points are recorded, failed or still
    missing, retry counts, and whether a crashed writer's truncated tail was
    found.
``serve``
    Run one open-loop service scenario (``--scenario`` catalog name or
    ``--spec`` file; a ``traffic`` section is required) and report offered
    vs. delivered load, completion-time p50/p99, per-tenant queue depths and
    drop rates.
``verify run|record|diff|fidelity|traffic``
    The differential-verification harness (see :mod:`repro.verify.cli`):
    replay scenarios under both allocators and diff their dynamics,
    record/diff canonical golden traces under ``tests/golden/``, or hold the
    fluid and detailed backends to the documented fidelity and traffic
    parity tolerances.
``lint``
    The determinism/contract static analysis pass.
``backends``
    List the transport backends.

Commands that print data accept one shared ``--format text|json`` option;
``json`` emits the machine-readable form of exactly what ``text`` shows.

``experiments`` and the scenario commands execute through
:class:`repro.runtime.ExperimentRunner`, so independent experiments run
across a process pool and results are cached on disk — a second invocation
prints instantly.  ``--no-cache`` recomputes without touching the cache,
``--force`` recomputes and refreshes it.

External code should not import this module (or :mod:`repro.runtime.runner`)
directly — :mod:`repro.api` is the stable programmatic surface.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional

from ..errors import ReproError
from .runner import ExperimentRunner


def _add_runner_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="process-pool size (default: one per CPU, capped by task count)",
    )
    sub.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="result cache directory (default: $REPRO_CACHE_DIR or ./.repro-cache)",
    )
    sub.add_argument(
        "--no-cache",
        action="store_true",
        help="recompute everything; do not read or write the cache",
    )
    sub.add_argument(
        "--force",
        action="store_true",
        help="recompute everything but refresh the cache with the results",
    )


def _add_format_option(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )


def _emit_json(payload: Any) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _add_sweep_execution_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--journal",
        default=None,
        metavar="FILE",
        help="append completed points to this JSONL journal and resume from "
        "it on restart (one compact store per sweep; failed points retry)",
    )
    sub.add_argument(
        "--point-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-point timeout; a point that exceeds it becomes a "
        "structured error record instead of hanging the sweep",
    )
    sub.add_argument(
        "--retries",
        type=int,
        default=0,
        metavar="N",
        help="extra attempts for failed points before recording the error "
        "(default: 0)",
    )
    sub.add_argument(
        "--progress",
        action="store_true",
        help="stream progress/ETA lines to stderr while the sweep runs",
    )


def _add_scenario_io_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--spec",
        default=None,
        metavar="FILE",
        help="JSON/YAML scenario file (single scenario, bundle or sweep)",
    )
    sub.add_argument(
        "--backend",
        default=None,
        metavar="NAME",
        help="run every selected scenario on this transport backend "
        "(see `python -m repro backends`; overrides runtime.backend)",
    )


def _add_experiment_run_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--heavy",
        action="store_true",
        help="include heavy experiments (full contention sweeps)",
    )
    _add_runner_options(sub)
    sub.add_argument(
        "--points",
        type=int,
        default=8,
        metavar="N",
        help="x-samples printed per figure series (default: 8)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduce the tables and figures of the ISCA 2006 "
        "quantum-interconnect paper.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    backends = subparsers.add_parser(
        "backends", help="list the transport backends"
    )
    _add_format_option(backends)

    experiments = subparsers.add_parser(
        "experiments", help="paper-artefact experiments (list/run/report)"
    )
    experiment_subs = experiments.add_subparsers(dest="experiment_command", required=True)
    ex_list = experiment_subs.add_parser("list", help="list the registered experiments")
    _add_format_option(ex_list)
    ex_run = experiment_subs.add_parser(
        "run", help="regenerate one or more artefacts and print them"
    )
    ex_run.add_argument(
        "identifiers",
        nargs="*",
        metavar="IDENTIFIER",
        help="experiments to run (default: all light experiments)",
    )
    _add_experiment_run_options(ex_run)
    ex_report = experiment_subs.add_parser(
        "report", help="print the full reproduction report"
    )
    _add_experiment_run_options(ex_report)

    scenarios = subparsers.add_parser(
        "scenarios", help="declarative scenario engine (list/run/sweep)"
    )
    scenario_subs = scenarios.add_subparsers(dest="scenario_command", required=True)

    sc_list = scenario_subs.add_parser(
        "list", help="list built-in (or file-defined) scenarios"
    )
    sc_list.add_argument(
        "--spec", default=None, metavar="FILE", help="list a scenario file instead"
    )
    _add_format_option(sc_list)

    sc_run = scenario_subs.add_parser(
        "run", help="run scenarios by name (catalog or --spec file)"
    )
    sc_run.add_argument(
        "names",
        nargs="*",
        metavar="NAME",
        help="scenario names (default: every scenario the source defines)",
    )
    _add_scenario_io_options(sc_run)
    _add_runner_options(sc_run)
    _add_sweep_execution_options(sc_run)
    _add_format_option(sc_run)

    sc_sweep = scenario_subs.add_parser(
        "sweep", help="fan a scenario grid across the process pool"
    )
    sc_sweep.add_argument(
        "--topologies",
        default=None,
        metavar="A,B",
        help="comma-separated fabric kinds for the built-in grid "
        "(default: mesh,ring,torus)",
    )
    sc_sweep.add_argument(
        "--workloads",
        default=None,
        metavar="X,Y",
        help="comma-separated workload kinds for the built-in grid "
        "(default: qft,permutation)",
    )
    _add_scenario_io_options(sc_sweep)
    _add_runner_options(sc_sweep)
    _add_sweep_execution_options(sc_sweep)
    _add_format_option(sc_sweep)

    sweep = subparsers.add_parser(
        "sweep", help="sweep execution tools (journal status)"
    )
    sweep_subs = sweep.add_subparsers(dest="sweep_command", required=True)
    sweep_status = sweep_subs.add_parser(
        "status", help="summarise a sweep journal: completed/failed/missing points"
    )
    sweep_status.add_argument(
        "journal", metavar="JOURNAL", help="path to the sweep's JSONL journal"
    )
    _add_format_option(sweep_status)

    serve = subparsers.add_parser(
        "serve",
        help="run an open-loop service scenario and report steady-state metrics",
    )
    serve.add_argument(
        "--scenario",
        default=None,
        metavar="NAME",
        help="built-in catalog scenario to serve (needs a traffic section)",
    )
    serve.add_argument(
        "--spec",
        default=None,
        metavar="FILE",
        help="JSON/YAML scenario file to serve instead of a catalog entry",
    )
    serve.add_argument(
        "--name",
        default=None,
        metavar="NAME",
        help="scenario to pick when --spec defines several",
    )
    serve.add_argument(
        "--backend",
        default=None,
        metavar="NAME",
        help="transport backend to serve on (fluid or detailed; "
        "overrides runtime.backend)",
    )
    _add_format_option(serve)

    # Imported lazily (like the experiment/scenario handlers below) so bare
    # invocations never pay the simulation-stack import behind repro.verify.
    from ..lint.cli import add_lint_parser
    from ..verify.cli import add_verify_parser

    add_verify_parser(subparsers)
    add_lint_parser(subparsers)
    return parser


def _runner_from(args: argparse.Namespace) -> ExperimentRunner:
    return ExperimentRunner(
        workers=args.workers,
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
    )


# -- experiment commands ------------------------------------------------------------


def _cmd_experiments_list(args: argparse.Namespace) -> int:
    from ..analysis.experiments import EXPERIMENTS

    if getattr(args, "format", "text") == "json":
        _emit_json(
            [
                {
                    "name": name,
                    "kind": experiment.kind,
                    "description": experiment.description,
                    "heavy": experiment.heavy,
                }
                for name, experiment in EXPERIMENTS.items()
            ]
        )
        return 0
    width = max(len(name) for name in EXPERIMENTS)
    for name, experiment in EXPERIMENTS.items():
        heavy = "  [heavy]" if experiment.heavy else ""
        print(f"{name:{width}s}  {experiment.kind:6s}  {experiment.description}{heavy}")
    return 0


def _cmd_experiments_run(args: argparse.Namespace) -> int:
    from ..analysis.experiments import get_experiment
    from ..analysis.report import render_artifact

    identifiers: Optional[List[str]] = args.identifiers or None
    runner = _runner_from(args)
    results = runner.run(identifiers, include_heavy=args.heavy, force=args.force)
    for identifier, artifact in results.items():
        experiment = get_experiment(identifier)
        print(f"[{identifier}] {experiment.description}")
        print(render_artifact(artifact, max_points=args.points))
        print()
    return 0


def _cmd_experiments_report(args: argparse.Namespace) -> int:
    from ..analysis.experiments import get_experiment
    from ..analysis.report import render_report

    runner = _runner_from(args)
    results = runner.run(include_heavy=args.heavy, force=args.force)
    pairs = [(get_experiment(identifier), artifact) for identifier, artifact in results.items()]
    print(render_report(pairs, max_points=args.points))
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    if args.experiment_command == "list":
        return _cmd_experiments_list(args)
    if args.experiment_command == "run":
        return _cmd_experiments_run(args)
    if args.experiment_command == "report":
        return _cmd_experiments_report(args)
    raise AssertionError(  # pragma: no cover
        f"unhandled experiment command {args.experiment_command!r}"
    )


def _cmd_backends(args: argparse.Namespace) -> int:
    from ..sim.simulator import BACKENDS

    descriptions = {name: BACKENDS[name].description for name in sorted(BACKENDS)}
    if getattr(args, "format", "text") == "json":
        _emit_json(descriptions)
        return 0
    width = max(len(name) for name in descriptions)
    for name, description in descriptions.items():
        print(f"{name:{width}s}  {description}")
    return 0


# -- scenario commands --------------------------------------------------------------


def _require_specs(specs, source: str):
    if not specs:
        from ..errors import ScenarioError

        raise ScenarioError(f"{source} defines no scenarios")
    return specs


def _cmd_scenarios_list(args: argparse.Namespace) -> int:
    from ..scenarios import select_scenarios

    specs = _require_specs(select_scenarios(spec_path=args.spec), args.spec or "the catalog")
    if args.format == "json":
        _emit_json(
            [
                {
                    "name": spec.name,
                    "label": spec.label,
                    "description": spec.description,
                    "mode": "service" if spec.traffic is not None else "batch",
                }
                for spec in specs
            ]
        )
        return 0
    width = max(len(spec.name) for spec in specs)
    for spec in specs:
        description = spec.description or spec.label
        print(f"{spec.name:{width}s}  {spec.label}  --  {description}")
    return 0


def _scenario_table_line(record: Dict[str, Any], width: int) -> str:
    name = record["name"]
    error = record.get("error")
    if error is not None:
        return (
            f"{name:{width}s}  ERROR {error.get('type', 'Error')}: "
            f"{error.get('message', '')}  [{record['attempts']} attempt(s)]"
        )
    if record["cached"]:
        flag = "cache"
    elif record["journaled"]:
        flag = "journal"
    else:
        flag = f"{record['wall_time_s']:.2f}s"
    if "offered" in record:  # service-mode flat record
        return (
            f"{name:{width}s}  makespan={record['makespan_us']:14.3f} us  "
            f"completed={record['completed']:3d}/{record['offered']:3d}  "
            f"p99={record['latency_p99_us']:10.1f} us  "
            f"drop={record['drop_rate']:6.1%}  [{flag}]"
        )
    return (
        f"{name:{width}s}  makespan={record['makespan_us']:14.3f} us  "
        f"channels={record['channel_count']:4d}  ops={record['operations']:4d}  "
        f"[{flag}]"
    )


def _execute_scenarios(specs, args: argparse.Namespace) -> int:
    """Run specs through :func:`repro.api.sweep` and print the table.

    A failed point (worker exception or per-point timeout) prints as an
    ``ERROR`` row and makes the exit code 1, but never aborts its siblings:
    every other scenario still completes, and with ``--journal`` the failure
    is durably recorded and retried on the next invocation.
    """
    from .. import api

    _require_specs(specs, "the scenario selection")
    records = api.sweep(
        specs,
        backend=args.backend or None,
        workers=args.workers,
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
        force=args.force,
        journal=args.journal,
        point_timeout_s=args.point_timeout,
        retries=args.retries,
        progress=args.progress,
    )
    if args.format == "json":
        _emit_json(records)
    else:
        width = max(len(record["name"]) for record in records)
        for record in records:
            print(_scenario_table_line(record, width))
    return 1 if any("error" in record for record in records) else 0


def _cmd_scenarios_run(args: argparse.Namespace) -> int:
    from ..scenarios import select_scenarios

    return _execute_scenarios(select_scenarios(args.names or None, args.spec), args)


def _cmd_scenarios_sweep(args: argparse.Namespace) -> int:
    from ..errors import ScenarioError
    from ..scenarios import default_grid, load_scenario_file

    if args.spec:
        if args.topologies or args.workloads:
            raise ScenarioError(
                "--spec defines its own grid; it cannot be combined with "
                "--topologies/--workloads"
            )
        specs = load_scenario_file(args.spec)
    else:
        topologies = [t for t in (args.topologies or "").split(",") if t] or None
        workloads = [w for w in (args.workloads or "").split(",") if w] or None
        kwargs = {}
        if topologies:
            kwargs["topologies"] = topologies
        if workloads:
            kwargs["workloads"] = workloads
        specs = default_grid(**kwargs)
    return _execute_scenarios(specs, args)


def _cmd_scenarios(args: argparse.Namespace) -> int:
    if args.scenario_command == "list":
        return _cmd_scenarios_list(args)
    if args.scenario_command == "run":
        return _cmd_scenarios_run(args)
    if args.scenario_command == "sweep":
        return _cmd_scenarios_sweep(args)
    raise AssertionError(  # pragma: no cover
        f"unhandled scenario command {args.scenario_command!r}"
    )


# -- sweep tools --------------------------------------------------------------------


def _cmd_sweep_status(args: argparse.Namespace) -> int:
    from .journal import journal_status

    status = journal_status(args.journal)
    if args.format == "json":
        _emit_json(status)
        return 0
    meta = status["meta"]
    print(f"journal: {status['path']}")
    if meta.get("func"):
        print(f"sweep:   {meta['func']}  (source {meta.get('source', '?')})")
    print(
        f"points:  {status['ok']}/{status['total']} ok, "
        f"{status['error_count']} failed, {status['missing']} missing"
    )
    print(
        f"entries: {status['entries']} recorded "
        f"({status['retries']} retries), {status['elapsed_s']:.2f}s compute"
    )
    if status["truncated_bytes"]:
        print(
            f"note:    {status['truncated_bytes']} bytes of truncated tail "
            "(crashed writer); the partial point will be recomputed on resume"
        )
    for error in status["errors"][:5]:
        print(
            f"  failed {error['key']}: {error.get('type', 'Error')}: "
            f"{error.get('message', '')}  [{error['attempts']} attempt(s)]"
        )
    if len(status["errors"]) > 5:
        print(f"  ... and {len(status['errors']) - 5} more failures")
    if status["complete"]:
        print("state:   complete — a re-run recomputes nothing")
    elif status["missing"] or status["error_count"]:
        print("state:   resumable — a re-run executes only missing/failed points")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.sweep_command == "status":
        return _cmd_sweep_status(args)
    raise AssertionError(  # pragma: no cover
        f"unhandled sweep command {args.sweep_command!r}"
    )


# -- serve --------------------------------------------------------------------------


def _render_service_text(result) -> str:
    view = result.service
    lines = [
        f"{result.name}  [{result.label}]  backend={result.backend}  "
        f"allocator={result.allocator}",
        f"  traffic horizon {view.duration_us:.1f} us; queue drained at "
        f"makespan {view.makespan_us:.3f} us",
        f"  requests: offered {view.offered} -> admitted {view.admitted}, "
        f"dropped {view.dropped} (drop rate {view.drop_rate:.1%}), "
        f"completed {view.completed}",
        f"  load: offered {view.offered_load_per_ms:.3f} ch/ms -> "
        f"delivered {view.delivered_load_per_ms:.3f} ch/ms",
        f"  completion time p50/p99: {view.latency_p50_us:.1f}/"
        f"{view.latency_p99_us:.1f} us; queue wait p50/p99: "
        f"{view.wait_p50_us:.1f}/{view.wait_p99_us:.1f} us",
        f"  max queue depth {view.max_queue_depth}",
    ]
    if view.utilisation:
        util = "  ".join(f"{k}={v:.4f}" for k, v in sorted(view.utilisation.items()))
        lines.append(f"  utilisation: {util}")
    for tenant in sorted(view.tenants):
        stats = view.tenants[tenant]
        lines.append(
            f"  tenant {tenant}: offered {stats['offered']}, "
            f"completed {stats['completed']}, dropped {stats['dropped']} "
            f"({stats['drop_rate']:.1%}), completion p50/p99 "
            f"{stats['latency_p50_us']:.1f}/{stats['latency_p99_us']:.1f} us, "
            f"max queue {stats['max_queue_depth']}"
        )
    if view.fidelity:
        parts = "  ".join(
            f"{key}={value:.6g}" if isinstance(value, float) else f"{key}={value}"
            for key, value in sorted(view.fidelity.items())
        )
        lines.append(f"  fidelity: {parts}")
    lines.append(f"  wall time {result.wall_time_s:.2f}s")
    return "\n".join(lines)


def _cmd_serve(args: argparse.Namespace) -> int:
    from .. import api
    from ..errors import ScenarioError

    if bool(args.scenario) == bool(args.spec):
        raise ScenarioError("serve needs exactly one of --scenario NAME or --spec FILE")
    spec = api.load_scenario(args.scenario or args.spec, args.name)
    result = api.serve(spec, backend=args.backend)
    if args.format == "json":
        _emit_json(result.to_dict())
    else:
        print(_render_service_text(result))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "experiments":
            return _cmd_experiments(args)
        if args.command == "backends":
            return _cmd_backends(args)
        if args.command == "scenarios":
            return _cmd_scenarios(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "verify":
            from ..verify.cli import cmd_verify

            return cmd_verify(args)
        if args.command == "lint":
            from ..lint.cli import cmd_lint

            return cmd_lint(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover
