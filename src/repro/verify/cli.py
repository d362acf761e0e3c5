"""``python -m repro verify`` — differential verification and golden traces.

Five subcommands over the same scenario selection (catalog names, a
``--spec`` file, or ``--all-catalog``):

``run``
    Replay each scenario under every requested allocator and diff makespans,
    per-operation completion orders, channel timelines and flow-rate
    (utilisation) timelines.  ``--backends`` additionally replays the
    scenario under both transport backends (fluid and detailed) and holds
    their makespans and op orders to the documented tolerances; service
    scenarios are diffed as traffic instead: the offered request streams
    must be bitwise identical, the completed request sets equal, the
    completion orders within the documented disorder tolerance and the
    delivered loads within the documented ratio.  Exits non-zero on any
    divergence.
``record``
    (Re-)serialize each scenario's canonical trace to its golden fixture —
    the one deliberate command that moves the goldens.
``diff``
    Replay each scenario and compare its canonical trace line-by-line
    against the checked-in fixture.  Exits non-zero on any mismatch.
``fidelity``
    Replay each scenario under the fluid and detailed backends with fidelity
    accounting on (scenarios without a ``noise`` section get the documented
    parity noise applied) and hold the delivered per-channel fidelities to
    the documented tolerance.  Exits non-zero on any divergence.
``routing``
    Replay each scenario under every load-balancing policy: every opened
    channel must emit exactly one well-formed ``route`` record, the set of
    completed work must be identical across policies, ``least_loaded`` must
    not lose to ``ecmp`` on makespan beyond the documented tolerance, and
    the fluid and detailed backends must agree per policy within the
    documented tolerances.  Exits non-zero on any divergence.
"""

from __future__ import annotations

import argparse
from typing import TYPE_CHECKING, List

from ..errors import ScenarioError
from ..sim.flow import ALLOCATORS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..scenarios.spec import ScenarioSpec

_DEFAULT_ALLOCATORS = ",".join(ALLOCATORS)


def add_verify_parser(subparsers: argparse._SubParsersAction) -> None:
    """Wire the ``verify`` command group onto the top-level parser."""
    verify = subparsers.add_parser(
        "verify", help="differential verification and golden-trace regression"
    )
    verify_subs = verify.add_subparsers(dest="verify_command", required=True)

    def _common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "names",
            nargs="*",
            metavar="NAME",
            help="scenario names (default: the full built-in catalog)",
        )
        sub.add_argument(
            "--all-catalog",
            action="store_true",
            help="select every built-in catalog scenario explicitly",
        )
        sub.add_argument(
            "--spec",
            default=None,
            metavar="FILE",
            help="JSON/YAML scenario file to select scenarios from",
        )

    run = verify_subs.add_parser(
        "run", help="replay scenarios under multiple allocators and diff the dynamics"
    )
    _common(run)
    run.add_argument(
        "--allocators",
        default=_DEFAULT_ALLOCATORS,
        metavar="A,B",
        help=f"comma-separated allocators to diff (default: {_DEFAULT_ALLOCATORS})",
    )
    run.add_argument(
        "--backends",
        action="store_true",
        help="also replay each scenario under the fluid and detailed transport "
        "backends and diff makespans/op order within documented tolerances "
        "(service scenarios: offers, completions and delivered load)",
    )

    record = verify_subs.add_parser(
        "record", help="(re-)record golden trace fixtures — a deliberate act"
    )
    _common(record)
    record.add_argument(
        "--golden-dir",
        default=None,
        metavar="DIR",
        help="fixture directory (default: tests/golden)",
    )

    diff = verify_subs.add_parser(
        "diff", help="diff canonical traces against the checked-in golden fixtures"
    )
    _common(diff)
    diff.add_argument(
        "--golden-dir",
        default=None,
        metavar="DIR",
        help="fixture directory (default: tests/golden)",
    )

    fidelity = verify_subs.add_parser(
        "fidelity",
        help="fluid-vs-detailed delivered-fidelity parity check (noise applied)",
    )
    _common(fidelity)
    fidelity.add_argument(
        "--tolerance",
        type=float,
        default=None,
        metavar="TOL",
        help="absolute delivered-fidelity tolerance (default: the documented "
        "FIDELITY_ABS_TOL)",
    )

    routing = verify_subs.add_parser(
        "routing",
        help="load-balancing policy equivalence (completion sets, makespan "
        "ordering, route records, fluid-vs-detailed parity per policy)",
    )
    _common(routing)
    routing.add_argument(
        "--policies",
        default=None,
        metavar="P,Q",
        help="comma-separated routing policies to replay (default: every "
        "load balancer)",
    )


def _selected_specs(args: argparse.Namespace) -> List["ScenarioSpec"]:
    from ..scenarios import select_scenarios

    if args.all_catalog:
        if args.spec:
            raise ScenarioError("--all-catalog selects built-ins; it cannot follow --spec")
        return select_scenarios()
    return select_scenarios(args.names or None, args.spec)


def cmd_verify(args: argparse.Namespace) -> int:
    if args.verify_command == "run":
        return _cmd_run(args)
    if args.verify_command == "record":
        return _cmd_record(args)
    if args.verify_command == "diff":
        return _cmd_diff(args)
    if args.verify_command == "fidelity":
        return _cmd_fidelity(args)
    if args.verify_command == "routing":
        return _cmd_routing(args)
    raise AssertionError(  # pragma: no cover
        f"unhandled verify command {args.verify_command!r}"
    )


def _cmd_run(args: argparse.Namespace) -> int:
    from .harness import verify_backends, verify_scenario

    allocators = tuple(a for a in args.allocators.split(",") if a)
    specs = _selected_specs(args)
    width = max(len(spec.name) for spec in specs)
    failures = 0
    for spec in specs:
        verdict = verify_scenario(spec, allocators=allocators)
        divergences = list(verdict.divergences)
        if args.backends:
            divergences.extend(verify_backends(spec))
        status = "ok" if not divergences else f"DIVERGED ({len(divergences)})"
        print(
            f"{spec.name:{width}s}  makespan={verdict.makespan_us:14.3f} us  "
            f"ops={verdict.operations:4d}  channels={verdict.channels:4d}  "
            f"allocators={','.join(verdict.allocators)}  {status}"
        )
        for divergence in divergences:
            print(f"  {divergence}")
        failures += bool(divergences)
    total = len(specs)
    print(
        f"verified {total} scenario{'s' if total != 1 else ''}: "
        f"{total - failures} agreed, {failures} diverged"
    )
    return 1 if failures else 0


def _cmd_record(args: argparse.Namespace) -> int:
    from .golden import record_golden

    specs = _selected_specs(args)
    for spec in specs:
        path = record_golden(spec, directory=args.golden_dir)
        print(f"recorded {spec.name} -> {path}")
    return 0


def _cmd_fidelity(args: argparse.Namespace) -> int:
    from .harness import FIDELITY_ABS_TOL, verify_fidelity

    tolerance = FIDELITY_ABS_TOL if args.tolerance is None else args.tolerance
    specs = _selected_specs(args)
    width = max(len(spec.name) for spec in specs)
    failures = 0
    for spec in specs:
        divergences = verify_fidelity(spec, tolerance=tolerance)
        status = "ok" if not divergences else f"DIVERGED ({len(divergences)})"
        print(f"{spec.name:{width}s}  fluid vs detailed delivered fidelity  {status}")
        for divergence in divergences:
            print(f"  {divergence}")
        failures += bool(divergences)
    total = len(specs)
    print(
        f"fidelity parity on {total} scenario{'s' if total != 1 else ''}: "
        f"{total - failures} agreed, {failures} diverged (tolerance {tolerance:g})"
    )
    return 1 if failures else 0


def _cmd_routing(args: argparse.Namespace) -> int:
    from ..network.routing import BALANCERS
    from .harness import verify_routing

    policies = (
        tuple(BALANCERS)
        if args.policies is None
        else tuple(p for p in args.policies.split(",") if p)
    )
    specs = _selected_specs(args)
    width = max(len(spec.name) for spec in specs)
    failures = 0
    for spec in specs:
        divergences = verify_routing(spec, policies=policies)
        status = "ok" if not divergences else f"DIVERGED ({len(divergences)})"
        print(f"{spec.name:{width}s}  policies={','.join(policies)}  {status}")
        for divergence in divergences:
            print(f"  {divergence}")
        failures += bool(divergences)
    total = len(specs)
    print(
        f"routing equivalence on {total} scenario{'s' if total != 1 else ''}: "
        f"{total - failures} agreed, {failures} diverged"
    )
    return 1 if failures else 0


def _cmd_diff(args: argparse.Namespace) -> int:
    from .golden import diff_golden

    specs = _selected_specs(args)
    failures = 0
    for spec in specs:
        diff = diff_golden(spec, directory=args.golden_dir)
        print(diff.summary())
        failures += not diff.ok
    return 1 if failures else 0
