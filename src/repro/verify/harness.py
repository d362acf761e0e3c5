"""Differential verification: replay one scenario several ways, diff traces.

The paper's credibility rests on independent implementations of the same
physics agreeing: the incremental and reference max-min allocators must
produce *bitwise identical* dynamics, and the fluid flow backend must stay
consistent with the detailed per-pair backend.  This module turns that
agreement into a harness:

* :func:`traced_run` is :func:`repro.scenarios.run.run` on a spec with the
  allocator and backend overridden and a trace bus attached; it returns the
  same :class:`~repro.scenarios.run.RunResult` every other caller gets next
  to the typed record stream.  Completion orders, channel counts and
  per-channel fidelities are read from that stream;
* :func:`verify_scenario` replays a scenario under every requested allocator
  and diffs four aspects — the makespan (bitwise), the per-operation
  completion order (exact), the per-channel open/close timeline (bitwise) and
  the per-flow rate timeline, i.e. the channel utilisation trajectory
  (bitwise); final per-class utilisation reports are compared to 1e-9
  relative (their summation *order* legitimately differs between allocators);
* :func:`verify_backends` cross-checks the fluid model against the detailed
  per-pair backend end to end: the *same* scenario is replayed under both
  transport granularities and their makespans and operation completion
  orders must agree within documented tolerances — the two backends share
  only the scheduler/control loop above the transport contract, so
  agreement is evidence, not tautology.  Service scenarios are diffed as
  traffic (:func:`compare_traffic_runs`): both backends are fed the *bitwise
  identical* request stream (the arrivals are pre-generated from the spec)
  and must agree on what was offered, what completed, the request completion
  order (within the documented disorder tolerance) and the delivered load
  (within the documented ratio);

Every ``verify_*`` check but :func:`verify_routing` replays the scenario
along one axis (allocator or backend) through :func:`_replay` and diffs each
run against the first.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from functools import partial
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..errors import ScenarioError
from ..network.routing import BALANCERS
from ..scenarios.run import RunResult
from ..scenarios.run import run as run_spec
from ..scenarios.spec import RuntimeSpec, ScenarioSpec
from ..sim.flow import ALLOCATORS
from ..sim.simulator import BACKENDS
from ..trace import (
    CANONICAL_KINDS,
    ChannelClosed,
    ChannelFidelity,
    ChannelOpened,
    FlowRateChanged,
    OperationRetired,
    RequestArrived,
    RequestCompleted,
    RequestDropped,
    RouteChosen,
    TraceBus,
    TraceRecord,
)

#: Kinds a differential run records: the canonical stream plus rate changes.
DIFFERENTIAL_KINDS = frozenset(CANONICAL_KINDS) | {FlowRateChanged.kind}

#: Relative tolerance for final utilisation reports (summation-order noise).
UTILISATION_REL_TOL = 1e-9

#: Documented makespan agreement between transport backends: the fluid and
#: detailed granularities model the same physics at different resolutions
#: (max-min fair rates against FIFO queueing and pipeline fill), so their
#: makespans agree to a small factor, not to the bit.  Catalog scenarios
#: currently land within ~1.3x; 1.5 leaves headroom without letting a broken
#: backend slip through.
BACKEND_MAKESPAN_RATIO = 1.5

#: Allowed disorder between the backends' operation completion sequences:
#: the normalized Kendall (pairwise-inversion) distance between the two
#: orders.  Queueing noise legitimately swaps near-simultaneous completions;
#: wholesale reordering means the backends disagree about the dynamics.
BACKEND_ORDER_TOLERANCE = 0.25

#: Documented agreement between the backends' delivered channel fidelities.
#: The fluid backend evaluates the purification recurrence analytically once
#: per distance; the detailed backend replays it per EPR pair through the
#: event-driven queue purifiers and averages the delivered pairs.  The
#: physics is the same exact Bell-diagonal algebra, so the only divergence
#: is float summation order in the per-pair average — parts in 1e15; 1e-6
#: leaves five orders of magnitude of headroom while still catching any
#: model change on either side.
FIDELITY_ABS_TOL = 1e-6

#: Noise section applied by :func:`verify_fidelity` to scenarios that do not
#: carry one: a slightly degraded EPR source with an explicit target, which
#: keeps every catalog scenario inside the purifying regime (purification
#: level >= 1) where both backends exercise their full fidelity paths.
PARITY_NOISE = {"base_fidelity": 0.999, "target_fidelity": 0.9999}

#: Allowed relative excess of the least-loaded makespan over the ECMP one.
#: On congested workloads load-aware placement should win (and does, by a
#: wide margin, on the multi-path catalog scenarios); on uncongested or
#: single-path fabrics the two policies land on identical paths and the
#: makespans tie exactly.  The band only absorbs near-tie noise — a genuine
#: inversion means the load view or the policy is broken.
ROUTING_MAKESPAN_TOL = 0.05


def _as_spec(spec: Union[ScenarioSpec, Mapping[str, Any]]) -> ScenarioSpec:
    if isinstance(spec, ScenarioSpec):
        return spec
    return ScenarioSpec.from_dict(spec)


@dataclass
class TracedRun:
    """One simulated scenario with its trace attached.

    ``result`` is the :class:`~repro.scenarios.run.RunResult` of the run and
    ``spec`` the scenario as it ran (allocator and backend overrides
    applied); ``records`` is what the trace bus kept.
    """

    spec: ScenarioSpec
    result: RunResult
    records: List[TraceRecord]

    @property
    def allocator(self) -> str:
        return self.result.allocator

    @property
    def backend(self) -> str:
        return self.result.backend

    @property
    def makespan_us(self) -> float:
        return self.result.makespan_us

    def of_kind(self, kind: str) -> List[TraceRecord]:
        return [record for record in self.records if record.kind == kind]


def traced_run(
    spec: Union[ScenarioSpec, Mapping[str, Any]],
    *,
    allocator: Optional[str] = None,
    backend: Optional[str] = None,
    kinds: Optional[Sequence[str]] = None,
) -> TracedRun:
    """Run one scenario through :func:`repro.scenarios.run.run`, traced.

    ``allocator`` and ``backend`` override the spec's runtime choices,
    validated as the spec's own are; ``kinds`` limits which record kinds are
    kept (default: the differential set — canonical plus flow-rate changes).
    """
    spec = _as_spec(spec)
    runtime = {
        **asdict(spec.runtime),
        "allocator": allocator or spec.runtime.allocator,
        "backend": backend or spec.runtime.backend,
    }
    spec = replace(spec, runtime=RuntimeSpec.from_dict(runtime))
    bus = TraceBus(kinds=DIFFERENTIAL_KINDS if kinds is None else kinds)
    return TracedRun(spec=spec, result=run_spec(spec, trace=bus), records=bus.records)


@dataclass(frozen=True)
class Divergence:
    """One disagreement between two runs of the same scenario."""

    scenario: str
    aspect: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.scenario}] {self.aspect}: {self.detail}"


@dataclass
class ScenarioVerdict:
    """Outcome of differentially verifying one scenario."""

    scenario: str
    allocators: Tuple[str, ...]
    makespan_us: float
    operations: int
    channels: int
    divergences: List[Divergence] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences


def _completion_order(run: TracedRun) -> List[int]:
    """What the run completed, in order: op indices, or request ids in service mode."""
    if run.spec.traffic is not None:
        return [record.request_id for record in run.of_kind(RequestCompleted.kind)]
    return [record.op_index for record in run.of_kind(OperationRetired.kind)]


def _replay(
    spec: ScenarioSpec,
    axis: str,
    values: Sequence[str],
    compare: Callable[[TracedRun, TracedRun], List[Divergence]],
) -> Tuple[TracedRun, List[Divergence]]:
    """Run ``spec`` once per value of ``axis`` and diff each run against the first.

    ``axis`` is ``"allocator"`` or ``"backend"``; ``values`` must name at
    least two known ones.  Returns the baseline run and every
    divergence ``compare`` reports.
    """
    values = tuple(values)
    known = ALLOCATORS if axis == "allocator" else tuple(BACKENDS)
    if len(values) < 2:
        raise ScenarioError(
            f"differential verification needs at least two {axis}s, got {list(values)}"
        )
    unknown = sorted(set(values) - set(known))
    if unknown:
        raise ScenarioError(f"unknown {axis}s {unknown}; available: {sorted(known)}")
    baseline = traced_run(spec, **{axis: values[0]})
    divergences: List[Divergence] = []
    for other in values[1:]:
        divergences.extend(compare(baseline, traced_run(spec, **{axis: other})))
    return baseline, divergences


def compare_runs(a: TracedRun, b: TracedRun) -> List[Divergence]:
    """Diff two runs of the same scenario; empty list means agreement."""
    name = a.spec.name
    divergences: List[Divergence] = []

    # lint-ok: FLT001 -- allocator parity is a *bitwise* contract: both allocators
    # run the same float program, so any difference at all is a divergence
    if a.makespan_us != b.makespan_us:
        divergences.append(
            Divergence(
                name,
                "makespan",
                f"{a.allocator}={a.makespan_us!r} vs {b.allocator}={b.makespan_us!r}",
            )
        )

    order_a, order_b = _completion_order(a), _completion_order(b)
    if order_a != order_b:
        first = next(
            (i for i, (x, y) in enumerate(zip(order_a, order_b)) if x != y),
            min(len(order_a), len(order_b)),
        )
        divergences.append(
            Divergence(
                name,
                "op_order",
                f"completion orders differ at position {first} "
                f"({order_a[first:first + 3]} vs {order_b[first:first + 3]})",
            )
        )

    for kind, aspect in (
        (ChannelOpened.kind, "channel_open_timeline"),
        (ChannelClosed.kind, "channel_close_timeline"),
        (FlowRateChanged.kind, "rate_timeline"),
        # Request lifecycles only exist on service runs; on batch runs both
        # sides are empty and the comparison is vacuously bitwise.
        (RequestArrived.kind, "request_arrival_timeline"),
        (RequestDropped.kind, "request_drop_timeline"),
        (RequestCompleted.kind, "request_completion_timeline"),
    ):
        recs_a, recs_b = a.of_kind(kind), b.of_kind(kind)
        if recs_a != recs_b:
            first = next(
                (i for i, (x, y) in enumerate(zip(recs_a, recs_b)) if x != y),
                min(len(recs_a), len(recs_b)),
            )
            got = recs_a[first] if first < len(recs_a) else "<missing>"
            want = recs_b[first] if first < len(recs_b) else "<missing>"
            divergences.append(
                Divergence(
                    name,
                    aspect,
                    f"{len(recs_a)} vs {len(recs_b)} records; first difference at "
                    f"index {first}: {got} vs {want}",
                )
            )

    util_a = a.result.view.utilisation
    util_b = b.result.view.utilisation
    if set(util_a) != set(util_b):
        divergences.append(
            Divergence(
                name,
                "utilisation",
                f"resource classes differ: {sorted(util_a)} vs {sorted(util_b)}",
            )
        )
    else:
        for kind in sorted(util_a):
            x, y = util_a[kind], util_b[kind]
            scale = max(abs(x), abs(y), 1.0)
            if abs(x - y) > UTILISATION_REL_TOL * scale:
                divergences.append(
                    Divergence(
                        name,
                        "utilisation",
                        f"{kind}: {a.allocator}={x!r} vs {b.allocator}={y!r}",
                    )
                )
    return divergences


def verify_scenario(
    spec: Union[ScenarioSpec, Mapping[str, Any]],
    *,
    allocators: Sequence[str] = ALLOCATORS,
) -> ScenarioVerdict:
    """Replay ``spec`` under every allocator and diff the dynamics."""
    spec = _as_spec(spec)
    allocators = tuple(allocators)
    baseline, divergences = _replay(spec, "allocator", allocators, compare_runs)
    return ScenarioVerdict(
        scenario=spec.name,
        allocators=allocators,
        makespan_us=baseline.makespan_us,
        operations=len(_completion_order(baseline)),
        channels=len(baseline.of_kind(ChannelClosed.kind)),
        divergences=divergences,
    )


# -- backend cross-check ------------------------------------------------------------


def _order_distance(a: List[int], b: List[int]) -> float:
    """Normalized Kendall distance: fraction of pairwise inversions (0..1)."""
    position = {op: index for index, op in enumerate(a)}
    sequence = [position[op] for op in b]
    n = len(sequence)
    if n < 2:
        return 0.0
    inversions = 0
    for i in range(n):
        left = sequence[i]
        for j in range(i + 1, n):
            if left > sequence[j]:
                inversions += 1
    return inversions / (n * (n - 1) / 2)


def compare_backend_runs(
    a: TracedRun,
    b: TracedRun,
    *,
    makespan_ratio: float = BACKEND_MAKESPAN_RATIO,
    order_tolerance: float = BACKEND_ORDER_TOLERANCE,
) -> List[Divergence]:
    """Diff two runs of one scenario on different backends, within tolerances.

    Unlike :func:`compare_runs` (which demands bitwise agreement between
    allocators of the *same* model), backends model different granularities:
    makespans must agree within ``makespan_ratio``, the operation/channel
    structure must match exactly, and the operation completion orders may
    differ by at most ``order_tolerance`` normalized pairwise inversions.
    """
    name = a.spec.name
    divergences: List[Divergence] = []

    if a.makespan_us <= 0 or b.makespan_us <= 0:
        divergences.append(
            Divergence(
                name,
                "backend_makespan",
                f"non-positive makespan: {a.backend}={a.makespan_us!r} "
                f"vs {b.backend}={b.makespan_us!r}",
            )
        )
        return divergences
    ratio = b.makespan_us / a.makespan_us
    if not (1.0 / makespan_ratio <= ratio <= makespan_ratio):
        divergences.append(
            Divergence(
                name,
                "backend_makespan",
                f"{a.backend}={a.makespan_us:.3f} us vs {b.backend}={b.makespan_us:.3f} us "
                f"(ratio {ratio:.3f} outside 1/{makespan_ratio:g}..{makespan_ratio:g})",
            )
        )

    order_a, order_b = _completion_order(a), _completion_order(b)
    if sorted(order_a) != sorted(order_b):
        divergences.append(
            Divergence(
                name,
                "backend_op_set",
                f"completed operations differ: {len(order_a)} ({a.backend}) "
                f"vs {len(order_b)} ({b.backend})",
            )
        )
    else:
        disorder = _order_distance(order_a, order_b)
        if disorder > order_tolerance:
            divergences.append(
                Divergence(
                    name,
                    "backend_op_order",
                    f"completion orders differ by {disorder:.3f} normalized inversions "
                    f"(tolerance {order_tolerance:g})",
                )
            )

    opens_a = len(a.of_kind(ChannelOpened.kind))
    opens_b = len(b.of_kind(ChannelOpened.kind))
    if opens_a != opens_b:
        divergences.append(
            Divergence(
                name,
                "backend_channels",
                f"channel counts differ: {opens_a} ({a.backend}) vs {opens_b} ({b.backend})",
            )
        )
    return divergences


def _backend_comparison(spec: ScenarioSpec) -> Callable[..., List[Divergence]]:
    """The cross-backend diff for ``spec``: traffic for service runs, else batch."""
    return compare_traffic_runs if spec.traffic is not None else compare_backend_runs


def verify_backends(
    spec: Union[ScenarioSpec, Mapping[str, Any]],
    *,
    backends: Sequence[str] = tuple(BACKENDS),
    makespan_ratio: float = BACKEND_MAKESPAN_RATIO,
    order_tolerance: float = BACKEND_ORDER_TOLERANCE,
) -> List[Divergence]:
    """Replay ``spec`` under every backend and diff each run against the first.

    Batch scenarios go through :func:`compare_backend_runs` (makespans within
    ``makespan_ratio``, operation completion orders within
    ``order_tolerance``), service scenarios through
    :func:`compare_traffic_runs` (identical offers, equal completion sets,
    request orders and delivered loads within the same tolerances).  Works
    on any catalog or file-defined scenario the backends can execute.
    """
    spec = _as_spec(spec)
    compare = partial(
        _backend_comparison(spec),
        makespan_ratio=makespan_ratio,
        order_tolerance=order_tolerance,
    )
    return _replay(spec, "backend", backends, compare)[1]


# -- fidelity parity ----------------------------------------------------------------


def _fidelity_by_hops(run: TracedRun) -> Dict[int, List[float]]:
    """Delivered fidelities grouped by hop count (order-independent key).

    Flow ids are allocated in service order, which legitimately differs
    between backends, but a channel's delivered fidelity is a function of its
    distance alone — so hop count is the stable join key for parity.
    """
    grouped: Dict[int, List[float]] = {}
    for record in run.of_kind(ChannelFidelity.kind):
        grouped.setdefault(record.hops, []).append(record.delivered_fidelity)
    return grouped


def compare_fidelity_runs(
    a: TracedRun,
    b: TracedRun,
    *,
    tolerance: float = FIDELITY_ABS_TOL,
) -> List[Divergence]:
    """Diff the delivered-fidelity accounting of two runs of one scenario.

    Every channel must carry a delivered fidelity on both runs, the two runs
    must service the same channel population per hop count, and the
    per-hop-count fidelity extremes must agree within ``tolerance``
    (analytical Werner algebra vs per-pair purification outcomes).
    """
    name = a.spec.name
    divergences: List[Divergence] = []
    for run in (a, b):
        channels = len(run.of_kind(ChannelClosed.kind))
        untracked = channels - len(run.of_kind(ChannelFidelity.kind))
        if untracked:
            divergences.append(
                Divergence(
                    name,
                    "fidelity_missing",
                    f"{untracked}/{channels} channels on "
                    f"{run.backend} carry no delivered fidelity",
                )
            )
    if divergences:
        return divergences
    by_hops_a, by_hops_b = _fidelity_by_hops(a), _fidelity_by_hops(b)
    if set(by_hops_a) != set(by_hops_b):
        divergences.append(
            Divergence(
                name,
                "fidelity_channels",
                f"hop populations differ: {sorted(by_hops_a)} ({a.backend}) "
                f"vs {sorted(by_hops_b)} ({b.backend})",
            )
        )
        return divergences
    for hops in sorted(by_hops_a):
        values_a, values_b = by_hops_a[hops], by_hops_b[hops]
        if len(values_a) != len(values_b):
            divergences.append(
                Divergence(
                    name,
                    "fidelity_channels",
                    f"{len(values_a)} vs {len(values_b)} channels at {hops} hops",
                )
            )
            continue
        for aspect, reduce in (("min", min), ("max", max)):
            x, y = reduce(values_a), reduce(values_b)
            if abs(x - y) > tolerance:
                divergences.append(
                    Divergence(
                        name,
                        "fidelity_value",
                        f"{aspect} delivered fidelity at {hops} hops: "
                        f"{a.backend}={x!r} vs {b.backend}={y!r} "
                        f"(|diff| {abs(x - y):.3e} > {tolerance:g})",
                    )
                )
    return divergences


def verify_fidelity(
    spec: Union[ScenarioSpec, Mapping[str, Any]],
    *,
    backends: Sequence[str] = tuple(BACKENDS),
    tolerance: float = FIDELITY_ABS_TOL,
    noise: Optional[Mapping[str, Any]] = None,
) -> List[Divergence]:
    """Fluid-vs-detailed fidelity parity for one scenario.

    The scenario is replayed under every backend with fidelity accounting on
    — scenarios without a ``noise`` section get :data:`PARITY_NOISE` (or the
    ``noise`` argument) applied — and the delivered per-channel fidelities
    must agree within ``tolerance`` (see :func:`compare_fidelity_runs`).
    """
    spec = _as_spec(spec)
    if noise is not None or spec.noise is None:
        spec = spec.with_noise(dict(noise) if noise is not None else dict(PARITY_NOISE))
    compare = partial(compare_fidelity_runs, tolerance=tolerance)
    return _replay(spec, "backend", backends, compare)[1]


# -- routing-policy diff ------------------------------------------------------------


def verify_routing(
    spec: Union[ScenarioSpec, Mapping[str, Any]],
    *,
    policies: Sequence[str] = tuple(BALANCERS),
    backends: Sequence[str] = tuple(BACKENDS),
    makespan_tolerance: float = ROUTING_MAKESPAN_TOL,
    makespan_ratio: float = BACKEND_MAKESPAN_RATIO,
    order_tolerance: float = BACKEND_ORDER_TOLERANCE,
) -> List[Divergence]:
    """Diff load-balancing policies against each other on one scenario.

    The scenario is replayed once per policy (its ``network.routing`` section
    overridden; the rest of the spec untouched) and the runs must agree on
    *what* completed — path choice may reshape contention and therefore
    timing, but never the delivered computation:

    * every policy completes the identical operation (or, for service
      scenarios, request) set;
    * every channel open is preceded by exactly one ``route`` record naming
      the policy, and each record's candidate count covers the chosen path;
    * the least-loaded makespan never exceeds the ECMP one by more than
      ``makespan_tolerance`` (load-aware placement must not lose to
      oblivious hashing — they tie exactly on single-path fabrics);
    * per policy, the fluid and detailed backends agree within the standard
      cross-backend tolerances (:func:`compare_backend_runs` /
      :func:`compare_traffic_runs`): the load view is channel counts, which
      both granularities maintain identically, so a policy must not open a
      divergence the unbalanced backends do not already have.
    """
    spec = _as_spec(spec)
    name = spec.name
    policies = tuple(policies)
    if not policies:
        raise ScenarioError("the routing diff needs at least one policy")
    divergences: List[Divergence] = []
    runs: Dict[str, TracedRun] = {}
    for policy in policies:
        pspec = spec.with_network({"routing": {"policy": policy}})
        run = traced_run(pspec, backend=backends[0])
        runs[policy] = run

        routes = run.of_kind(RouteChosen.kind)
        opens = run.of_kind(ChannelOpened.kind)
        if len(routes) != len(opens):
            divergences.append(
                Divergence(
                    name,
                    "routing_records",
                    f"{policy}: {len(routes)} route records for {len(opens)} channel opens",
                )
            )
        bad = [r for r in routes if r.policy != policy or r.candidates < 1]
        if bad:
            divergences.append(
                Divergence(
                    name,
                    "routing_records",
                    f"{policy}: {len(bad)} route records malformed (first: {bad[0]})",
                )
            )

        if len(backends) > 1:
            compare = _backend_comparison(spec)
            for other in backends[1:]:
                divergences.extend(
                    compare(
                        run,
                        traced_run(pspec, backend=other),
                        makespan_ratio=makespan_ratio,
                        order_tolerance=order_tolerance,
                    )
                )

    baseline_policy = policies[0]
    completed = sorted(_completion_order(runs[baseline_policy]))
    for policy in policies[1:]:
        other = sorted(_completion_order(runs[policy]))
        if other != completed:
            divergences.append(
                Divergence(
                    name,
                    "routing_completion_set",
                    f"{policy} completed {len(other)} items vs "
                    f"{len(completed)} under {baseline_policy}",
                )
            )

    if "ecmp" in runs and "least_loaded" in runs:
        ecmp_makespan = runs["ecmp"].makespan_us
        ll_makespan = runs["least_loaded"].makespan_us
        if ll_makespan > ecmp_makespan * (1.0 + makespan_tolerance):
            divergences.append(
                Divergence(
                    name,
                    "routing_makespan_order",
                    f"least_loaded={ll_makespan:.3f} us exceeds "
                    f"ecmp={ecmp_makespan:.3f} us by more than {makespan_tolerance:.0%}",
                )
            )
    return divergences


# -- traffic parity -----------------------------------------------------------------


def _delivered_load_per_ms(run: TracedRun) -> float:
    """Delivered channel-load, recomputed from the trace alone."""
    channels = sum(record.channels for record in run.of_kind(RequestCompleted.kind))
    if run.makespan_us <= 0:
        return 0.0
    return channels / run.makespan_us * 1000.0


def compare_traffic_runs(
    a: TracedRun,
    b: TracedRun,
    *,
    makespan_ratio: float = BACKEND_MAKESPAN_RATIO,
    order_tolerance: float = BACKEND_ORDER_TOLERANCE,
) -> List[Divergence]:
    """Diff two service runs of one scenario on different backends.

    The offered load is pre-generated from the spec, so the arrival record
    streams must be *bitwise identical* — any difference means the backends
    were not fed the same traffic and the rest of the comparison is
    meaningless.  Given identical offers, the two backends must drop and
    complete the same request populations, complete them in nearly the same
    order (``order_tolerance`` normalized pairwise inversions) and deliver
    load at rates whose ratio stays within ``makespan_ratio``.
    """
    name = a.spec.name
    divergences: List[Divergence] = []

    arrivals_a, arrivals_b = a.of_kind(RequestArrived.kind), b.of_kind(RequestArrived.kind)
    if arrivals_a != arrivals_b:
        first = next(
            (i for i, (x, y) in enumerate(zip(arrivals_a, arrivals_b)) if x != y),
            min(len(arrivals_a), len(arrivals_b)),
        )
        got = arrivals_a[first] if first < len(arrivals_a) else "<missing>"
        want = arrivals_b[first] if first < len(arrivals_b) else "<missing>"
        divergences.append(
            Divergence(
                name,
                "traffic_arrivals",
                f"offered streams differ ({len(arrivals_a)} vs {len(arrivals_b)} "
                f"arrivals); first difference at index {first}: {got} vs {want}",
            )
        )
        return divergences

    drops_a = {record.request_id for record in a.of_kind(RequestDropped.kind)}
    drops_b = {record.request_id for record in b.of_kind(RequestDropped.kind)}
    if drops_a != drops_b:
        divergences.append(
            Divergence(
                name,
                "traffic_drop_set",
                f"dropped requests differ: {sorted(drops_a ^ drops_b)} "
                f"({len(drops_a)} on {a.backend} vs {len(drops_b)} on {b.backend})",
            )
        )

    order_a, order_b = _completion_order(a), _completion_order(b)
    if sorted(order_a) != sorted(order_b):
        divergences.append(
            Divergence(
                name,
                "traffic_completion_set",
                f"completed requests differ: {len(order_a)} ({a.backend}) "
                f"vs {len(order_b)} ({b.backend})",
            )
        )
    else:
        disorder = _order_distance(order_a, order_b)
        if disorder > order_tolerance:
            divergences.append(
                Divergence(
                    name,
                    "traffic_completion_order",
                    f"request completion orders differ by {disorder:.3f} normalized "
                    f"inversions (tolerance {order_tolerance:g})",
                )
            )

    load_a, load_b = _delivered_load_per_ms(a), _delivered_load_per_ms(b)
    if load_a <= 0 or load_b <= 0:
        divergences.append(
            Divergence(
                name,
                "traffic_delivered_load",
                f"non-positive delivered load: {a.backend}={load_a!r} "
                f"vs {b.backend}={load_b!r}",
            )
        )
    else:
        ratio = load_b / load_a
        if not (1.0 / makespan_ratio <= ratio <= makespan_ratio):
            divergences.append(
                Divergence(
                    name,
                    "traffic_delivered_load",
                    f"{a.backend}={load_a:.3f}/ms vs {b.backend}={load_b:.3f}/ms "
                    f"(ratio {ratio:.3f} outside 1/{makespan_ratio:g}..{makespan_ratio:g})",
                )
            )
    return divergences
