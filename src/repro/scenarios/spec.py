"""Declarative scenario specifications.

A scenario composes four orthogonal sections into one runnable experiment:

* ``topology`` — which fabric to build (any registered one) and its size;
* ``workload`` — which instruction stream to run and its parameters;
* ``physics`` — the (t, g, p) resource allocation, purification protocol and
  timing knobs;
* ``runtime`` — layout, allocator, routing order and simulation limits.

Specs are plain frozen dataclasses with a strict dict codec: every section
rejects unknown keys, type errors and out-of-range values with a
:class:`~repro.errors.ScenarioError` naming the offending field, and
``ScenarioSpec.from_dict(spec.to_dict())`` round-trips exactly.  Each field
is declared once, as a :class:`FieldDecl` in its section's table (e.g.
:data:`TOPOLOGY_FIELDS`); the section dataclass supplies its default, and
``from_dict`` adds only the rules that span fields.  Inheritance is handled
one level up (see :mod:`repro.scenarios.loader`): a scenario mapping may
carry ``extends: <name>`` and only the keys it wants to change.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Callable, Dict, Mapping, Optional, Sequence, Tuple, Union

from ..errors import ScenarioError
from ..network.fabrics import list_topologies, topology_options
from ..network.routing import list_balancers
from ..sim.flow import ALLOCATORS
from ..workloads.registry import list_workloads, workload_params

#: Layout aliases accepted by :func:`repro.network.layout.build_layout`,
#: normalised to their canonical spelling so alias choice never changes a
#: spec's hash (and therefore its cache slot).
LAYOUT_ALIASES = {
    "home_base": "home_base",
    "homebase": "home_base",
    "mobile_qubit": "mobile_qubit",
    "mobile": "mobile_qubit",
}
#: Allocator names accepted by ``runtime.allocator``, declared once by the
#: fluid transport.
ALLOCATOR_NAMES = ALLOCATORS
ROUTING_NAMES = ("xy", "yx")
#: Transport backend names accepted by ``runtime.backend``.  Mirrors the
#: registry in :mod:`repro.sim.transport`, kept literal here (a test pins the
#: two in sync).
BACKEND_NAMES = ("fluid", "detailed")
#: Purification protocols accepted by ``physics.protocol``, mirrored from
#: :mod:`repro.physics.purification` for the same reason (a test pins them).
PROTOCOL_NAMES = ("bbpssw", "dejmps")
#: Service-mode registries, mirrored literally from :mod:`repro.service` for
#: the same reason as :data:`BACKEND_NAMES` (tests pin them in sync).
ADMISSION_NAMES = ("always", "token_bucket", "queue_bound")
SCHEDULER_NAMES = ("fifo", "priority", "fidelity")
ARRIVAL_PROCESSES = ("poisson", "fixed", "mmpp")
SIZE_DISTRIBUTIONS = ("constant", "pareto")
#: Accepted ``physics.generator_bandwidth_scale`` values, ends included.  The
#: scale divides channel times, so far outside this range a run overflows
#: its clock or stalls on rates too small to resolve.
GENERATOR_BANDWIDTH_SCALE_RANGE = (1e-6, 1e6)
#: Longest time a run's clock must resolve: the cap on
#: ``physics.logical_gate_us`` and on ``traffic.duration_us``.  A run's clock
#: reaches a few gate times or the traffic horizon; at 1e13 us a float still
#: resolves it to about 0.002 us, while near 1e20 us whole channel times
#: round away.
CLOCK_US_MAX = 1e13
#: Most requests a traffic spec may expect to offer: the sum over tenants of
#: ``duration_us / mean_interarrival_us``, times ``burst_factor`` under
#: ``mmpp``.  Service mode draws every request before the engine starts, so
#: ``runtime.max_events`` cannot stop a longer stream; 1e5 requests take about
#: a second to draw.  An ``mmpp`` tenant's ``duration_us / phase_us`` is
#: bounded alike.
MAX_OFFERED_REQUESTS = 1e5
#: Widest ``topology.width`` and ``topology.height``.  Machine build costs
#: about 35 us per node and runs before ``runtime.max_events`` can act, and
#: one bound serves every fabric: a fat tree of arity 64 has 70,656 nodes
#: (k^3/4 hosts and 5k^2/4 switches) and builds in 3 s, as many as a 256-wide
#: mesh.  A 64x64 mesh has 16 times the tiles of the paper-scale 16x16 one.
WIDTH_MAX = 64
#: Largest ``topology.options`` value.  Every registered option counts the
#: hosts under one switch (``hosts_per_leaf``, ``hosts_per_router``), which
#: multiply the nodes :data:`WIDTH_MAX` allows: at 16, a dragonfly of 64
#: groups of 64 routers has 65,536 hosts and builds in 4 s.
TOPOLOGY_OPTION_MAX = 16
#: Longest hop, in cells (``topology.cells_per_hop``).  A ballistic move errs
#: with probability 1e-6 per cell (Table 2), so from about a million cells a
#: pair arrives with error 0.63 and the run fails naming this field.  At the
#: cap a hop's 0.2 us-per-cell move time is 2e8 us, far inside
#: :data:`CLOCK_US_MAX` on any path the width bound allows.
CELLS_PER_HOP_MAX = 10**9
#: Most logical qubits (``workload.num_qubits``).  The instruction stream is
#: built before ``runtime.max_events`` can act, and grows as n^2: at 1,024
#: qubits QFT has 523,776 operations and builds in 2 s, and ``shor``, the
#: largest, 1.18 million in 9 s; at 4,096 QFT alone takes 32 s.  1,024 qubits
#: fill a 32x32 mesh, four times the paper-scale Figure 16 machine.
NUM_QUBITS_MAX = 1024
#: Most rounds of ``nearest_neighbour`` (``workload.params.rounds``).  A round
#: is n - 1 operations, so at :data:`NUM_QUBITS_MAX` qubits 1,024 rounds are
#: 1,047,552 operations and build in 2-3 s, about as many as ``shor`` there.
ROUNDS_MAX = 1024
#: Most operations of ``random`` (``workload.params.num_operations``):
#: 2^20 operations build in 3-4 s, like 1,024 rounds above.
OPERATIONS_MAX = 2**20
#: Most squaring-and-multiplication steps of ``modexp`` (``steps``) and of
#: ``shor``'s modular exponentiation (``modexp_steps``).  A step is about
#: 3n^2/8 operations: at 1,024 qubits two steps of ``modexp`` are 785,920
#: operations in 2 s, and ``shor`` with two steps is 1.57 million in 10 s.
STEPS_MAX = 2
#: Most teleporters, generators or purifiers per node (``physics.*``), 1,024
#: times Figure 16's t = g = p = 1024 normalisation point.  Neither backend's
#: cost grows with these counts, but both turn them into float rates, and
#: 10**400 teleporters raised ``OverflowError``.
UNITS_PER_NODE_MAX = 2**20
#: Most channels one request opens back to back (a tenant's ``channels`` and
#: ``max_channels``).  A channel costs 0.1-0.3 ms of wall time to simulate:
#: ``service_smoke`` at this cap runs in 0.5 s, while at a million channels
#: per request it ran for over 40 s.
CHANNELS_MAX = 1024
#: Largest ``traffic.max_inflight``, ``admission_burst`` and ``queue_limit``.
#: A spec expects at most :data:`MAX_OFFERED_REQUESTS` requests in all, so a
#: larger in-flight, burst or queue limit has nothing left to bound.
SERVICE_LIMIT_MAX = int(MAX_OFFERED_REQUESTS)

@dataclass(frozen=True)
class FieldDecl:
    """How one scenario field is validated.

    ``kind`` is ``int``, ``float`` or ``str``; a ``str`` field is a choice
    among ``choices``, matched after stripping and lower-casing: a tuple, or
    a registry's list function, read at validation time because registries
    can grow.  A number must lie between ``low`` and ``high``, each end
    closed unless marked open, and ``nullable`` also accepts ``None``.  The
    field's name and default come from its section's dataclass.
    """

    kind: type
    low: float = -math.inf
    high: float = math.inf
    low_open: bool = False
    high_open: bool = False
    nullable: bool = False
    choices: Union[Tuple[str, ...], Callable[[], Sequence[str]]] = ()

    def read(self, value: Any, name: str) -> Any:
        """``value`` validated and normalised; a ScenarioError names ``name``."""
        if value is None and self.nullable:
            return None
        if self.kind is str:
            if not isinstance(value, str):
                raise ScenarioError(f"{name} must be a string, got {value!r}")
            value = value.strip().lower()
            choices = self.choices() if callable(self.choices) else self.choices
            if value not in choices:
                raise ScenarioError(
                    f"{name} must be one of {sorted(set(choices))}, got {value!r}"
                )
            return value
        # A nullable float is a probability-like knob, and reads as one.
        unit = self.nullable and self.kind is float
        numeric: Tuple[type, ...] = (int,) if self.kind is int else (int, float)
        if isinstance(value, bool) or not isinstance(value, numeric):
            noun = "an integer" if self.kind is int else "a number or null" if unit else "a number"
            raise ScenarioError(f"{name} must be {noun}, got {value!r}")
        if self.kind is float:
            try:
                value = float(value)
            except OverflowError:
                raise ScenarioError(f"{name} must be finite, got an integer too large for a float") from None
            # NaN compares False against every bound, so range checks alone
            # would wave it (and infinities) into cache keys and physics models.
            if not math.isfinite(value):
                raise ScenarioError(f"{name} must be finite, got {value}")
        low_ok = value > self.low if self.low_open else value >= self.low
        high_ok = value < self.high if self.high_open else value <= self.high
        if unit and not (low_ok and high_ok):
            bounds = f"{'(' if self.low_open else '['}{self.low}, {self.high}{')' if self.high_open else ']'}"
            raise ScenarioError(f"{name} must be in {bounds}, got {value}")
        if not low_ok:
            raise ScenarioError(f"{name} must be {'>' if self.low_open else '>='} {self.low}, got {value}")
        if not high_ok:
            raise ScenarioError(f"{name} must be {'<' if self.high_open else '<='} {self.high}, got {value}")
        return value


def _require_mapping(value: Any, where: str) -> Dict[str, Any]:
    if value is None:
        return {}
    if not isinstance(value, Mapping):
        raise ScenarioError(f"{where} must be a mapping, got {type(value).__name__}")
    bad = [k for k in value if not isinstance(k, str)]
    if bad:
        raise ScenarioError(f"{where} has non-string keys: {bad}")
    return dict(value)


def _reject_unknown(data: Mapping[str, Any], allowed: Tuple[str, ...], where: str) -> None:
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise ScenarioError(
            f"{where} has unknown keys {unknown}; accepted: {sorted(allowed)}"
        )


def _decode(
    cls: type, data: Any, where: str, fields: Mapping[str, FieldDecl], *hand: str
) -> Dict[str, Any]:
    """One section mapping validated against its declarations.

    Returns every declared field (its ``cls`` default when absent) and the
    raw value, or None, of each ``hand``-validated key; other keys are
    refused.
    """
    data = _require_mapping(data, where)
    _reject_unknown(data, (*fields, *hand), where)
    values = {
        key: decl.read(data.get(key, getattr(cls, key)), f"{where}.{key}")
        for key, decl in fields.items()
    }
    values.update((key, data.get(key)) for key in hand)
    return values


TOPOLOGY_FIELDS = {
    "kind": FieldDecl(str, choices=list_topologies),
    "width": FieldDecl(int, 1, WIDTH_MAX),
    "height": FieldDecl(int, 1, WIDTH_MAX, nullable=True),
    "cells_per_hop": FieldDecl(int, 1, CELLS_PER_HOP_MAX),
}
#: Every ``topology.options`` value; which names a fabric takes is its own.
TOPOLOGY_OPTION = FieldDecl(int, 1, TOPOLOGY_OPTION_MAX)


@dataclass(frozen=True)
class TopologySpec:
    """Which fabric to build and how large.

    ``options`` carries fabric-specific structural knobs (e.g.
    ``hosts_per_leaf`` for ``leaf_spine``, ``hosts_per_router`` for
    ``dragonfly``) passed straight through to the builder; a name the
    fabric did not register is rejected here.  An empty mapping is omitted
    from the dict form, so pre-existing specs keep their hashes and cache
    slots.
    """

    kind: str = "mesh"
    width: int = 8
    height: Optional[int] = None
    cells_per_hop: int = 600
    options: Dict[str, int] = field(default_factory=dict)

    @classmethod
    def from_dict(cls, data: Any) -> "TopologySpec":
        values = _decode(cls, data, "topology", TOPOLOGY_FIELDS, "options")
        kind = values["kind"]
        options = values["options"] = _require_mapping(values["options"], "topology.options")
        accepted = topology_options(kind)
        unknown = sorted(set(options) - set(accepted))
        if unknown:
            raise ScenarioError(
                f"topology.options {unknown} are not taken by topology {kind!r}; "
                f"accepted: {sorted(accepted) or 'none'}"
            )
        for opt_key in sorted(options):
            options[opt_key] = TOPOLOGY_OPTION.read(options[opt_key], f"topology.options.{opt_key}")
        return cls(**values)


WORKLOAD_FIELDS = {
    "kind": FieldDecl(str, choices=list_workloads),
    "num_qubits": FieldDecl(int, 2, NUM_QUBITS_MAX),
}
#: The parameters of the registered workloads.  The stream is built before
#: ``runtime.max_events`` can act, so each count is bounded here.  A seed is
#: any integer (None means 0), and ``split`` is the share of the qubits in the
#: first register, strictly between 0 and 1.
WORKLOAD_PARAM_FIELDS = {
    "rounds": FieldDecl(int, 1, ROUNDS_MAX),
    "num_operations": FieldDecl(int, 1, OPERATIONS_MAX, nullable=True),
    "steps": FieldDecl(int, 1, STEPS_MAX),
    "modexp_steps": FieldDecl(int, 1, STEPS_MAX),
    "seed": FieldDecl(int, nullable=True),
    "split": FieldDecl(float, 0.0, 1.0, low_open=True, high_open=True),
}


@dataclass(frozen=True)
class WorkloadSpec:
    """Which instruction stream to run."""

    kind: str = "qft"
    num_qubits: int = 16
    params: Dict[str, Any] = field(default_factory=dict)

    @classmethod
    def from_dict(cls, data: Any) -> "WorkloadSpec":
        values = _decode(cls, data, "workload", WORKLOAD_FIELDS, "params")
        kind = values["kind"]
        params = values["params"] = _require_mapping(values["params"], "workload.params")
        accepted = workload_params(kind)
        unknown = sorted(set(params) - set(accepted))
        if unknown:
            raise ScenarioError(
                f"workload {kind!r} does not take parameters {unknown}; "
                f"accepted: {sorted(accepted) or 'none'}"
            )
        for name in sorted(set(params) & set(WORKLOAD_PARAM_FIELDS)):
            params[name] = WORKLOAD_PARAM_FIELDS[name].read(params[name], f"workload.params.{name}")
        return cls(**values)


PHYSICS_FIELDS = {
    "teleporters": FieldDecl(int, 1, UNITS_PER_NODE_MAX),
    "generators": FieldDecl(int, 1, UNITS_PER_NODE_MAX),
    "purifiers": FieldDecl(int, 1, UNITS_PER_NODE_MAX),
    "protocol": FieldDecl(str, choices=PROTOCOL_NAMES),
    "logical_gate_us": FieldDecl(float, 0.0, CLOCK_US_MAX),
    "generator_bandwidth_scale": FieldDecl(float, *GENERATOR_BANDWIDTH_SCALE_RANGE),
}


@dataclass(frozen=True)
class PhysicsSpec:
    """Resource allocation and physical timing knobs."""

    teleporters: int = 2
    generators: int = 2
    purifiers: int = 1
    protocol: str = "dejmps"
    logical_gate_us: float = 300.0
    generator_bandwidth_scale: float = 1.0

    @classmethod
    def from_dict(cls, data: Any) -> "PhysicsSpec":
        return cls(**_decode(cls, data, "physics", PHYSICS_FIELDS))


NOISE_FIELDS = {
    "base_fidelity": FieldDecl(float, 0.0, 1.0, low_open=True, nullable=True),
    "gate_error": FieldDecl(float, 0.0, 1.0, high_open=True, nullable=True),
    "measurement_error": FieldDecl(float, 0.0, 1.0, high_open=True, nullable=True),
    "target_fidelity": FieldDecl(float, 0.0, 1.0, low_open=True, high_open=True, nullable=True),
}


@dataclass(frozen=True)
class NoiseSpec:
    """Noise model and fidelity-accounting knobs.

    The *presence* of a ``noise`` section — even an empty one — switches the
    fidelity-accounting pipeline on: both transport backends then track the
    EPR fidelity every channel delivers, select purification levels against
    the target, and emit ``fidelity`` trace records.  Every field is optional
    and sweepable as ``noise.<field>``:

    * ``base_fidelity`` — fidelity of the zero-prepared qubits entering EPR
      generation (Eq. 4's ``F_zero``; default: the paper's 0.9995);
    * ``gate_error`` — uniform one-/two-qubit gate error probability
      (default: the Table 2 rates);
    * ``measurement_error`` — measurement flip probability (default Table 2);
    * ``target_fidelity`` — delivered-fidelity target driving purification
      level selection (default: the fault-tolerance threshold ``1 - 7.5e-5``).

    Scenarios without a ``noise`` section run exactly as before — bitwise
    identical fluid dynamics, no fidelity columns, unchanged golden traces.
    """

    base_fidelity: Optional[float] = None
    gate_error: Optional[float] = None
    measurement_error: Optional[float] = None
    target_fidelity: Optional[float] = None

    @classmethod
    def from_dict(cls, data: Any) -> "NoiseSpec":
        return cls(**_decode(cls, data, "noise", NOISE_FIELDS))


TENANT_FIELDS = {
    "arrival_process": FieldDecl(str, choices=ARRIVAL_PROCESSES),
    "mean_interarrival_us": FieldDecl(float, 0.0, low_open=True),
    "burst_factor": FieldDecl(float, 1.0),
    "phase_us": FieldDecl(float, 0.0, low_open=True),
    "size_dist": FieldDecl(str, choices=SIZE_DISTRIBUTIONS),
    "channels": FieldDecl(int, 1, CHANNELS_MAX),
    "alpha": FieldDecl(float, 0.0, low_open=True),
    "max_channels": FieldDecl(int, 1, CHANNELS_MAX),
    "priority": FieldDecl(int),
    "target_fidelity": FieldDecl(float, 0.0, 1.0, low_open=True, high_open=True, nullable=True),
}


@dataclass(frozen=True)
class TenantSpec:
    """One tenant of the open-loop service: its traffic mix and class.

    Every field is sweepable as ``traffic.tenants.<name>.<field>``:

    * ``arrival_process`` — ``poisson`` (exponential interarrivals),
      ``fixed`` (constant interarrivals) or ``mmpp`` (two-state Markov-
      modulated Poisson: bursts of ``burst_factor``-times-faster arrivals
      alternating with equally slower phases every ``phase_us``);
    * ``mean_interarrival_us`` — mean request spacing (the offered rate);
    * ``size_dist``/``channels`` — how many back-to-back channels one
      request opens: ``constant`` uses ``channels`` exactly, ``pareto``
      draws a heavy tail with shape ``alpha`` scaled by ``channels`` and
      capped at ``max_channels``;
    * ``priority`` — strict-priority rank (lower runs first);
    * ``target_fidelity`` — optional per-tenant fidelity class, consumed by
      the ``fidelity`` request scheduler (tighter targets run first).
    """

    arrival_process: str = "poisson"
    mean_interarrival_us: float = 500.0
    burst_factor: float = 4.0
    phase_us: float = 2000.0
    size_dist: str = "constant"
    channels: int = 1
    alpha: float = 1.5
    max_channels: int = 8
    priority: int = 0
    target_fidelity: Optional[float] = None

    @classmethod
    def from_dict(cls, data: Any, *, where: str = "tenant") -> "TenantSpec":
        values = _decode(cls, data, where, TENANT_FIELDS)
        channels, max_channels = values["channels"], values["max_channels"]
        if max_channels < channels:
            raise ScenarioError(
                f"{where}.max_channels must be >= channels ({channels}), got {max_channels}"
            )
        return cls(**values)


def _check_offered_requests(tenants: Mapping[str, TenantSpec], duration_us: float) -> None:
    """Reject traffic whose request stream cannot be drawn up front.

    Each arrival gap the generator draws must have a finite, non-zero rate,
    and the expected requests over ``duration_us`` (and an ``mmpp`` tenant's
    phase switches) must stay within :data:`MAX_OFFERED_REQUESTS`.
    """
    offered = 0.0
    busiest = ("", 0.0)
    for name, tenant in tenants.items():
        where = f"traffic.tenants.{name}"
        mean = tenant.mean_interarrival_us
        mmpp = tenant.arrival_process == "mmpp"
        burst = tenant.burst_factor if mmpp else 1.0
        mean_field = f"{where}.mean_interarrival_us (now {mean:g})"
        burst_field = f"{where}.burst_factor (now {burst:g})"
        # The generator draws gaps at these means: both phases under mmpp.
        gap_means = (mean / burst, mean * burst) if mmpp else (mean,)
        if not all(0.0 < gap < math.inf and 1.0 / gap < math.inf for gap in gap_means):
            named = f"{mean_field} and {burst_field} give" if mmpp else f"{mean_field} gives"
            raise ScenarioError(f"{named} an arrival rate outside the float range")
        if mmpp and duration_us / tenant.phase_us > MAX_OFFERED_REQUESTS:
            raise ScenarioError(
                f"traffic.duration_us / {where}.phase_us must be <= "
                f"{MAX_OFFERED_REQUESTS:g}, got {duration_us / tenant.phase_us:.4g}"
            )
        share = duration_us / mean * burst
        offered += share
        if share > busiest[1]:
            remedy = f", raise {mean_field} or lower {burst_field}" if mmpp else f" or raise {mean_field}"
            busiest = (remedy, share)
    if offered > MAX_OFFERED_REQUESTS:
        raise ScenarioError(
            f"traffic would offer about {offered:.4g} requests, but service mode "
            f"draws them all before the run and accepts at most "
            f"{MAX_OFFERED_REQUESTS:g}; lower traffic.duration_us (now "
            f"{duration_us:g}){busiest[0]}"
        )


TRAFFIC_FIELDS = {
    "duration_us": FieldDecl(float, 0.0, CLOCK_US_MAX, low_open=True),
    "seed": FieldDecl(int, 0),
    "max_inflight": FieldDecl(int, 1, SERVICE_LIMIT_MAX),
    "admission": FieldDecl(str, choices=ADMISSION_NAMES),
    "admission_rate_per_ms": FieldDecl(float, 0.0, low_open=True),
    "admission_burst": FieldDecl(int, 1, SERVICE_LIMIT_MAX),
    "queue_limit": FieldDecl(int, 1, SERVICE_LIMIT_MAX),
    "scheduler": FieldDecl(str, choices=SCHEDULER_NAMES),
}


@dataclass(frozen=True)
class TrafficSpec:
    """Open-loop service-mode traffic: arrivals, admission and scheduling.

    The *presence* of a ``traffic`` section switches a scenario from closed
    batch mode (run the workload's instruction stream to completion) to open
    service mode: tenants offer channel requests over ``duration_us``, an
    admission controller gates them, and a request scheduler orders admitted
    work onto at most ``max_inflight`` concurrent transport channels.
    Scenarios without a ``traffic`` section run exactly as before — same
    flat result records, same spec hashes, same golden traces.

    Every field is optional except ``tenants`` and sweepable as
    ``traffic.<field>``.  Admission kinds: ``always`` admits everything,
    ``token_bucket`` refills ``admission_rate_per_ms`` tokens per millisecond
    up to ``admission_burst``, ``queue_bound`` drops requests arriving to a
    queue already ``queue_limit`` deep.
    """

    tenants: Dict[str, TenantSpec] = field(default_factory=dict)
    duration_us: float = 10000.0
    seed: int = 0
    max_inflight: int = 4
    admission: str = "always"
    admission_rate_per_ms: float = 10.0
    admission_burst: int = 8
    queue_limit: int = 64
    scheduler: str = "fifo"

    @classmethod
    def from_dict(cls, data: Any) -> "TrafficSpec":
        values = _decode(cls, data, "traffic", TRAFFIC_FIELDS, "tenants")
        raw_tenants = _require_mapping(values["tenants"], "traffic.tenants")
        if not raw_tenants:
            raise ScenarioError("traffic.tenants must define at least one tenant")
        # Sorted construction: tenant declaration order is cosmetic, so two
        # specs listing the same tenants differently share a hash/cache slot.
        tenants = values["tenants"] = {
            name: TenantSpec.from_dict(raw_tenants[name], where=f"traffic.tenants.{name}")
            for name in sorted(raw_tenants)
        }
        _check_offered_requests(tenants, values["duration_us"])
        return cls(**values)


ROUTING_FIELDS = {
    "policy": FieldDecl(str, choices=list_balancers),
    "hysteresis": FieldDecl(float, 0.0),
}


@dataclass(frozen=True)
class RoutingSpec:
    """Load-balanced multi-path routing policy (see :mod:`repro.network.routing`).

    * ``policy`` — ``ecmp`` (deterministic SHA-256 hash of (flow id, src,
      dst) over the candidates at the minimum hop count), ``least_loaded``
      (minimise current max link occupancy) or ``adaptive`` (keep the ECMP
      choice unless its bottleneck exceeds the least-loaded one by more than
      ``hysteresis`` active channels);
    * ``hysteresis`` — the adaptive policy's divert threshold in channels
      (accepted and ignored by the other policies so the policy axis sweeps
      with one parameter surface).
    """

    policy: str = "ecmp"
    hysteresis: float = 1.0

    @classmethod
    def from_dict(cls, data: Any) -> "RoutingSpec":
        return cls(**_decode(cls, data, "network.routing", ROUTING_FIELDS))


@dataclass(frozen=True)
class NetworkSpec:
    """Network-level behaviour beyond fabric shape.

    The *presence* of a ``network`` section with a ``routing`` mapping
    switches load-balanced multi-path routing on: every channel open then
    runs the configured policy over the fabric's candidate paths and a
    ``route`` trace record precedes each ``channel_open``.  Scenarios
    without the section run exactly as before — single deterministic route
    per pair, unchanged spec hashes, byte-identical golden traces.
    """

    routing: Optional[RoutingSpec] = None

    @classmethod
    def from_dict(cls, data: Any) -> "NetworkSpec":
        routing = _decode(cls, data, "network", {}, "routing")["routing"]
        return cls(
            routing=RoutingSpec.from_dict(routing) if routing is not None else None
        )


RUNTIME_FIELDS = {
    "layout": FieldDecl(str, choices=tuple(LAYOUT_ALIASES)),
    "allocator": FieldDecl(str, choices=ALLOCATOR_NAMES),
    "routing": FieldDecl(str, choices=ROUTING_NAMES),
    "backend": FieldDecl(str, choices=BACKEND_NAMES),
    "max_events": FieldDecl(int, 1, nullable=True),
}


@dataclass(frozen=True)
class RuntimeSpec:
    """How the scenario executes: backend, layout, allocator, routing, limits."""

    layout: str = "home_base"
    allocator: str = "incremental"
    routing: str = "xy"
    backend: str = "fluid"
    max_events: Optional[int] = None

    @classmethod
    def from_dict(cls, data: Any) -> "RuntimeSpec":
        values = _decode(cls, data, "runtime", RUNTIME_FIELDS)
        values["layout"] = LAYOUT_ALIASES[values["layout"]]
        return cls(**values)


#: Top-level scenario keys (``extends`` is consumed by the loader).  The
#: ``noise``, ``traffic`` and ``network`` sections are optional: absent means
#: the fidelity pipeline (resp. the open-loop service mode, resp.
#: load-balanced multi-path routing) is off.
SECTION_KEYS = ("topology", "workload", "physics", "runtime", "noise", "traffic", "network")
TOP_LEVEL_KEYS = ("name", "description", "extends", *SECTION_KEYS)


@dataclass(frozen=True)
class ScenarioSpec:
    """One fully-resolved, validated scenario."""

    name: str
    topology: TopologySpec = field(default_factory=TopologySpec)
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    physics: PhysicsSpec = field(default_factory=PhysicsSpec)
    runtime: RuntimeSpec = field(default_factory=RuntimeSpec)
    #: Optional noise model; None keeps the fidelity pipeline off entirely.
    noise: Optional[NoiseSpec] = None
    #: Optional open-loop traffic; None keeps the scenario in batch mode.
    traffic: Optional[TrafficSpec] = None
    #: Optional network behaviour; None keeps single-path routing.
    network: Optional[NetworkSpec] = None
    description: str = ""

    @classmethod
    def from_dict(cls, data: Any, *, name: Optional[str] = None) -> "ScenarioSpec":
        """Validate a scenario mapping (already inheritance-resolved)."""
        data = _require_mapping(data, "scenario")
        if "extends" in data:
            raise ScenarioError(
                "unresolved 'extends' in scenario mapping; resolve it through "
                "repro.scenarios.loader before validation"
            )
        _reject_unknown(data, TOP_LEVEL_KEYS, "scenario")
        resolved_name = data.get("name", name)
        if not isinstance(resolved_name, str) or not resolved_name.strip():
            raise ScenarioError(f"scenario.name must be a non-empty string, got {resolved_name!r}")
        description = data.get("description", "")
        if not isinstance(description, str):
            raise ScenarioError(f"scenario.description must be a string, got {description!r}")
        # An explicit ``noise: null`` means the same as an absent section:
        # fidelity accounting off.  An *empty* mapping enables it with the
        # default physics, so ``noise: {}`` is the minimal opt-in.
        noise = data.get("noise")
        # Same convention for ``traffic``: null == absent == batch mode.
        traffic = data.get("traffic")
        # And for ``network``: null == absent == single-path routing.
        network = data.get("network")
        return cls(
            name=resolved_name.strip(),
            topology=TopologySpec.from_dict(data.get("topology")),
            workload=WorkloadSpec.from_dict(data.get("workload")),
            physics=PhysicsSpec.from_dict(data.get("physics")),
            runtime=RuntimeSpec.from_dict(data.get("runtime")),
            noise=NoiseSpec.from_dict(noise) if noise is not None else None,
            traffic=TrafficSpec.from_dict(traffic) if traffic is not None else None,
            network=NetworkSpec.from_dict(network) if network is not None else None,
            description=description,
        )

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form; ``from_dict`` round-trips it exactly.

        ``noise``, ``traffic`` and ``network`` are omitted when unset — and
        empty ``topology.options`` likewise — so specs predating the fidelity
        pipeline, the service mode and multi-path routing serialize (and hash
        — see :meth:`canonical_dict`) exactly as they always did.
        """
        payload = asdict(self)
        if self.noise is None:
            payload.pop("noise")
        if self.traffic is None:
            payload.pop("traffic")
        if self.network is None:
            payload.pop("network")
        if not self.topology.options:
            payload["topology"].pop("options")
        return payload

    def canonical_dict(self) -> Dict[str, Any]:
        """The dict form minus the cosmetic fields (name, description).

        This is what result-cache keys and :attr:`spec_hash` are computed
        from, so renaming or re-describing a scenario neither invalidates nor
        duplicates its cached results.
        """
        payload = self.to_dict()
        payload.pop("name")
        payload.pop("description")
        return payload

    def with_name(self, name: str) -> "ScenarioSpec":
        return replace(self, name=name)

    def with_backend(self, backend: str) -> "ScenarioSpec":
        """The same scenario on a different transport backend (validated)."""
        runtime = RuntimeSpec.from_dict({**asdict(self.runtime), "backend": backend})
        return replace(self, runtime=runtime)

    def with_noise(self, noise: Optional[Mapping[str, Any]]) -> "ScenarioSpec":
        """The same scenario with a (validated) noise section.

        ``None`` switches fidelity accounting off; a mapping — even an empty
        one — switches it on with the given overrides.
        """
        return replace(
            self, noise=NoiseSpec.from_dict(noise) if noise is not None else None
        )

    def with_traffic(self, traffic: Optional[Mapping[str, Any]]) -> "ScenarioSpec":
        """The same scenario with a (validated) traffic section.

        ``None`` returns the scenario to batch mode; a mapping switches it to
        open-loop service mode.
        """
        return replace(
            self, traffic=TrafficSpec.from_dict(traffic) if traffic is not None else None
        )

    def with_network(self, network: Optional[Mapping[str, Any]]) -> "ScenarioSpec":
        """The same scenario with a (validated) network section.

        ``None`` returns the scenario to single-path routing; a mapping with
        a ``routing`` key switches load-balanced multi-path routing on.
        """
        return replace(
            self, network=NetworkSpec.from_dict(network) if network is not None else None
        )

    @property
    def spec_hash(self) -> str:
        """Stable short hash of everything that affects the result.

        The name and description are cosmetic, so two differently-named specs
        describing the same experiment share a hash (and a cache slot).
        """
        from ..runtime.cache import parameter_hash

        return parameter_hash(self.canonical_dict())

    @property
    def label(self) -> str:
        topo = self.topology
        size = f"{topo.width}" if topo.height in (None, 1) else f"{topo.width}x{topo.height}"
        if topo.kind in ("mesh", "torus") and topo.height is None:
            size = f"{topo.width}x{topo.width}"
        return (
            f"{topo.kind}[{size}] {self.workload.kind}({self.workload.num_qubits}) "
            f"{self.runtime.layout} t={self.physics.teleporters} "
            f"g={self.physics.generators} p={self.physics.purifiers}"
        )


def apply_overrides(data: Mapping[str, Any], overrides: Mapping[str, Any]) -> Dict[str, Any]:
    """Apply dotted-path overrides to a scenario mapping.

    ``{"topology.kind": "ring"}`` sets ``data["topology"]["kind"]``; missing
    intermediate mappings are created.  Returns a new deep-merged dict.
    """
    result = deep_merge({}, data)
    for dotted, value in overrides.items():
        if not isinstance(dotted, str) or not dotted.strip():
            raise ScenarioError(f"override keys must be dotted strings, got {dotted!r}")
        parts = [p for p in dotted.split(".") if p]
        cursor: Dict[str, Any] = result
        for part in parts[:-1]:
            nxt = cursor.get(part)
            if nxt is None:
                nxt = {}
                cursor[part] = nxt
            elif not isinstance(nxt, dict):
                raise ScenarioError(
                    f"override {dotted!r} descends into non-mapping {part!r}"
                )
            cursor = nxt
        cursor[parts[-1]] = value
    return result


def deep_merge(base: Mapping[str, Any], override: Mapping[str, Any]) -> Dict[str, Any]:
    """Recursively merge ``override`` into ``base`` (mappings merge, rest replace)."""
    result: Dict[str, Any] = {}
    for key, value in base.items():
        result[key] = deep_merge({}, value) if isinstance(value, Mapping) else value
    for key, value in override.items():
        current = result.get(key)
        if isinstance(current, Mapping) and isinstance(value, Mapping):
            result[key] = deep_merge(current, value)
        elif isinstance(value, Mapping):
            result[key] = deep_merge({}, value)
        else:
            result[key] = value
    return result
