"""Deterministic open-loop traffic generation.

Every request the service mode will ever see is generated *up front* from the
traffic spec: per-tenant arrival times, request sizes and endpoint pairs are
drawn from named SHA-256 substreams (:mod:`repro.workloads.rng`), then the
per-tenant streams are merged into one globally-ordered request list.  Three
properties follow:

* **Bitwise determinism** — the same spec yields the same request stream in
  every process, on every machine, on either transport backend; the verify
  harness's traffic-parity check rests on this.
* **Stream isolation** — each tenant's arrivals, sizes and endpoints come
  from unrelated substreams, so adding a tenant (or changing one tenant's
  size distribution) never perturbs another tenant's draws.
* **Open-loop offered load** — arrivals do not depend on service times, so
  the offered side of every steady-state metric is a property of the spec
  alone, exactly as in an open-loop traffic generator.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence

from ..errors import ScenarioError
from ..network.geometry import Coordinate
from ..workloads.rng import substream_rng

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..scenarios.spec import TenantSpec, TrafficSpec


@dataclass(frozen=True)
class ServiceRequest:
    """One open-loop request: open ``channels`` back-to-back channels.

    A request models a tenant asking the interconnect for an end-to-end
    entanglement circuit between two T' nodes; its "size" is the number of
    sequential channel instances servicing it takes, so heavy-tailed size
    distributions translate directly into heavy-tailed service demands.
    """

    request_id: int
    tenant: str
    arrival_us: float
    channels: int
    source: Coordinate
    dest: Coordinate
    priority: int = 0
    target_fidelity: Optional[float] = None


def _interarrival_us(tenant: "TenantSpec", rng: random.Random, now_us: float) -> float:
    """Next interarrival gap for ``tenant`` with the clock at ``now_us``."""
    process = tenant.arrival_process
    mean = tenant.mean_interarrival_us
    if process == "fixed":
        return mean
    if process == "poisson":
        return rng.expovariate(1.0 / mean)
    if process == "mmpp":
        # Two-state Markov-modulated Poisson with deterministic phase
        # switching: bursts of ``burst_factor``-times-faster arrivals
        # alternate with equally slower quiet phases every ``phase_us``,
        # preserving the long-run mean rate.
        burst_phase = int(now_us // tenant.phase_us) % 2 == 0
        phase_mean = mean / tenant.burst_factor if burst_phase else mean * tenant.burst_factor
        return rng.expovariate(1.0 / phase_mean)
    raise ScenarioError(f"unknown arrival process {process!r}")


def _request_channels(tenant: "TenantSpec", rng: random.Random) -> int:
    """Number of channels one request opens, per the tenant's size distribution."""
    if tenant.size_dist == "constant":
        return tenant.channels
    if tenant.size_dist == "pareto":
        # Heavy tail scaled by the nominal size, floored at one channel and
        # capped so a single draw cannot monopolise the run.  The cap applies
        # before int(): a tiny alpha draws inf.
        drawn = int(min(tenant.channels * rng.paretovariate(tenant.alpha), tenant.max_channels))
        return max(1, drawn)
    raise ScenarioError(f"unknown size distribution {tenant.size_dist!r}")


def _endpoints(
    nodes: Sequence[Coordinate], rng: random.Random
) -> "tuple[Coordinate, Coordinate]":
    """A uniformly random ordered pair of *distinct* T' nodes."""
    source = nodes[rng.randrange(len(nodes))]
    dest = nodes[rng.randrange(len(nodes))]
    while dest == source:
        dest = nodes[rng.randrange(len(nodes))]
    return source, dest


def tenant_requests(
    name: str,
    tenant: "TenantSpec",
    nodes: Sequence[Coordinate],
    *,
    duration_us: float,
    seed: int,
) -> List[ServiceRequest]:
    """One tenant's request stream over ``[0, duration_us)``.

    Request ids are provisional (per-tenant arrival index); the merge in
    :func:`generate_requests` reassigns them globally.  Arrival, size and
    endpoint draws come from three isolated substreams addressed by
    ``(purpose, tenant name, seed)``.
    """
    arrival_rng = substream_rng("service.arrivals", name, seed=seed)
    size_rng = substream_rng("service.sizes", name, seed=seed)
    endpoint_rng = substream_rng("service.endpoints", name, seed=seed)
    requests: List[ServiceRequest] = []
    now_us = 0.0
    while True:
        now_us += _interarrival_us(tenant, arrival_rng, now_us)
        if now_us >= duration_us:
            break
        source, dest = _endpoints(nodes, endpoint_rng)
        requests.append(
            ServiceRequest(
                request_id=len(requests),
                tenant=name,
                arrival_us=now_us,
                channels=_request_channels(tenant, size_rng),
                source=source,
                dest=dest,
                priority=tenant.priority,
                target_fidelity=tenant.target_fidelity,
            )
        )
    return requests


def generate_requests(
    traffic: "TrafficSpec", nodes: Sequence[Coordinate]
) -> List[ServiceRequest]:
    """The full, globally-ordered request stream a traffic spec describes.

    Tenants are generated independently (in sorted name order) and merged by
    ``(arrival time, tenant name, per-tenant index)`` — a total order, so the
    merged stream and the global request ids are deterministic even when two
    tenants produce arrivals at the same instant.
    """
    nodes = list(nodes)
    if len(nodes) < 2:
        raise ScenarioError(
            f"service mode needs at least 2 T' nodes for distinct endpoints, got {len(nodes)}"
        )
    merged: List[ServiceRequest] = []
    for name in sorted(traffic.tenants):
        merged.extend(
            tenant_requests(
                name,
                traffic.tenants[name],
                nodes,
                duration_us=traffic.duration_us,
                seed=traffic.seed,
            )
        )
    merged.sort(key=lambda r: (r.arrival_us, r.tenant, r.request_id))
    return [
        ServiceRequest(
            request_id=index,
            tenant=request.tenant,
            arrival_us=request.arrival_us,
            channels=request.channels,
            source=request.source,
            dest=request.dest,
            priority=request.priority,
            target_fidelity=request.target_fidelity,
        )
        for index, request in enumerate(merged)
    ]
