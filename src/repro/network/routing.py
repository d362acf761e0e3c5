"""Dimension-order routing on the mesh (paper Sections 3.2 and 5).

The paper's scheduler uses dimension-order (XY) routing: a path first travels
along the X dimension to the destination column, then along Y to the
destination row.  The router design (Figure 6) mirrors this with separate X
and Y teleporter sets and a single turn per path.

:class:`Path` captures an ordered list of T' nodes plus derived properties the
budget and simulation layers need (hop count, traversed links, midpoint).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from enum import Enum
from typing import Callable, ClassVar, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Type, overload

from ..errors import ConfigurationError, RoutingError
from .geometry import Coordinate
from .topology import LinkId, MeshTopology


class DimensionOrder(Enum):
    """Which dimension is routed first."""

    XY = "xy"
    YX = "yx"


@dataclass(frozen=True)
class Path:
    """An ordered sequence of T' nodes from source to destination.

    ``wraps`` declares the wrap-around extents of the fabric the path was
    routed on — ``(width, 0)`` for a ring, ``(width, height)`` for a torus,
    ``(0, 0)`` (the default) for non-wrapping meshes.  A step is only valid
    when geometrically adjacent or when it crosses the declared dimension's
    exact boundary link (node 0 to node extent-1); anything else — including
    interior jumps on a wrapping fabric — is rejected.

    ``express`` paths travel a hierarchical fabric (fat-tree, leaf-spine,
    dragonfly), whose steps are adjacent by construction of the fabric graph
    rather than by grid geometry; geometric step validation is skipped and
    the traversed :class:`LinkId`\\ s are built as express links.  The fabric
    enumerating the path guarantees every step is one of its registered
    links (a property test pins this).
    """

    nodes: Tuple[Coordinate, ...]
    wraps: Tuple[int, int] = (0, 0)
    express: bool = False

    def __post_init__(self) -> None:
        if len(self.nodes) < 1:
            raise RoutingError("a path needs at least one node")
        for a, b in zip(self.nodes, self.nodes[1:]):
            if a == b:
                raise RoutingError(f"path repeats node {a} on consecutive steps")
            if self.express:
                continue
            if a.manhattan(b) != 1 and not self._is_wrap_link(a, b):
                raise RoutingError(f"path nodes {a} and {b} are not adjacent")

    def _is_wrap_link(self, a: Coordinate, b: Coordinate) -> bool:
        if a.y == b.y:
            extent, low, high = self.wraps[0], min(a.x, b.x), max(a.x, b.x)
        elif a.x == b.x:
            extent, low, high = self.wraps[1], min(a.y, b.y), max(a.y, b.y)
        else:
            return False
        return extent >= 3 and low == 0 and high == extent - 1

    @property
    def source(self) -> Coordinate:
        return self.nodes[0]

    @property
    def destination(self) -> Coordinate:
        return self.nodes[-1]

    @property
    def hops(self) -> int:
        """Number of links traversed."""
        return len(self.nodes) - 1

    @cached_property
    def links(self) -> Tuple[LinkId, ...]:
        """The virtual-wire links traversed, in order (built once per path)."""
        return tuple(
            LinkId(a, b, express=self.express)
            for a, b in zip(self.nodes, self.nodes[1:])
        )

    def midpoint_node(self) -> Coordinate:
        """Node nearest the middle of the path (where the seed G node sits)."""
        return self.nodes[len(self.nodes) // 2]

    @property
    def stable_name(self) -> str:
        """Canonical serialization-stable string form: ``(x,y)->(x,y)->…``.

        The ``route`` trace record carries the chosen path in this form (the
        payload codec round-trips one level of tuples only, so a flat string
        is the schema-safe encoding), making the format a golden-fixture
        contract like :attr:`LinkId.stable_name`.
        """
        return "->".join(f"({n.x},{n.y})" for n in self.nodes)

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self):
        return iter(self.nodes)


def _axis_step(current: int, target: int, extent: int, wrap: bool) -> int:
    """Direction (+1/-1) to move ``current`` toward ``target`` on one axis.

    On a wrapping axis the shorter way around wins; ties go forward so the
    route is deterministic.
    """
    if not wrap:
        return 1 if target > current else -1
    forward = (target - current) % extent
    backward = (current - target) % extent
    return 1 if forward <= backward else -1


def dimension_order_route(
    source: Coordinate,
    destination: Coordinate,
    topology: Optional[MeshTopology] = None,
    *,
    order: DimensionOrder = DimensionOrder.XY,
) -> Path:
    """Compute the dimension-order path between two T' nodes.

    When a topology is given, both endpoints are validated against it and its
    wrap flags are honoured: on a ring or torus the walk takes the shorter
    way around, stepping across the wrap link where that is cheaper.
    """
    wrap_x = wrap_y = False
    width = height = 0
    if topology is not None:
        topology.validate_node(source)
        topology.validate_node(destination)
        wrap_x, wrap_y = topology.wrap_x, topology.wrap_y
        width, height = topology.width, topology.height
    nodes: List[Coordinate] = [source]
    current = source

    def _walk_x(target_x: int) -> None:
        nonlocal current
        if current.x == target_x:
            return
        step = _axis_step(current.x, target_x, width, wrap_x)
        while current.x != target_x:
            new_x = current.x + step
            if wrap_x:
                new_x %= width
            current = Coordinate(new_x, current.y)
            nodes.append(current)

    def _walk_y(target_y: int) -> None:
        nonlocal current
        if current.y == target_y:
            return
        step = _axis_step(current.y, target_y, height, wrap_y)
        while current.y != target_y:
            new_y = current.y + step
            if wrap_y:
                new_y %= height
            current = Coordinate(current.x, new_y)
            nodes.append(current)

    if order is DimensionOrder.XY:
        _walk_x(destination.x)
        _walk_y(destination.y)
    else:
        _walk_y(destination.y)
        _walk_x(destination.x)
    return Path(tuple(nodes), wraps=(width if wrap_x else 0, height if wrap_y else 0))


class CandidatePaths(Sequence[Path]):
    """One endpoint pair's candidate paths, each built on first access.

    ``len()`` is the full candidate count and :attr:`equal_cost` holds the
    indices of every candidate at the minimum hop count (the class ECMP
    hashes onto); the fabric states both without building a path.  A
    cross-pod fat-tree pair has (k/2)² candidates and ECMP takes one, so the
    fabric hands over ``path_at(index)`` instead of the paths.  Each index is
    built once and memoized; iterating builds them all.
    """

    __slots__ = ("_path_at", "_paths", "equal_cost")

    def __init__(
        self, count: int, path_at: Callable[[int], Path], equal_cost: Sequence[int]
    ) -> None:
        self._path_at = path_at
        self._paths: List[Optional[Path]] = [None] * count
        self.equal_cost = equal_cost

    @classmethod
    def single(cls, path: Path) -> "CandidatePaths":
        """The one candidate of a single-path pair."""
        return cls(1, lambda _index: path, (0,))

    def __len__(self) -> int:
        return len(self._paths)

    @overload
    def __getitem__(self, index: int) -> Path: ...

    @overload
    def __getitem__(self, index: slice) -> List[Path]: ...

    def __getitem__(self, index: "int | slice") -> "Path | List[Path]":
        if isinstance(index, slice):
            return [self[i] for i in range(len(self._paths))[index]]
        path = self._paths[index]
        if path is None:
            index = range(len(self._paths))[index]
            path = self._paths[index] = self._path_at(index)
        return path

    def __iter__(self) -> Iterator[Path]:
        return (self[index] for index in range(len(self._paths)))


def candidate_paths(
    source: Coordinate,
    destination: Coordinate,
    topology: Optional[MeshTopology] = None,
    *,
    order: DimensionOrder = DimensionOrder.XY,
) -> CandidatePaths:
    """All candidate paths between two T' nodes, deterministic-first.

    Hierarchical fabrics (fat-tree, leaf-spine, dragonfly) expose an
    ``enumerate_paths`` hook returning every equal-cost and non-minimal
    candidate; everything else offers exactly one candidate — the
    dimension-order route — so the default (no load balancer) behaviour of
    taking ``candidates[0]`` is byte-identical to the historical routing on
    every mesh fabric.  The first candidate of a hierarchical enumeration is
    minimal, so ``candidates[0]`` is a sound policy-free default there too.
    """
    enumerate_hook = getattr(topology, "enumerate_paths", None)
    if enumerate_hook is not None:
        paths: CandidatePaths = enumerate_hook(source, destination)
        if not paths:
            raise RoutingError(f"no candidate paths between {source} and {destination}")
        return paths
    return CandidatePaths.single(
        dimension_order_route(source, destination, topology, order=order)
    )


def route_many(
    pairs: Sequence[Tuple[Coordinate, Coordinate]],
    topology: Optional[MeshTopology] = None,
    *,
    order: DimensionOrder = DimensionOrder.XY,
) -> List[Path]:
    """Route a batch of (source, destination) pairs."""
    return [dimension_order_route(s, d, topology, order=order) for s, d in pairs]


def link_load(paths: Sequence[Path]) -> dict:
    """Count how many paths traverse each link (contention estimate)."""
    load: dict = {}
    for path in paths:
        for link in path.links:
            load[link] = load.get(link, 0) + 1
    return load


def node_load(paths: Sequence[Path]) -> dict:
    """Count how many paths traverse each T' node (router sharing estimate)."""
    load: dict = {}
    for path in paths:
        for node in path.nodes:
            load[node] = load.get(node, 0) + 1
    return load


# -- load-balanced path selection ------------------------------------------------------
#
# On multi-path fabrics *which* candidate a channel takes decides contention
# as much as the max-min rate allocation does.  A LoadBalancer picks one
# candidate per channel open; the transport backend maintains the load view
# (active channels per link) and threads the choice through both simulation
# granularities, so a policy's decisions — and therefore its trace — are
# identical on the fluid and the detailed backend by construction.


def ecmp_hash(flow_id: int, source: Coordinate, destination: Coordinate) -> int:
    """Deterministic SHA-256 hash of (flow id, src, dst).

    Process- and platform-independent (no ``hash()`` randomisation), so an
    ECMP decision replayed in a subprocess, on another machine or by the
    other transport backend lands on the same candidate — a property test
    pins the cross-process round trip.
    """
    token = f"{flow_id}:{source.x},{source.y}:{destination.x},{destination.y}"
    digest = hashlib.sha256(token.encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big")


def _max_link_load(path: Path, link_loads: Mapping[LinkId, int]) -> int:
    """The path's bottleneck occupancy: max active channels on any link."""
    worst = 0
    for link in path.links:
        load = link_loads.get(link, 0)
        if load > worst:
            worst = load
    return worst


class LoadBalancer:
    """Chooses one candidate path per channel open.

    ``choose`` receives the flow id being opened, the endpoints, the fabric's
    candidates (a minimal one first) and the transport's load view — active
    channels per link — and returns the index of the candidate to take.
    Implementations must be deterministic in their inputs: both transport
    backends and every allocator replay the same choices, which is what
    keeps routing-policy runs diffable.
    """

    #: The policy's name in route records; subclasses override.
    policy: ClassVar[str] = "abstract"

    def choose(
        self,
        flow_id: int,
        source: Coordinate,
        destination: Coordinate,
        candidates: CandidatePaths,
        link_loads: Mapping[LinkId, int],
    ) -> int:
        raise NotImplementedError


class EcmpBalancer(LoadBalancer):
    """Equal-cost multi-path: hash the flow onto the equal-cost class.

    The class is every candidate at the minimum hop count
    (:attr:`CandidatePaths.equal_cost`): all of them on a fat tree or a
    leaf-spine; on a dragonfly the minimal route plus any Valiant detour that
    ties it (two global hops without a local one match one global hop plus a
    local one).  Oblivious to load; spreads flows uniformly over the class
    (uniform within ±20% over 1k flows — property-tested) and builds only the
    path it takes.
    """

    policy = "ecmp"

    def choose(
        self,
        flow_id: int,
        source: Coordinate,
        destination: Coordinate,
        candidates: CandidatePaths,
        link_loads: Mapping[LinkId, int],
    ) -> int:
        equal_cost = candidates.equal_cost
        return equal_cost[ecmp_hash(flow_id, source, destination) % len(equal_cost)]


class LeastLoadedBalancer(LoadBalancer):
    """Pick the candidate minimising current max link occupancy.

    Ties break toward fewer hops, then the lower candidate index, so the
    chosen path is never strictly dominated by another candidate (one with
    both lower bottleneck load and fewer hops) — property-tested.
    """

    policy = "least_loaded"

    def choose(
        self,
        flow_id: int,
        source: Coordinate,
        destination: Coordinate,
        candidates: CandidatePaths,
        link_loads: Mapping[LinkId, int],
    ) -> int:
        best_index = 0
        best_key: Tuple[int, int] | None = None
        for index, path in enumerate(candidates):
            key = (_max_link_load(path, link_loads), path.hops)
            if best_key is None or key < best_key:
                best_key = key
                best_index = index
        return best_index


class AdaptiveBalancer(LoadBalancer):
    """ECMP with a load escape hatch, re-evaluated at every channel open.

    The hash choice is kept unless its bottleneck link currently carries more
    than ``hysteresis`` channels beyond the least-loaded candidate's
    bottleneck; only then does the flow divert (possibly onto a non-minimal
    Valiant path on a dragonfly).  The hysteresis band keeps the policy from
    flapping between near-equal candidates while still shedding genuine
    hotspots.
    """

    policy = "adaptive"

    def __init__(self, hysteresis: float = 1.0) -> None:
        if not hysteresis >= 0.0:
            raise ConfigurationError(f"hysteresis must be >= 0, got {hysteresis}")
        self.hysteresis = hysteresis

    def choose(
        self,
        flow_id: int,
        source: Coordinate,
        destination: Coordinate,
        candidates: CandidatePaths,
        link_loads: Mapping[LinkId, int],
    ) -> int:
        hashed = EcmpBalancer().choose(flow_id, source, destination, candidates, link_loads)
        hashed_load = _max_link_load(candidates[hashed], link_loads)
        best = LeastLoadedBalancer().choose(
            flow_id, source, destination, candidates, link_loads
        )
        best_load = _max_link_load(candidates[best], link_loads)
        if hashed_load - best_load > self.hysteresis:
            return best
        return hashed


#: The load balancers, by the name ``network.routing.policy`` selects.
BALANCERS: Dict[str, Type[LoadBalancer]] = {
    "ecmp": EcmpBalancer,
    "least_loaded": LeastLoadedBalancer,
    "adaptive": AdaptiveBalancer,
}


def create_balancer(policy: str, *, hysteresis: Optional[float] = None) -> LoadBalancer:
    """Instantiate the balancer named ``policy``.

    ``hysteresis`` reaches only policies that take it (``adaptive``); passing
    it to the others is accepted and ignored, so one spec surface can sweep
    the policy axis without reshaping its parameters.
    """
    key = (policy or "").strip().lower()
    cls = BALANCERS.get(key)
    if cls is None:
        raise ConfigurationError(
            f"unknown load-balancing policy {policy!r}; known: {sorted(BALANCERS)}"
        )
    if cls is AdaptiveBalancer and hysteresis is not None:
        return AdaptiveBalancer(hysteresis=hysteresis)
    return cls()
