"""Named fabric builders: line, ring, mesh and torus topologies.

The scenario engine describes machines declaratively, so topologies are
constructed through a registry of named builders rather than by calling
:class:`~repro.network.topology.MeshTopology` directly.  Every builder takes
the same keyword surface — ``width``, ``height``, ``allocation``,
``cells_per_hop`` — and returns a configured topology; 1-D fabrics (line,
ring) reject an explicit height other than 1.

New fabrics register themselves with :func:`register_topology`, naming any
keyword options they take beyond that surface::

    @register_topology("my_fabric", options=("hosts_per_switch",))
    def _build_my_fabric(width, height, *, allocation=None, cells_per_hop=600,
                         hosts_per_switch=1):
        ...
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..errors import ConfigurationError
from .bigfabric import DragonflyTopology, FatTreeTopology, LeafSpineTopology
from .nodes import ResourceAllocation
from .topology import MeshTopology

#: A builder maps (width, height, allocation, cells_per_hop) to a topology.
TopologyBuilder = Callable[..., MeshTopology]

_BUILDERS: Dict[str, TopologyBuilder] = {}
#: The builder-specific keyword options each fabric accepts.
_OPTIONS: Dict[str, Tuple[str, ...]] = {}


def register_topology(
    name: str, *, options: Tuple[str, ...] = ()
) -> Callable[[TopologyBuilder], TopologyBuilder]:
    """Class/function decorator adding a builder to the fabric registry.

    ``options`` names the keyword options the builder takes beyond the
    shared surface; anything else is rejected before the builder runs.
    """
    key = name.strip().lower()
    if not key:
        raise ConfigurationError("a topology builder needs a non-empty name")

    def _register(builder: TopologyBuilder) -> TopologyBuilder:
        if key in _BUILDERS:
            raise ConfigurationError(f"topology builder {key!r} is already registered")
        _BUILDERS[key] = builder
        _OPTIONS[key] = tuple(options)
        return builder

    return _register


def list_topologies() -> List[str]:
    """Registered fabric names, sorted."""
    return sorted(_BUILDERS)


def _registered(kind: str) -> str:
    key = (kind or "").strip().lower()
    if key not in _BUILDERS:
        raise ConfigurationError(
            f"unknown topology kind {kind!r}; known: {list_topologies()}"
        )
    return key


def topology_options(kind: str) -> Tuple[str, ...]:
    """The builder-specific options a fabric accepts."""
    return _OPTIONS[_registered(kind)]


def build_topology(
    kind: str,
    width: int,
    height: Optional[int] = None,
    *,
    allocation: Optional[ResourceAllocation] = None,
    cells_per_hop: int = 600,
    **options: int,
) -> MeshTopology:
    """Build a fabric by registry name.

    ``height`` defaults to ``width`` for 2-D fabrics and to 1 for 1-D ones.
    Extra keyword ``options`` (e.g. ``hosts_per_leaf`` for ``leaf_spine``)
    pass through to the builder; one the fabric did not register (see
    :func:`topology_options`) raises :class:`ConfigurationError`.
    """
    key = _registered(kind)
    unknown = sorted(set(options) - set(_OPTIONS[key]))
    if unknown:
        raise ConfigurationError(
            f"topology {key!r} does not take options {unknown}; "
            f"accepted: {sorted(_OPTIONS[key]) or 'none'}"
        )
    return _BUILDERS[key](
        width, height, allocation=allocation, cells_per_hop=cells_per_hop, **options
    )


def _require_flat(kind: str, width: int, height: Optional[int]) -> None:
    if height not in (None, 1):
        raise ConfigurationError(
            f"a {kind} is one-dimensional; height must be 1 or omitted, got {height}"
        )
    if width < 2:
        raise ConfigurationError(f"a {kind} needs at least 2 nodes, got {width}")


@register_topology("line")
def _build_line(
    width: int,
    height: Optional[int] = None,
    *,
    allocation: Optional[ResourceAllocation] = None,
    cells_per_hop: int = 600,
) -> MeshTopology:
    """A 1-D chain of T' nodes (the Figure 9 chained-teleport geometry)."""
    _require_flat("line", width, height)
    return MeshTopology(width, 1, allocation, cells_per_hop=cells_per_hop)


@register_topology("ring")
def _build_ring(
    width: int,
    height: Optional[int] = None,
    *,
    allocation: Optional[ResourceAllocation] = None,
    cells_per_hop: int = 600,
) -> MeshTopology:
    """A 1-D chain closed into a cycle; routes take the shorter way around."""
    _require_flat("ring", width, height)
    if width < 3:
        raise ConfigurationError(f"a ring needs at least 3 nodes, got {width}")
    return MeshTopology(width, 1, allocation, cells_per_hop=cells_per_hop, wrap_x=True)


@register_topology("mesh")
def _build_mesh(
    width: int,
    height: Optional[int] = None,
    *,
    allocation: Optional[ResourceAllocation] = None,
    cells_per_hop: int = 600,
) -> MeshTopology:
    """The paper's 2-D mesh (square when height is omitted)."""
    return MeshTopology(width, height or width, allocation, cells_per_hop=cells_per_hop)


@register_topology("torus")
def _build_torus(
    width: int,
    height: Optional[int] = None,
    *,
    allocation: Optional[ResourceAllocation] = None,
    cells_per_hop: int = 600,
) -> MeshTopology:
    """A 2-D mesh with both dimensions wrapped around."""
    height = height or width
    if width < 3 or height < 3:
        raise ConfigurationError(
            f"a torus needs both dimensions >= 3, got {width}x{height}"
        )
    return MeshTopology(
        width,
        height,
        allocation,
        cells_per_hop=cells_per_hop,
        wrap_x=True,
        wrap_y=True,
    )


@register_topology("fat_tree")
def _build_fat_tree(
    width: int,
    height: Optional[int] = None,
    *,
    allocation: Optional[ResourceAllocation] = None,
    cells_per_hop: int = 600,
) -> MeshTopology:
    """A k-ary fat-tree; ``width`` is the arity k (k^3/4 hosts)."""
    if height not in (None, 4):
        raise ConfigurationError(
            f"a fat-tree always has 4 tiers; height must be 4 or omitted, got {height}"
        )
    return FatTreeTopology(width, allocation, cells_per_hop=cells_per_hop)


@register_topology("leaf_spine", options=("hosts_per_leaf",))
def _build_leaf_spine(
    width: int,
    height: Optional[int] = None,
    *,
    allocation: Optional[ResourceAllocation] = None,
    cells_per_hop: int = 600,
    hosts_per_leaf: Optional[int] = None,
) -> MeshTopology:
    """A two-tier Clos; ``width`` = leaves, ``height`` = spines.

    ``hosts_per_leaf`` defaults to the spine count, i.e. an oversubscription
    ratio of 1.0; raise it for oversubscribed fabrics.
    """
    spines = height if height is not None else max(width // 2, 1)
    hosts = hosts_per_leaf if hosts_per_leaf is not None else spines
    return LeafSpineTopology(width, spines, hosts, allocation, cells_per_hop=cells_per_hop)


@register_topology("dragonfly", options=("hosts_per_router",))
def _build_dragonfly(
    width: int,
    height: Optional[int] = None,
    *,
    allocation: Optional[ResourceAllocation] = None,
    cells_per_hop: int = 600,
    hosts_per_router: int = 1,
) -> MeshTopology:
    """A dragonfly; ``width`` = groups, ``height`` = routers per group."""
    routers = height if height is not None else max(width // 2, 1)
    return DragonflyTopology(
        width, routers, hosts_per_router, allocation, cells_per_hop=cells_per_hop
    )
