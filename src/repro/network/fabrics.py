"""Named fabric builders: line, ring, mesh, torus and the hierarchical fabrics.

The scenario engine describes machines declaratively, so topologies are
constructed by name through :data:`FABRICS` rather than by calling
:class:`~repro.network.topology.MeshTopology` directly.  Every builder takes
the same keyword surface — ``width``, ``height``, ``allocation``,
``cells_per_hop`` — and returns a configured topology; 1-D fabrics (line,
ring) reject an explicit height other than 1.  A fabric's entry also names
the keyword options its builder takes beyond that surface.
"""

from __future__ import annotations

from typing import Callable, Dict, NamedTuple, Optional, Tuple

from ..errors import ConfigurationError
from .bigfabric import DragonflyTopology, FatTreeTopology, LeafSpineTopology
from .nodes import ResourceAllocation
from .topology import MeshTopology

#: A builder maps (width, height, allocation, cells_per_hop) to a topology.
TopologyBuilder = Callable[..., MeshTopology]


class Fabric(NamedTuple):
    """A fabric's builder and the options it takes beyond the shared surface."""

    build: TopologyBuilder
    options: Tuple[str, ...] = ()


def build_topology(
    kind: str,
    width: int,
    height: Optional[int] = None,
    *,
    allocation: Optional[ResourceAllocation] = None,
    cells_per_hop: int = 600,
    **options: int,
) -> MeshTopology:
    """Build a fabric by its :data:`FABRICS` name.

    ``height`` defaults to ``width`` for 2-D fabrics and to 1 for 1-D ones.
    Extra keyword ``options`` (e.g. ``hosts_per_leaf`` for ``leaf_spine``)
    pass through to the builder; one the fabric does not take raises
    :class:`ConfigurationError`.
    """
    key = (kind or "").strip().lower()
    fabric = FABRICS.get(key)
    if fabric is None:
        raise ConfigurationError(
            f"unknown topology kind {kind!r}; known: {sorted(FABRICS)}"
        )
    unknown = sorted(set(options) - set(fabric.options))
    if unknown:
        raise ConfigurationError(
            f"topology {key!r} does not take options {unknown}; "
            f"accepted: {sorted(fabric.options) or 'none'}"
        )
    return fabric.build(
        width, height, allocation=allocation, cells_per_hop=cells_per_hop, **options
    )


def _require_flat(kind: str, width: int, height: Optional[int]) -> None:
    if height not in (None, 1):
        raise ConfigurationError(
            f"a {kind} is one-dimensional; height must be 1 or omitted, got {height}"
        )
    if width < 2:
        raise ConfigurationError(f"a {kind} needs at least 2 nodes, got {width}")


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


def _build_mesh(
    width: int,
    height: Optional[int] = None,
    *,
    allocation: Optional[ResourceAllocation] = None,
    cells_per_hop: int = 600,
) -> MeshTopology:
    """The paper's 2-D mesh (square when height is omitted)."""
    return MeshTopology(width, height or width, allocation, cells_per_hop=cells_per_hop)


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


#: The fabrics, by the name ``topology.kind`` selects.
FABRICS: Dict[str, Fabric] = {
    "line": Fabric(_build_line),
    "ring": Fabric(_build_ring),
    "mesh": Fabric(_build_mesh),
    "torus": Fabric(_build_torus),
    "fat_tree": Fabric(_build_fat_tree),
    "leaf_spine": Fabric(_build_leaf_spine, ("hosts_per_leaf",)),
    "dragonfly": Fabric(_build_dragonfly, ("hosts_per_router",)),
}
