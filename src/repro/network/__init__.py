"""Mesh interconnect substrate: topology, routing, routers and layouts.

Models the structural side of Section 3 and Section 5 of the paper: a 2-D
mesh of teleporter (T') nodes joined by virtual wires (G nodes on every link),
with corrector (C), purifier (P) and logical-qubit (LQ) sites attached.
"""

from .geometry import Coordinate, manhattan_distance
from .nodes import (
    GeneratorSpec,
    LogicalQubitSite,
    NodeKind,
    PurifierSpec,
    ResourceAllocation,
    TeleporterSpec,
)
from .topology import MeshTopology
from .fabrics import build_topology, list_topologies, register_topology
from .routing import DimensionOrder, Path, dimension_order_route
from .router import QuantumRouter, RouterPort
from .layout import HomeBaseLayout, MachineLayout, MobileQubitLayout

__all__ = [
    "Coordinate",
    "DimensionOrder",
    "GeneratorSpec",
    "HomeBaseLayout",
    "LogicalQubitSite",
    "MachineLayout",
    "MeshTopology",
    "MobileQubitLayout",
    "NodeKind",
    "Path",
    "PurifierSpec",
    "QuantumRouter",
    "ResourceAllocation",
    "RouterPort",
    "TeleporterSpec",
    "build_topology",
    "dimension_order_route",
    "list_topologies",
    "manhattan_distance",
    "register_topology",
]
