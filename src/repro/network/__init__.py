"""Mesh interconnect substrate: topology, routing, allocation and layouts.

Models the structural side of Section 3 and Section 5 of the paper: a 2-D
mesh of teleporter (T') nodes joined by virtual wires (G nodes on every link),
with corrector (C), purifier (P) and logical-qubit (LQ) sites attached.  The
router's X/Y teleporter-set split (Figure 6) is simulated by
:mod:`repro.sim.teleporter`.
"""

from .geometry import Coordinate, manhattan_distance
from .nodes import ResourceAllocation
from .topology import MeshTopology
from .fabrics import build_topology
from .routing import DimensionOrder, Path, dimension_order_route
from .layout import HomeBaseLayout, MachineLayout, MobileQubitLayout

__all__ = [
    "Coordinate",
    "DimensionOrder",
    "HomeBaseLayout",
    "MachineLayout",
    "MeshTopology",
    "MobileQubitLayout",
    "Path",
    "ResourceAllocation",
    "build_topology",
    "dimension_order_route",
    "manhattan_distance",
]
