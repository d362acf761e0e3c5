"""repro: Interconnection Networks for Scalable Quantum Computers (ISCA 2006).

A reproduction of Isailovic, Patel, Whitney and Kubiatowicz's study of EPR-pair
distribution networks for ion-trap quantum computers.  The package is layered:

* :mod:`repro.physics` — ion-trap fidelity/timing models, purification protocols.
* :mod:`repro.core` — reliable quantum channels: distribution methodologies,
  purification placement, EPR budgets, the latency crossover and channel planning.
* :mod:`repro.network` — the mesh of teleporter nodes, dimension-order routing,
  the router micro-architecture and machine layouts.
* :mod:`repro.sim` — the event-driven communication simulator.
* :mod:`repro.workloads` — QFT / Shor-kernel instruction streams.
* :mod:`repro.analysis` — regeneration of every table and figure in the paper.
* :mod:`repro.service` — open-loop traffic generation, admission control and
  request scheduling: the machine as a multi-tenant EPR-distribution service.
* :mod:`repro.runtime` — parallel experiment runner, on-disk result cache and
  the ``python -m repro`` command-line entry point.
* :mod:`repro.api` — the **stable public facade**: ``load_scenario``, ``run``,
  ``serve`` and ``sweep``.  External code should import from here; everything
  deeper is internal and rearranged freely between releases.

Quickstart::

    from repro import api

    result = api.run(api.load_scenario("smoke"))
    print(result.mode, result.makespan_us)
"""

from .errors import (
    ConfigurationError,
    FidelityError,
    InfeasibleError,
    ReproError,
    RoutingError,
    SchedulingError,
    SimulationError,
)
from .physics import (
    BellDiagonalState,
    ErrorRates,
    IonTrapParameters,
    OperationTimes,
    THRESHOLD_ERROR,
    THRESHOLD_FIDELITY,
    get_protocol,
)
from .core import (
    ChannelBudget,
    ChannelPlanner,
    ChannelReport,
    EPRBudgetModel,
    PurificationPlacement,
    QuantumChannel,
    STEANE_LEVEL_2,
    between_teleports,
    crossover_distance_cells,
    endpoint_only,
    pairs_per_logical_communication,
    standard_schemes,
    virtual_wire,
)
from .network import (
    Coordinate,
    HomeBaseLayout,
    MeshTopology,
    MobileQubitLayout,
    ResourceAllocation,
    dimension_order_route,
)
from .sim import CommunicationSimulator, QuantumMachine
from .workloads import (
    InstructionStream,
    modular_exponentiation_stream,
    modular_multiplication_stream,
    qft_stream,
    shor_stream,
)

__version__ = "1.0.0"

__all__ = [
    "BellDiagonalState",
    "ChannelBudget",
    "ChannelPlanner",
    "ChannelReport",
    "CommunicationSimulator",
    "ConfigurationError",
    "Coordinate",
    "EPRBudgetModel",
    "ErrorRates",
    "FidelityError",
    "HomeBaseLayout",
    "InfeasibleError",
    "InstructionStream",
    "IonTrapParameters",
    "MeshTopology",
    "MobileQubitLayout",
    "OperationTimes",
    "PurificationPlacement",
    "QuantumChannel",
    "QuantumMachine",
    "ReproError",
    "ResourceAllocation",
    "RoutingError",
    "STEANE_LEVEL_2",
    "SchedulingError",
    "SimulationError",
    "THRESHOLD_ERROR",
    "THRESHOLD_FIDELITY",
    "between_teleports",
    "crossover_distance_cells",
    "dimension_order_route",
    "endpoint_only",
    "get_protocol",
    "modular_exponentiation_stream",
    "modular_multiplication_stream",
    "pairs_per_logical_communication",
    "qft_stream",
    "shor_stream",
    "standard_schemes",
    "virtual_wire",
    "__version__",
]
