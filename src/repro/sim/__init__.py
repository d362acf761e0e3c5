"""Event-driven communication simulator (paper Section 5).

The paper built a Java event-driven simulator to study how resource allocation
(teleporters *t*, generators *g*, queue purifiers *p*) and contention affect
the runtime of communication-heavy kernels.  This subpackage is the Python
equivalent, at two granularities, each a
:class:`~repro.sim.transport.TransportBackend` selectable by name:

* **``fluid``** (:mod:`repro.sim.flow`) — every active logical communication
  is a fluid flow whose rate is limited by its fair share of the teleporter,
  generator and purifier bandwidth along its path.  This is the mode used to
  regenerate Figure 16 on large grids.
* **``detailed``** (:mod:`repro.sim.detailed`) — individual EPR pairs are
  generated, chained-teleported hop by hop and queue-purified as discrete
  events, with teleporter-set/storage/purifier queueing shared between
  concurrent channels.  Exact but much slower; ``repro.verify`` uses it to
  validate the fluid model end to end.

:class:`repro.sim.simulator.CommunicationSimulator` is the public entry
point; its ``backend`` argument selects the granularity.  On runs with a
noise model both backends report the fidelity each channel delivered, read
from the channel's per-distance EPR budget
(:class:`~repro.core.budget.ChannelBudget`): its arrival and delivered pair
states and its purification level.
"""

from .engine import Event, SimulationEngine
from .resources import ResourcePool, ServiceCenter
from .machine import QuantumMachine
from .results import ChannelRecord, OperationRecord, SimulationResult
from .simulator import CommunicationSimulator, create_transport
from .scheduler import InstructionScheduler
from .qpurifier import QueuePurifierModel
from .transport import TransportBackend

__all__ = [
    "ChannelRecord",
    "CommunicationSimulator",
    "Event",
    "InstructionScheduler",
    "OperationRecord",
    "QuantumMachine",
    "QueuePurifierModel",
    "ResourcePool",
    "ServiceCenter",
    "SimulationEngine",
    "SimulationResult",
    "TransportBackend",
    "create_transport",
]
