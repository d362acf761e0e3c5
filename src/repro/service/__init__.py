"""Open-loop service mode: traffic generation, admission and scheduling.

Batch mode answers "how long does this program take?"; this package answers
the ROADMAP's north-star question instead: how does the machine behave as a
*shared EPR-distribution service* under sustained load from many tenants?

The pieces compose the classic open-loop queueing pipeline:

* :mod:`repro.service.arrivals` — deterministic traffic generation: per-tenant
  arrival processes (Poisson, fixed-rate, bursty MMPP) and request-size
  distributions (constant, heavy-tail Pareto), every draw taken from the
  SHA-256 substream RNG service so a traffic spec reproduces bitwise across
  processes and machines;
* :mod:`repro.service.admission` — the :class:`AdmissionController`
  policies (always-admit, token-bucket, queue-bound) gating arrivals;
* :mod:`repro.service.schedulers` — the :class:`RequestScheduler`
  disciplines (FIFO, strict-priority, fidelity-target-aware) ordering
  admitted requests onto the transport;
* :mod:`repro.service.metrics` — :class:`SteadyStateCollector`, a trace-bus
  probe reducing the request-lifecycle records to steady-state service
  metrics: offered vs. delivered load, completion-time p50/p99, per-tenant
  queue depths and drop rates;
* :mod:`repro.service.engine` — :class:`ServiceSimulator`, which drives
  either :class:`~repro.sim.transport.TransportBackend` with the generated
  request stream and returns a :class:`ServiceView`, the service slot of a
  :class:`~repro.scenarios.run.RunResult`.

Layering: this package sits *beside* :mod:`repro.sim` (it imports the engine
and transports downward) and below :mod:`repro.scenarios` (which translates a
``traffic`` spec section into calls here).  Like ``repro.sim`` it is bound by
the determinism lint contract: no ambient randomness, ever.
"""

from .admission import AdmissionController, create_admission
from .arrivals import ServiceRequest, generate_requests
from .engine import ServiceSimulator, ServiceView
from .metrics import SteadyStateCollector, TenantStats, percentile
from .schedulers import RequestScheduler, create_scheduler

__all__ = [
    "AdmissionController",
    "RequestScheduler",
    "ServiceRequest",
    "ServiceSimulator",
    "ServiceView",
    "SteadyStateCollector",
    "TenantStats",
    "create_admission",
    "create_scheduler",
    "generate_requests",
    "percentile",
]
