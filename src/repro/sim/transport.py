"""Pluggable transport backends: the contract both simulation granularities share.

The communication simulator translates an instruction stream into planned
communications; *how* those communications are serviced is the transport
backend's business.  Two implementations ship with the repository:

* ``fluid`` (:mod:`repro.sim.flow`) — every active communication is a flow
  sharing resource bandwidth max-min fairly.  Fast enough for large grids and
  full sweeps; the granularity the paper's Figure 16 runs at.
* ``detailed`` (:mod:`repro.sim.detailed`) — every raw EPR pair is generated,
  chained-teleported hop by hop and queue-purified as discrete events, with
  teleporter-set and storage queueing shared across concurrent channels.
  Slower, but it models the hardware at the granularity the paper used to
  validate the fluid model.

:class:`TransportBackend` pins down the contract (open a channel for a
planned communication, call back on completion, report channel records and
per-class utilisation, emit channel open/close on the trace bus), and
:data:`repro.sim.simulator.BACKENDS` names the backends every layer above —
scenario specs, the runner, the CLI, the verify harness — selects by name.
"""

from __future__ import annotations

import dataclasses
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Callable, ClassVar, Dict, List, Optional, Tuple

from ..errors import InfeasibleError, SimulationError
from ..network.topology import LinkId
from ..trace.records import ChannelClosed, ChannelFidelity, ChannelOpened, RouteChosen
from .results import ChannelRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..network.routing import LoadBalancer
    from .control import PlannedCommunication
    from .engine import SimulationEngine
    from .machine import QuantumMachine


class TransportBackend(ABC):
    """Services planned communications on a machine, one channel per request.

    Subclasses implement :meth:`start` (begin servicing, invoke the callback
    when the communication completes) and :meth:`utilisation_report`.  The
    base class owns what every backend must agree on: flow-id allocation,
    the per-channel :class:`~repro.sim.results.ChannelRecord` log, and the
    :class:`~repro.trace.ChannelOpened`/:class:`~repro.trace.ChannelClosed`
    trace records — so traces from different backends stay diffable.
    """

    #: The backend's name in results; subclasses override.
    name: ClassVar[str] = "abstract"
    #: One-line description shown by ``python -m repro backends``.
    description: ClassVar[str] = ""

    def __init__(self, engine: "SimulationEngine", machine: "QuantumMachine") -> None:
        self.engine = engine
        self.machine = machine
        self._records: List[ChannelRecord] = []
        self._next_flow_id = 0
        #: Whether channels report their delivered fidelity; off unless the
        #: machine carries a noise model, so untracked runs pay nothing on any
        #: path below.
        self.track_fidelity = machine.track_fidelity
        #: Load balancer; None unless the scenario carries a
        #: ``network.routing`` section, so unbalanced runs pay nothing.
        self.balancer: Optional["LoadBalancer"] = machine.load_balancer()
        #: The balancer's load view: active channels per link, maintained
        #: identically by both backends (channel open/close counts, never
        #: fluid rates), which is what makes policy choices — and therefore
        #: paths, records and goldens — backend-invariant.
        self._link_flows: Dict[LinkId, int] = {}
        self._flow_links: Dict[int, Tuple[LinkId, ...]] = {}

    # -- contract -----------------------------------------------------------------

    @abstractmethod
    def start(self, planned: "PlannedCommunication", done: Callable[[], None]) -> None:
        """Begin servicing ``planned``; ``done`` fires at completion."""

    @abstractmethod
    def utilisation_report(self, elapsed_us: float, *, clamp: bool = True) -> Dict[str, float]:
        """Average utilisation per resource *class* over ``elapsed_us``."""

    @property
    def records(self) -> List[ChannelRecord]:
        """Per-channel records, in completion order."""
        return self._records

    # -- shared channel bookkeeping ---------------------------------------------------

    def _open_channel(
        self, planned: "PlannedCommunication"
    ) -> Tuple[int, "PlannedCommunication"]:
        """Allocate a flow id, resolve the path and emit the open records.

        Returns the (possibly re-planned) communication: when the machine
        carries a load balancer, the policy picks one of the fabric's
        candidate paths against the current link-load view *here*, at channel
        open — the re-evaluation point the adaptive policy is named for — and
        the channel is re-planned along the chosen path (a
        :class:`~repro.trace.RouteChosen` record precedes the open).  Without
        a balancer the planner's deterministic route stands untouched.

        The channel's purification level and pair states come with its
        per-distance EPR budget (``planned.plan.budget``), which both backends
        read.  A channel whose pairs no purification depth can bring to the
        target fidelity raises :class:`~repro.errors.InfeasibleError` here,
        before any backend reads its budget: it asks for infinitely many
        pairs, so servicing it would stall.
        """
        if planned.plan is None:
            raise SimulationError("local communications do not need the transport backend")
        flow_id = self._next_flow_id
        self._next_flow_id += 1
        trace = self.engine.trace
        request = planned.request
        if self.balancer is not None:
            planner = self.machine.planner
            candidates = planner.candidates(request.source, request.dest)
            index = self.balancer.choose(
                flow_id, request.source, request.dest, candidates, self._link_flows
            )
            chosen = candidates[index]
            plan = planner.plan_via(request.source, request.dest, chosen)
            planned = dataclasses.replace(planned, plan=plan)
            links = chosen.links
            for link in links:
                self._link_flows[link] = self._link_flows.get(link, 0) + 1
            self._flow_links[flow_id] = links
            if trace is not None:
                trace.emit(
                    RouteChosen(
                        t_us=self.engine.now,
                        flow_id=flow_id,
                        policy=self.balancer.policy,
                        path=chosen.stable_name,
                        candidates=len(candidates),
                    )
                )
        if not planned.plan.feasible:
            budget = planned.plan.budget
            params = self.machine.params
            raise InfeasibleError(
                f"a {planned.hops}-hop channel cannot reach the target fidelity: its "
                f"pairs arrive with error {budget.arrival_error:.4g}, which "
                f"{budget.endpoint_rounds} purification rounds cannot bring to "
                f"{params.threshold_fidelity:.6g}; raise noise.base_fidelity (now "
                f"{params.zero_prep_fidelity:.6g}), lower noise.target_fidelity, or "
                f"lower topology.cells_per_hop (now {self.machine.topology.cells_per_hop})"
            )
        if trace is not None:
            trace.emit(
                ChannelOpened(
                    t_us=self.engine.now,
                    flow_id=flow_id,
                    source=request.source.as_tuple(),
                    destination=request.dest.as_tuple(),
                    hops=planned.hops,
                    purpose=request.purpose,
                )
            )
        return flow_id, planned

    def _close_channel(
        self,
        flow_id: int,
        planned: "PlannedCommunication",
        *,
        start_us: float,
        pairs_transited: float,
        delivered_fidelity: Optional[float] = None,
        purification_level: Optional[int] = None,
    ) -> None:
        """Log the channel record and emit :class:`ChannelClosed`.

        On noise-tracked runs the record additionally carries the delivered
        fidelity and a :class:`~repro.trace.ChannelFidelity` record follows
        the close.  A backend that measures fidelity itself (the detailed
        model's per-pair purification outcomes) passes ``delivered_fidelity``
        and ``purification_level``; backends that do not (the fluid model)
        inherit the analytical values of the channel's budget.
        """
        links = self._flow_links.pop(flow_id, None)
        if links is not None:
            for link in links:
                remaining = self._link_flows.get(link, 0) - 1
                if remaining > 0:
                    self._link_flows[link] = remaining
                else:
                    self._link_flows.pop(link, None)
        request = planned.request
        budget = planned.plan.budget
        if self.track_fidelity:
            if delivered_fidelity is None:
                delivered_fidelity = budget.delivered_state.fidelity
            if purification_level is None:
                purification_level = budget.endpoint_rounds
        self._records.append(
            ChannelRecord(
                source=request.source.as_tuple(),
                destination=request.dest.as_tuple(),
                hops=planned.hops,
                start_us=start_us,
                end_us=self.engine.now,
                pairs_transited=pairs_transited,
                purpose=request.purpose,
                qubit=request.qubit,
                delivered_fidelity=delivered_fidelity,
                purification_level=purification_level,
            )
        )
        trace = self.engine.trace
        if trace is not None:
            trace.emit(
                ChannelClosed(
                    t_us=self.engine.now,
                    flow_id=flow_id,
                    source=request.source.as_tuple(),
                    destination=request.dest.as_tuple(),
                    hops=planned.hops,
                    pairs_transited=pairs_transited,
                )
            )
            if self.track_fidelity:
                target = self.machine.params.threshold_fidelity
                trace.emit(
                    ChannelFidelity(
                        t_us=self.engine.now,
                        flow_id=flow_id,
                        hops=planned.hops,
                        purification_level=purification_level,
                        arrival_fidelity=budget.arrival_state.fidelity,
                        delivered_fidelity=delivered_fidelity,
                        target_fidelity=target,
                        meets_target=delivered_fidelity >= target,
                    )
                )
