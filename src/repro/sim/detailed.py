"""Detailed (per-EPR-pair) transport backend for full instruction streams.

A :class:`~repro.sim.transport.TransportBackend` at individual-pair
granularity: every planned communication of a workload becomes a channel
whose raw pairs are generated on the traversed virtual-wire links,
chained-teleported through every intermediate T' node and queue-purified at
both endpoints — with the hardware *shared* between concurrent channels:

* one :class:`~repro.sim.generator.LinkGenerator` per virtual-wire link,
  so channels crossing the same link drain the same pair buffer;
* one :class:`~repro.sim.teleporter.TeleporterNodeSim` per T' node, so the
  X/Y teleporter sets queue swaps from every transiting channel (the
  contention the fluid model spreads max-min fairly shows up here as real
  FIFO queueing);
* one bounded storage pool per T' node (the router's ``4t`` incoming cells),
  so pipelines back-pressure instead of overflowing shared storage — a pair
  releases its cell before requesting the next node's, which keeps the walk
  free of hold-and-wait deadlocks on any fabric;
* one bank of ``p`` purifier units per endpoint node, shared by every
  channel sourced or terminating there (each channel runs one queue
  *structure* per endpoint — both ends purify their halves, as the fluid
  model charges — while the physical units are common).

A channel completes after its good pairs are produced and the data-qubit
teleports are serviced at both endpoint routers.  The backend is exact and
deterministic but costs events per pair-hop, so it is the validation
granularity: ``repro.verify`` replays catalog scenarios under both backends
and holds makespans to a documented tolerance.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional

from ..network.geometry import Coordinate
from ..network.topology import LinkId
from .control import PlannedCommunication
from .engine import SimulationEngine
from .generator import LinkGenerator
from .machine import QuantumMachine
from .qpurifier import QueuePurifier
from .resources import ResourcePool, ServiceCenter
from .teleporter import TeleporterNodeSim, swap_routing, teleporter_set
from .transport import TransportBackend


class _Swap(NamedTuple):
    """What the swap at the far end of one hop uses."""

    storage: ResourcePool
    teleporter: TeleporterNodeSim
    dimension: str
    turn: bool


class _PairWalk:
    """Drives one raw pair hop-by-hop from its first link to the purifier."""

    __slots__ = ("channel", "hop")

    def __init__(self, channel: "_DetailedChannel") -> None:
        self.channel = channel
        self.hop = 0

    def start(self) -> None:
        self._take_link_pair()

    def _take_link_pair(self) -> None:
        channel = self.channel
        generator = channel.generators[self.hop]
        if generator is None:
            generator = channel.first_use_generator(self.hop)
        generator.take_pair(self._pair_ready)

    def _pair_ready(self) -> None:
        channel = self.channel
        if self.hop < channel.last_hop:
            swap = channel.swaps[self.hop]
            if swap is None:
                swap = channel.first_use_swap(self.hop)
            # The cell is released before the next hop's is requested, so a
            # waiting pair holds no storage anywhere — no hold-and-wait.
            swap.storage.acquire(self._swap)
        else:
            channel.pair_delivered()

    def _swap(self) -> None:
        swap = self.channel.swaps[self.hop]
        swap.teleporter.teleport_through(swap.dimension, self._swapped, turn=swap.turn)

    def _swapped(self) -> None:
        self.channel.swaps[self.hop].storage.release()
        self.hop += 1
        self._take_link_pair()


class _DetailedChannel:
    """One in-flight communication serviced at per-pair granularity."""

    def __init__(
        self,
        transport: "DetailedTransport",
        flow_id: int,
        planned: PlannedCommunication,
        done: Callable[[], None],
    ) -> None:
        plan = planned.plan
        assert plan is not None
        self.transport = transport
        self.flow_id = flow_id
        self.planned = planned
        self.done = done
        self.start_us = transport.engine.now
        self.nodes = plan.path.nodes
        self.links: List[LinkId] = list(plan.path.links)
        self.last_hop = len(self.links) - 1
        # The shared hardware of each hop, looked up on this channel's first
        # use of the hop: the transport creates hardware on first use, so the
        # creation order — and the order utilisation_report sums in — is that
        # of a lookup per pair-hop.
        self.generators: List[Optional[LinkGenerator]] = [None] * len(self.links)
        self.swaps: List[Optional[_Swap]] = [None] * self.last_hop
        machine = transport.machine
        self.good_pairs_needed = machine.good_pairs_per_logical_communication()
        # The threshold-driven level selection can legitimately pick zero
        # rounds (a loose noise.target_fidelity): then the arrival pairs are
        # already good, no purifier runs — matching the fluid model, which
        # charges zero purifier work at level 0 — and one raw pair yields one
        # good pair.  detailed_pair_budget's depth clamp only applies to the
        # purifying regime.
        self.purifier_depth = plan.budget.endpoint_rounds
        # With fidelity accounting on, every queued pair carries its
        # Bell-diagonal arrival state and each purification round runs the
        # protocol's exact recurrence — the sampled counterpart of the fluid
        # backend's analytical Werner algebra.
        input_state = protocol = None
        if transport.track_fidelity:
            input_state = plan.budget.arrival_state
            protocol = machine.planner.protocol_instance
        self._input_fidelity = input_state.fidelity if input_state is not None else None
        if self.purifier_depth == 0:
            self.raw_pairs_needed = self.good_pairs_needed
            self.purifiers = ()
        else:
            self.purifier_depth, self.raw_pairs_needed = machine.detailed_pair_budget(
                plan.hops
            )
            # Purification happens at *both* endpoints: each end runs the same
            # queue structure on its halves of the pairs, occupying that node's
            # shared purifier bank (exactly the work the fluid model charges to
            # both endpoint purifiers).  A good pair exists once both sides have
            # finished purifying it.
            self.purifiers = tuple(
                QueuePurifier(
                    transport.engine,
                    depth=self.purifier_depth,
                    params=machine.params,
                    on_good_pair=lambda side=side: self._good_pair_ready(side),
                    name=f"P{endpoint}",
                    service=transport.purifier_service_for(endpoint),
                    input_state=input_state,
                    protocol=protocol,
                )
                for side, endpoint in enumerate((plan.source, plan.destination))
            )
        self._injected = 0
        self._in_flight = 0
        self._good_pairs = [0, 0]
        self._teleports_pending = 0
        self._teleports_started = False
        # Same pipelining window as the single-channel detailed simulator:
        # a few pairs per hop keeps the pipeline full without flooding the
        # event heap; the shared storage pools provide the back-pressure.
        self._window = 2 * max(len(self.links), 1) + 2

    def begin(self) -> None:
        self._inject()

    # -- per-hop hardware -------------------------------------------------------------

    def first_use_generator(self, hop: int) -> LinkGenerator:
        generator = self.transport.generator_for(self.links[hop])
        self.generators[hop] = generator
        return generator

    def first_use_swap(self, hop: int) -> _Swap:
        previous, node, nxt = self.nodes[hop : hop + 3]
        dimension, turn = swap_routing(previous, node, nxt)
        transport = self.transport
        storage = transport.storage_for(node)
        swap = _Swap(storage, transport.teleporter_for(node), dimension, turn)
        self.swaps[hop] = swap
        return swap

    # -- pair lifecycle ---------------------------------------------------------------

    def _inject(self) -> None:
        # A one-hop pair already in its link's buffer is delivered here, in
        # the loop.  Delivered through its walk's callback, it would re-enter
        # this method once per buffered pair, and a link buffers max(t, 2)
        # pairs: the stack overflowed at t = 256.  The link refills once after
        # the loop, where the innermost of those nested calls refilled it, so
        # every event is scheduled in the same order.
        buffered: Optional[LinkGenerator] = None
        while self._in_flight < self._window and self._injected < self.raw_pairs_needed:
            self._injected += 1
            if self.last_hop == 0:
                generator = self.generators[0] or self.first_use_generator(0)
                if generator.take_buffered():
                    buffered = generator
                    self._accept_pair()
                    continue
            self._in_flight += 1
            _PairWalk(self).start()
        if buffered is not None:
            buffered.top_up()

    def pair_delivered(self) -> None:
        self._in_flight -= 1
        self._accept_pair()
        self._inject()

    def _accept_pair(self) -> None:
        if self.purifiers:
            for purifier in self.purifiers:
                purifier.accept_raw_pair()
        else:
            # Level 0: the delivered pair is already above target at both ends.
            for side in (0, 1):
                self._good_pair_ready(side)

    def _good_pair_ready(self, side: int) -> None:
        self._good_pairs[side] += 1
        if (
            not self._teleports_started
            and min(self._good_pairs) >= self.good_pairs_needed
        ):
            self._teleports_started = True
            self._start_data_teleports()

    # -- completion -------------------------------------------------------------------

    def _start_data_teleports(self) -> None:
        """Teleport the data qubits through both endpoint routers.

        The fluid model charges ``good_pairs`` of teleporter work to each
        endpoint's X or Y set (by the direction its link leaves in); the
        detailed backend queues exactly those jobs on the shared routers.
        """
        transport = self.transport
        nodes = self.nodes
        endpoints = (
            (nodes[0], nodes[1]),
            (nodes[-1], nodes[-2]),
        )
        self._teleports_pending = 2 * self.good_pairs_needed
        for endpoint, neighbour in endpoints:
            dimension = teleporter_set(endpoint, neighbour)
            teleporter = transport.teleporter_for(endpoint)
            for _ in range(self.good_pairs_needed):
                teleporter.teleport_through(dimension, self._data_teleport_done)

    def _data_teleport_done(self) -> None:
        self._teleports_pending -= 1
        if self._teleports_pending == 0:
            # The router gate time is served above; what remains of the data
            # teleport is the distance-dependent flight/classical latency.
            machine = self.transport.machine
            swap_us = machine.params.times.teleport(0.0)
            residual = max(machine.data_teleport_us(len(self.links)) - swap_us, 0.0)
            self.transport.engine.post(residual, self._complete)

    def _complete(self) -> None:
        self.transport._finish_channel(self)

    def sampled_fidelity(self) -> "float | None":
        """Mean fidelity of the good pairs this channel consumed, or None.

        Both endpoint purifiers process the halves of the same pairs, so
        either side's stream is the channel's; side 0 is used.  Only the
        ``good_pairs_needed`` pairs the data teleports actually consumed
        count — late stragglers from the pipelined surplus do not.  At
        purification level 0 the good pairs *are* the arrival pairs.
        """
        if not self.purifiers:
            return self._input_fidelity
        fidelities = self.purifiers[0].good_pair_fidelities[: self.good_pairs_needed]
        if not fidelities:
            return None
        return sum(fidelities) / len(fidelities)


class DetailedTransport(TransportBackend):
    """Contention-aware per-EPR-pair backend over shared node hardware."""

    name = "detailed"
    description = (
        "Event-driven per-EPR-pair channels with shared teleporter-set, "
        "storage and purifier queueing; exact but orders of magnitude "
        "slower than fluid."
    )

    def __init__(self, engine: SimulationEngine, machine: QuantumMachine) -> None:
        super().__init__(engine, machine)
        allocation = machine.allocation
        self._buffer_capacity = max(allocation.teleporters_per_node, 2)
        self._generators: Dict[LinkId, LinkGenerator] = {}
        self._teleporters: Dict[Coordinate, TeleporterNodeSim] = {}
        self._storage: Dict[Coordinate, ResourcePool] = {}
        self._purifier_services: Dict[Coordinate, ServiceCenter] = {}

    # -- shared hardware (created on first use, then common to all channels) -----------

    def generator_for(self, link: LinkId) -> LinkGenerator:
        generator = self._generators.get(link)
        if generator is None:
            generator = LinkGenerator(
                self.engine,
                generators=self.machine.allocation.generators_per_node,
                buffer_capacity=self._buffer_capacity,
                params=self.machine.params,
                name=f"G{link.stable_name}",
                rate_scale=self.machine.generator_bandwidth_scale,
            )
            self._generators[link] = generator
        return generator

    def teleporter_for(self, node: Coordinate) -> TeleporterNodeSim:
        teleporter = self._teleporters.get(node)
        if teleporter is None:
            teleporter = TeleporterNodeSim(
                self.engine,
                node,
                bandwidth=self.machine.teleporter_bandwidth_per_direction(),
                params=self.machine.params,
            )
            self._teleporters[node] = teleporter
        return teleporter

    def storage_for(self, node: Coordinate) -> ResourcePool:
        pool = self._storage.get(node)
        if pool is None:
            cells = self.machine.allocation.storage_cells
            pool = ResourcePool(self.engine, cells, name=f"S{node}")
            self._storage[node] = pool
        return pool

    def purifier_service_for(self, node: Coordinate) -> ServiceCenter:
        service = self._purifier_services.get(node)
        if service is None:
            service = ServiceCenter(
                self.engine,
                self.machine.allocation.purifiers_per_node,
                name=f"P{node}.units",
            )
            self._purifier_services[node] = service
        return service

    # -- backend contract ---------------------------------------------------------------

    def start(self, planned: PlannedCommunication, done: Callable[[], None]) -> None:
        """Begin servicing a planned communication at per-pair granularity."""
        flow_id, planned = self._open_channel(planned)
        _DetailedChannel(self, flow_id, planned, done).begin()

    def _finish_channel(self, channel: _DetailedChannel) -> None:
        sampled = channel.sampled_fidelity() if self.track_fidelity else None
        self._close_channel(
            channel.flow_id,
            channel.planned,
            start_us=channel.start_us,
            pairs_transited=float(channel.raw_pairs_needed),
            delivered_fidelity=sampled,
            purification_level=channel.purifier_depth if sampled is not None else None,
        )
        channel.done()

    def utilisation_report(self, elapsed_us: float, *, clamp: bool = True) -> Dict[str, float]:
        """Average utilisation per resource class, from the component stats.

        Classes match the fluid backend's report keys (``teleporter_x``,
        ``teleporter_y``, ``generator``, ``purifier``) so result records and
        cross-backend comparisons line up; only instantiated (i.e. actually
        traversed) hardware enters the denominator, mirroring the fluid
        model's touched-resources accounting.
        """
        if elapsed_us <= 0:
            return {}
        busy: Dict[str, float] = {}
        capacity: Dict[str, float] = {}

        def _add(kind: str, stats) -> None:
            busy[kind] = busy.get(kind, 0.0) + stats.busy_time
            capacity[kind] = capacity.get(kind, 0.0) + stats.capacity

        for generator in self._generators.values():
            _add("generator", generator.service.stats)
        for teleporter in self._teleporters.values():
            _add("teleporter_x", teleporter.service_for("x").stats)
            _add("teleporter_y", teleporter.service_for("y").stats)
        for service in self._purifier_services.values():
            _add("purifier", service.stats)
        report: Dict[str, float] = {}
        for kind, cap in capacity.items():
            if cap > 0:
                ratio = busy[kind] / (cap * elapsed_us)
                report[kind] = min(ratio, 1.0) if clamp else ratio
        return report

    def component_utilisation(self, elapsed_us: float) -> Dict[str, Dict[str, float]]:
        """Per-component utilisation, keyed by stable names (for diagnostics)."""
        return {
            "generator": {
                link.stable_name: gen.service.stats.utilisation(elapsed_us)
                for link, gen in self._generators.items()
            },
            "teleporter": {
                str(node): sim.utilisation(elapsed_us)
                for node, sim in self._teleporters.items()
            },
            "purifier": {
                str(node): service.stats.utilisation(elapsed_us)
                for node, service in self._purifier_services.items()
            },
        }


__all__ = ["DetailedTransport"]
