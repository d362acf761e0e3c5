"""Flow-based (fluid) transport backend for large simulations.

Each active logical communication is modelled as a *flow* that must push a
fixed amount of work through every resource along its path:

* one teleportation (``t_teleport`` of teleporter time) per transiting EPR
  pair at every intermediate T' node, charged to that node's X or Y teleporter
  set depending on the outgoing direction (the Figure 6 router split);
* one pair generation (``t_gen`` of generator time) per transiting pair on
  every virtual-wire link it crosses;
* ``2**rounds - 1`` purification rounds per good pair at each endpoint's
  queue purifiers;
* the data-qubit teleportations at the endpoints once the channel is up,
  charged to the X or Y router half that the endpoint's link uses.

Each resource is named by a dense integer id, laid out by the machine in one
block per kind (:attr:`~repro.sim.machine.QuantumMachine.resource_blocks`), so
a flow's demand is a pair of tuples: resource ids and the work on each.

Concurrent flows share each resource max-min fairly (progressive filling), so
when many channels cross the same T' node — the Home Base workload — the
teleporters become the bottleneck, and when channels are short and disjoint —
the Mobile Qubit workload — the endpoint purifiers do.  That is precisely the
contention effect Figure 16 sweeps resource allocation to expose.

Every flow also has a latency *floor*: the channel-setup pipeline latency plus
the final data teleportation, which bounds how fast a communication can finish
even with unlimited bandwidth (the paper's t = g = p = 1024 normalisation
point).

One transport runs over one of two *data planes*, which hold the per-flow
fluid state (remaining work, rate, start and floor) and the flow × resource
incidence, and solve the rates.  The allocator name picks the plane, once, in
:class:`FlowTransport`'s constructor:

* :class:`FlowTable` (``incremental``, the default, and ``reference``) keeps
  per-flow rows in dicts and a persistent resource → {flow: work} index.
  ``incremental`` runs progressive filling through the index, recomputing a
  resource's demand only over the flows registered on it and freezing
  bottlenecked flows through it; ``reference`` rescans every flow for every
  resource on every solve (the original seed behaviour) and is kept as the
  rate oracle.  Skipping a flow's denominators contributes exact zeros, so
  both solves give *bitwise* identical rates — the same event trace, not a
  statistically similar one (degenerate max-min ties would otherwise break
  differently and cascade into diverging makespans).
* :class:`~repro.sim.flowpack.FlowPack` (``vectorized``) holds the same
  state in flat numpy arrays: demand sums become sequential ``bincount``
  accumulations in flow-id order, the bottleneck delta a ``cap_left /
  denom`` min-reduction, freezing a boolean mask — all ordered to stay
  bitwise identical to the dict solves.

The transport's path is the same over either plane.  After each solve it
asks the plane for the earliest finish time (ties resolve to the lowest flow
id) and keeps one chained completion event for it, so all three allocators
dispatch the same event stream, sequence numbers included.  The usage
integral advances from the plane's per-kind rate sums: :class:`FlowTable`
keeps them by per-change deltas (``incremental`` and ``reference`` report
bitwise-equal utilisation), :class:`~repro.sim.flowpack.FlowPack` takes one
dot product per solve (equal within 1e-9 relative).

Under every allocator the transport solves once per change to the set of
live flows.  Rates depend on nothing else, so when a completion's callback
starts the next flow, the solve in ``start`` covers the completion too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

from ..errors import SimulationError
from ..trace.records import FlowRateChanged
from .control import PlannedCommunication
from .engine import Event, SimulationEngine
from .machine import RESOURCE_KINDS, Demand, QuantumMachine
from .teleporter import teleporter_set
from .transport import TransportBackend, register_backend

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .flowpack import FlowPack

#: A resource's user-facing key: ``(kind, (x, y))``, or
#: ``("generator", (ax, ay), (bx, by))`` for a link's generator.
ResourceKey = Tuple

#: The allocator names FlowTransport accepts: the one declaration, which
#: ``runtime.allocator`` validates against and the verify CLI defaults to.
ALLOCATORS = ("incremental", "reference", "vectorized")

#: Residual capacity below which a resource counts as saturated.
_SATURATION_EPS = 1e-12
#: Residual work below which a flow counts as finished.  Completion
#: *scheduling* and the completion handler use this same epsilon: a flow whose
#: residue is at or below it schedules an immediate completion that the
#: handler then accepts.  (They used to disagree — scheduling tested the far
#: tighter ``_SATURATION_EPS`` — so a flow with residue in between scheduled
#: an immediate event that no-op'd and was left stalled.)
_COMPLETION_EPS = 1e-9


@dataclass
class ChannelFlow:
    """One in-flight logical communication in the fluid model.

    It carries what the transport needs to close the channel; the flow's
    fluid state (remaining work, rate, start and floor) lives in the
    transport's data plane under ``flow_id``.
    """

    flow_id: int
    planned: PlannedCommunication
    pairs_transited: float
    start_us: float
    done: Callable[[], None]


@dataclass(slots=True)
class _Row:
    """One flow's demand and fluid state in a :class:`FlowTable`."""

    ids: Sequence[int]
    works: Sequence[float]
    start_us: float
    floor_us: float
    remaining: float = 1.0
    rate: float = 0.0


class FlowTable:
    """The dict allocators' data plane: per-flow rows and a resource index.

    It answers the transport's calls as :class:`~repro.sim.flowpack.FlowPack`
    does, with the same arithmetic in the same order.  Rows are kept in
    insertion order, which is flow-id order because the transport's flow ids
    increase, and every walk over flows follows it, as the pack's row and
    entry arrays do.  The per-kind rate sums are kept by the delta of each
    rate change and each removal.  ``reference=True`` solves from scratch
    instead of through the index.
    """

    def __init__(self, id_capacity: Sequence[float], id_kind: Sequence[str], *, reference: bool = False) -> None:
        #: Capacity and kind of every resource id.
        self._capacity = id_capacity
        self._kind_of = id_kind
        self._rows: Dict[int, _Row] = {}
        #: Resource id → {flow_id: demand work}, each in flow-id order.
        self._members: Dict[int, Dict[int, float]] = {}
        #: Per-kind sum of rate × work over live flows.
        self._kind_rate_sum: Dict[str, float] = {}
        self._solve = self._reference_rates if reference else self._max_min_rates

    def rate_of(self, flow_id: int) -> float:
        return self._rows[flow_id].rate

    def remaining_of(self, flow_id: int) -> float:
        return self._rows[flow_id].remaining

    # -- mutation -------------------------------------------------------------------

    def add_flow(
        self, flow_id: int, ids: Sequence[int], works: Sequence[float], *, start_us: float, floor_us: float
    ) -> None:
        """Add a flow's row, all its work remaining, and index it on each resource it uses."""
        self._rows[flow_id] = _Row(ids, works, start_us, floor_us)
        for rid, work in zip(ids, works):
            self._members.setdefault(rid, {})[flow_id] = work

    def remove_flow(self, flow_id: int) -> None:
        """Drop a flow, its index entries and its share of the rate sums."""
        row = self._rows.pop(flow_id)
        sums, kind_of = self._kind_rate_sum, self._kind_of
        for rid, work in zip(row.ids, row.works):
            kind = kind_of[rid]
            sums[kind] = sums.get(kind, 0.0) - row.rate * work
            members = self._members[rid]
            del members[flow_id]
            if not members:
                del self._members[rid]

    # -- fluid-state kernels --------------------------------------------------------

    def advance(self, elapsed: float) -> None:
        """``remaining -= rate * elapsed`` clamped at 0, over all rows."""
        for row in self._rows.values():
            row.remaining = max(row.remaining - row.rate * elapsed, 0.0)

    def reallocate(self, saturation_eps: float, *, collect_changes: bool = False) -> List[Tuple[int, float]]:
        """Solve and store the new rates; optionally list the changes.

        Returns ``(flow_id, new_rate)`` for each flow whose rate changed
        bitwise, in flow-id order, when ``collect_changes``.
        """
        rates = self._solve(saturation_eps)
        sums, kind_of = self._kind_rate_sum, self._kind_of
        changes: List[Tuple[int, float]] = []
        for flow_id, row in self._rows.items():
            new_rate = rates[flow_id]
            if new_rate != row.rate:
                delta = new_rate - row.rate
                for rid, work in zip(row.ids, row.works):
                    kind = kind_of[rid]
                    sums[kind] = sums.get(kind, 0.0) + delta * work
                if collect_changes:
                    changes.append((flow_id, new_rate))
                row.rate = new_rate
        return changes

    def kind_rate_sums(self) -> Dict[str, float]:
        """Per-kind ``rate × work`` over live flows (the table's own dict)."""
        return self._kind_rate_sum

    def loads(self) -> Dict[int, float]:
        """Per-resource-id load ``sum(rate × work)`` over live flows."""
        loads: Dict[int, float] = {}
        rows = self._rows
        for rid, members in self._members.items():
            load = 0.0
            for flow_id, work in members.items():
                load += rows[flow_id].rate * work
            if load > 0.0:
                loads[rid] = load
        return loads

    def next_completion(
        self, now: float, completion_eps: float, *, exclude_flow_ids: Optional[Set[int]] = None
    ) -> Optional[Tuple[int, float]]:
        """Earliest completion as ``(flow_id, finish_time)``, or None.

        Per row, :meth:`FlowPack.next_completion
        <repro.sim.flowpack.FlowPack.next_completion>`'s arithmetic: a
        residue at or below ``completion_eps`` finishes now, a zero rate
        never, otherwise ``now + remaining / rate``; all clamped to the
        channel floor.  The strict ``<`` keeps the first of tied rows, as
        the pack's ``argmin`` does.
        """
        best: Optional[int] = None
        best_finish = math.inf
        for flow_id, row in self._rows.items():
            if exclude_flow_ids and flow_id in exclude_flow_ids:
                continue
            remaining = row.remaining
            if remaining <= completion_eps:
                finish = now
            elif row.rate <= 0.0:
                continue
            else:
                finish = now + remaining / row.rate
            finish = max(finish, row.start_us + row.floor_us)
            if finish < best_finish:
                best, best_finish = flow_id, finish
        return None if best is None else (best, best_finish)

    # -- solves ---------------------------------------------------------------------

    def _max_min_rates(self, saturation_eps: float) -> Dict[int, float]:
        """Progressive filling accelerated by the resource→flows index.

        Each iteration recomputes a resource's unfrozen demand by walking only
        the flows registered on it, and finds the flows to freeze from the
        saturated resources' member lists.  Skipped flows would contribute
        exact ``0.0`` terms, so every float operation matches the reference
        solve bit for bit — the two produce identical rates, merely at
        O(iterations · index entries) instead of O(iterations · resources ·
        flows).
        """
        rows = self._rows
        rates: Dict[int, float] = dict.fromkeys(rows, 0.0)
        if not rows:
            return rates
        capacity = self._capacity
        remaining_cap: Dict[int, float] = {}
        for row in rows.values():
            for rid in row.ids:
                remaining_cap.setdefault(rid, capacity[rid])
        # Unfrozen members per resource, seeded from the persistent index
        # (flow-id ordered) and thinned as flows freeze; demand sums then walk
        # exactly the flows still being filled.
        alive: Dict[int, Dict[int, float]] = {
            rid: dict(self._members[rid]) for rid in remaining_cap
        }
        unfrozen = dict(rows)
        # Per-resource demand sums are cached between iterations and only
        # recomputed for ids whose membership changed (a resummed unchanged
        # id would give the bitwise-same float, so caching is exact).  Each
        # sum is taken on its own and freezing a flow only removes it, so the
        # order ids are resummed and flows frozen in changes no value.
        denom: Dict[int, float] = {}
        dirty: Dict[int, None] = dict.fromkeys(remaining_cap)
        # Progressive filling: all unfrozen rates rise together until the
        # bottleneck resource saturates; its users freeze (found through the
        # index), and the rest keep rising.
        for _ in range(len(rows) + 1):
            if not unfrozen:
                break
            for rid in dirty:
                d = 0.0
                for work in alive[rid].values():
                    d += work
                denom[rid] = d
            dirty = {}
            best_delta = math.inf
            for rid, cap_left in remaining_cap.items():
                d = denom[rid]
                if d > 0.0:
                    delta = cap_left / d
                    if delta < best_delta:
                        best_delta = delta
            if best_delta == math.inf:
                # No shared resource constrains the remaining flows; give them
                # an effectively unconstrained rate (their floor dominates).
                for flow_id in unfrozen:
                    rates[flow_id] += 1.0
                break
            for flow_id in unfrozen:
                rates[flow_id] += best_delta
            newly_frozen: Dict[int, float] = {}
            for rid, d in denom.items():
                if d > 0.0:
                    remaining_cap[rid] -= best_delta * d
                    if remaining_cap[rid] <= saturation_eps:
                        newly_frozen.update(alive[rid])
            if not newly_frozen:
                break
            for flow_id in newly_frozen:
                row = unfrozen.pop(flow_id)
                for rid in row.ids:
                    alive[rid].pop(flow_id, None)
                    dirty[rid] = None
        return rates

    def _reference_rates(self, saturation_eps: float) -> Dict[int, float]:
        """Progressive filling from scratch: every flow, every resource, every round."""
        rows = self._rows
        rates: Dict[int, float] = dict.fromkeys(rows, 0.0)
        if not rows:
            return rates
        demands = {flow_id: dict(zip(row.ids, row.works)) for flow_id, row in rows.items()}
        remaining_cap: Dict[int, float] = {}
        for demand in demands.values():
            for rid in demand:
                remaining_cap.setdefault(rid, self._capacity[rid])
        unfrozen = dict(demands)
        for _ in range(len(rows) + 1):
            if not unfrozen:
                break
            best_delta = math.inf
            for rid, cap_left in remaining_cap.items():
                denom = sum(demand.get(rid, 0.0) for demand in unfrozen.values())
                if denom <= 0.0:
                    continue
                best_delta = min(best_delta, cap_left / denom)
            if best_delta == math.inf:
                for flow_id in unfrozen:
                    rates[flow_id] += 1.0
                break
            for flow_id in unfrozen:
                rates[flow_id] += best_delta
            for rid in remaining_cap:
                denom = sum(demand.get(rid, 0.0) for demand in unfrozen.values())
                remaining_cap[rid] -= best_delta * denom
            saturated = {rid for rid, cap in remaining_cap.items() if cap <= saturation_eps}
            newly_frozen = [
                flow_id
                for flow_id, demand in unfrozen.items()
                if any(rid in saturated for rid in demand)
            ]
            if not newly_frozen:
                break
            for flow_id in newly_frozen:
                del unfrozen[flow_id]
        return rates


@register_backend
class FlowTransport(TransportBackend):
    """Shares machine bandwidth among concurrent channel flows."""

    name = "fluid"
    description = (
        "Max-min fair fluid flows over teleporter/generator/purifier "
        "bandwidth; fast, scales to large grids and full sweeps."
    )
    uses_allocator = True

    def __init__(
        self,
        engine: SimulationEngine,
        machine: QuantumMachine,
        *,
        allocator: str = "incremental",
    ) -> None:
        if allocator not in ALLOCATORS:
            raise SimulationError(
                f"unknown allocator {allocator!r}; expected one of {ALLOCATORS}"
            )
        super().__init__(engine, machine)
        self.allocator = allocator
        self._flows: Dict[int, ChannelFlow] = {}
        self._last_update = 0.0
        self._usage_integral: Dict[str, float] = {}
        #: Per-kind sum of rate * work over active flows, as of the last solve.
        self._kind_rate_sum: Dict[str, float] = {}
        blocks = machine.resource_blocks
        kinds = [k for k in range(len(RESOURCE_KINDS)) for _ in range(blocks[k], blocks[k + 1])]
        #: The kind of each resource id, which its id block decides.
        self._kind_of = [RESOURCE_KINDS[k] for k in kinds]
        self._kind_capacity = machine.kind_capacity
        #: Per-kind capacity totals, accumulated id by id as resources are
        #: first used (utilisation divides by them).
        self._kind_capacity_total: Dict[str, float] = {}
        self._seen_ids: Set[int] = set()
        capacities = [self._kind_capacity[kind] for kind in self._kind_of]
        self._plane: Union["FlowPack", FlowTable]
        if allocator == "vectorized":
            # Imported here so that ``import repro`` does not load numpy.
            from .flowpack import FlowPack

            self._plane = FlowPack(capacities, kinds, RESOURCE_KINDS)
        else:
            self._plane = FlowTable(capacities, self._kind_of, reference=allocator == "reference")
        #: The one pending completion event: the earliest finish.
        self._next_completion: Optional[Event] = None
        #: Flows whose chained completion fired but no-op'd since the last
        #: reallocation; the chain skips them until the next one.
        self._spent_completions: Set[int] = set()
        #: Whether a flow finished since the last solve.  Rates depend only
        #: on the live flow set, so re-solving an unchanged set is a no-op.
        self._flow_set_changed = False

    # -- public API ---------------------------------------------------------------

    @property
    def active_flows(self) -> int:
        return len(self._flows)

    def start(
        self,
        planned: PlannedCommunication,
        done: Callable[[], None],
    ) -> None:
        """Begin servicing a planned communication; ``done`` fires at completion."""
        self._advance_time()
        flow_id, planned = self._open_channel(planned)
        profile = self.machine.flow_profile(planned.plan.hops)
        start_us = self.engine.now
        self._flows[flow_id] = ChannelFlow(flow_id, planned, profile.pairs, start_us, done)
        ids, works = self._build_demands(planned)
        seen = self._seen_ids
        for rid in ids:
            if rid not in seen:
                seen.add(rid)
                kind = self._kind_of[rid]
                self._kind_capacity_total[kind] = (
                    self._kind_capacity_total.get(kind, 0.0) + self._kind_capacity[kind]
                )
        self._plane.add_flow(flow_id, ids, works, start_us=start_us, floor_us=profile.floor_us)
        self._reallocate()

    def utilisation_report(self, elapsed_us: float, *, clamp: bool = True) -> Dict[str, float]:
        """Average utilisation per resource *class* over ``elapsed_us``.

        With ``clamp=False`` the raw usage/capacity ratio is returned; on a
        well-formed run it never exceeds 1 (the property tests assert this),
        so the default clamp only guards against float round-off.
        """
        if elapsed_us <= 0:
            return {}
        totals: Dict[str, float] = {}
        for kind, usage in self._usage_integral.items():
            cap = self._kind_capacity_total.get(kind, 0.0)
            if cap > 0:
                ratio = usage / (cap * elapsed_us)
                totals[kind] = min(ratio, 1.0) if clamp else ratio
        return totals

    def resource_loads(self) -> Dict[ResourceKey, float]:
        """Instantaneous per-resource load: sum of rate x work over active flows."""
        loads = self._plane.loads()
        return dict(zip(self.machine.resource_keys(loads), loads.values()))

    def capacity_of(self, key: ResourceKey) -> float:
        """Bandwidth of one resource (public for invariant checks)."""
        return self._kind_capacity[key[0]]

    # -- demand construction -----------------------------------------------------------

    def _build_demands(self, planned: PlannedCommunication) -> Demand:
        """The resource ids a channel uses and its work on each.

        Ids come from the path's node numbers and the numbers of the links
        between them.  Entries run swaps, generators, then each endpoint's
        purifier and data teleport; a resource met twice keeps its first
        place and sums its work, and zero work adds no entry.
        """
        plan = planned.plan
        assert plan is not None
        profile = self.machine.flow_profile(plan.hops)
        x_ids, y_ids, generator_ids, purifier_ids, _ = self.machine.resource_blocks
        teleporter_ids = {"x": x_ids, "y": y_ids}
        topology = self.machine.topology
        nodes = plan.path.nodes
        numbers = topology.node_ids(nodes)
        link_of = topology.link_of
        # Chained-teleportation swaps at every intermediate node, charged to
        # the teleporter set facing the outgoing direction (Figure 6), then
        # virtual-wire pair generation on every traversed link.
        ids = [
            teleporter_ids[teleporter_set(node, nxt)] + number
            for node, nxt, number in zip(nodes[1:], nodes[2:], numbers[1:])
        ]
        works = [profile.swap_work] * len(ids)
        ids += [generator_ids + link_of[a][b] for a, b in zip(numbers, numbers[1:])]
        works += [profile.generator_work] * (len(ids) - len(works))
        # Endpoint purification and data teleports.  The data teleport uses
        # the set facing the endpoint's link, exactly as the swap loop above
        # does for intermediate hops; a zero-hop path faces itself (X set).
        first, last = (nodes[1], nodes[-2]) if len(nodes) > 1 else (nodes[0], nodes[0])
        for endpoint, neighbour, number in ((nodes[0], first, numbers[0]), (nodes[-1], last, numbers[-1])):
            ids += [purifier_ids + number, teleporter_ids[teleporter_set(endpoint, neighbour)] + number]
            works += [profile.purifier_work, profile.data_teleport_work]
        demands: Dict[int, float] = {}
        for rid, work in zip(ids, works):
            if work > 0:
                demands[rid] = demands.get(rid, 0.0) + work
        return tuple(demands), tuple(demands.values())

    # -- fluid dynamics ---------------------------------------------------------------------

    def _advance_time(self) -> None:
        """Account for progress made since the last rate change."""
        now = self.engine.now
        elapsed = now - self._last_update
        if elapsed > 0:
            self._plane.advance(elapsed)
            # The usage integral advances from the per-kind rate sums: O(kinds)
            # instead of walking every flow's demand vector.
            for kind, total in self._kind_rate_sum.items():
                if total > 0.0:
                    self._usage_integral[kind] = (
                        self._usage_integral.get(kind, 0.0) + total * elapsed
                    )
        self._last_update = now

    def _reallocate(self) -> None:
        """Recompute max-min fair rates and re-arm the completion chain."""
        self._flow_set_changed = False
        self._spent_completions.clear()
        trace = self.engine.trace
        if trace is not None and not trace.wants(FlowRateChanged.kind):
            trace = None
        changes = self._plane.reallocate(_SATURATION_EPS, collect_changes=trace is not None)
        if trace is not None:
            # Only genuine changes are listed, so the rate timeline is a pure
            # function of the fluid dynamics — identical across allocators
            # (they compute bitwise-equal rates) and across re-runs, which is
            # what the differential harness diffs.
            now = self.engine.now
            for flow_id, rate in changes:
                trace.emit(FlowRateChanged(t_us=now, flow_id=flow_id, rate=rate))
        self._kind_rate_sum = self._plane.kind_rate_sums()
        self._schedule_next_completion()

    def _schedule_next_completion(self) -> None:
        """Keep exactly one pending completion event: the earliest one.

        Ties resolve to the lowest flow id, whose ``1 + flow_id`` priority
        also orders equal-time events on the heap, and completing that flow
        triggers a reallocation that re-arms the chain, so simultaneous
        completions fire one by one in flow-id order.  An armed event whose
        time and priority are unchanged is kept rather than re-pushed.
        """
        nxt = self._plane.next_completion(
            self.engine.now, _COMPLETION_EPS, exclude_flow_ids=self._spent_completions or None
        )
        event = self._next_completion
        if event is not None:
            if nxt is not None and not event.cancelled and (event.priority, event.time) == (1 + nxt[0], nxt[1]):
                return
            event.cancel()
            self._next_completion = None
        if nxt is not None:
            flow_id, finish = nxt
            flow = self._flows[flow_id]
            self._next_completion = self.engine.schedule_at(
                finish, lambda f=flow: self._complete(f), priority=1 + flow_id
            )

    # -- completion -----------------------------------------------------------------------

    def _complete(self, flow: ChannelFlow) -> None:
        # The fired event was the chained one; it is spent.
        self._next_completion = None
        self._advance_time()
        plane = self._plane
        remaining = plane.remaining_of(flow.flow_id)
        rate = plane.rate_of(flow.flow_id)
        # On a long clock the finish time ``now + remaining / rate`` rounds,
        # leaving about ``rate * ulp(now)`` of work when the event fires.
        if remaining > max(_COMPLETION_EPS, rate * 4 * math.ulp(self.engine.now)):
            # The flow is not done: leave it out of the chain until the next
            # reallocation, and keep the other flows' completions armed.
            self._spent_completions.add(flow.flow_id)
            self._schedule_next_completion()
            return
        del self._flows[flow.flow_id]
        self._flow_set_changed = True
        plane.remove_flow(flow.flow_id)
        self._close_channel(
            flow.flow_id,
            flow.planned,
            start_us=flow.start_us,
            pairs_transited=flow.pairs_transited,
        )
        flow.done()
        # A callback that started a flow (the next operation, a service
        # dispatch) has already solved the new flow set.
        if self._flow_set_changed:
            self._reallocate()
