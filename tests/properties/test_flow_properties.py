"""Property-based tests for the fluid transport's max-min fairness invariants.

Random concurrent channel mixes are pushed through :class:`FlowTransport` and
the fairness invariants are checked after *every* event:

* rate conservation — no resource is ever allocated beyond its capacity;
* the incremental and vectorized allocators agree with the from-scratch
  reference **bitwise**: identical flow-rate timelines, dispatched engine
  events and channel records, not merely close makespans;
* ``utilisation_report`` never needs its ``min(..., 1.0)`` clamp on a
  well-formed run (the usage integral stays within physical capacity);
* the vectorized allocator's CSR structure round-trips: adding and removing
  flows then rebuilding from scratch reproduces the compacted arrays exactly.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.geometry import Coordinate
from repro.network.layout import CommRequest
from repro.network.nodes import ResourceAllocation
from repro.sim.control import PlannedCommunication
from repro.sim.engine import SimulationEngine
from repro.sim.flow import ALLOCATORS, FlowTransport
from repro.sim.machine import QuantumMachine
from repro.trace import EventDispatched, FlowRateChanged, RouteChosen, TraceBus

ALL_ALLOCATORS = ALLOCATORS

GRID_SIDE = 5
#: Relative head-room for float round-off in capacity checks.
EPS = 1e-9

coords = st.builds(
    Coordinate,
    x=st.integers(min_value=0, max_value=GRID_SIDE - 1),
    y=st.integers(min_value=0, max_value=GRID_SIDE - 1),
)

#: (source, destination, start-delay) triples describing one channel each.
channel_specs = st.lists(
    st.tuples(coords, coords, st.floats(min_value=0.0, max_value=5000.0)),
    min_size=1,
    max_size=8,
)

allocations = st.sampled_from(
    [
        ResourceAllocation(1, 1, 1),
        ResourceAllocation(2, 2, 1),
        ResourceAllocation(8, 8, 1),
        ResourceAllocation(4, 2, 3),
    ]
)


def _planned(machine, source, dest, qubit):
    plan = machine.planner.plan(source, dest)
    request = CommRequest(source=source, dest=dest, qubit=qubit)
    return PlannedCommunication(request=request, plan=plan)


def _run_transport(allocation, specs, allocator, check=None, trace=None):
    """Drive a FlowTransport through ``specs``; call ``check`` after each event."""
    machine = QuantumMachine(GRID_SIDE, allocation=allocation)
    engine = SimulationEngine(trace=trace)
    transport = FlowTransport(engine, machine, allocator=allocator)
    for qubit, (source, dest, delay) in enumerate(specs):
        planned = _planned(machine, source, dest, qubit)
        engine.schedule(delay, lambda p=planned: transport.start(p, lambda: None))
    while engine.step():
        if check is not None:
            check(transport)
    return transport, engine


def _assert_rates_conserve_capacity(transport):
    for key, load in transport.resource_loads().items():
        capacity = transport.capacity_of(key)
        assert load <= capacity * (1.0 + EPS) + EPS, (
            f"resource {key} over capacity: load={load}, capacity={capacity}"
        )


class TestMaxMinFairnessInvariants:
    @given(allocations, channel_specs)
    @settings(max_examples=40, deadline=None)
    def test_rates_never_exceed_capacity(self, allocation, specs):
        specs = [(s, d, t) for s, d, t in specs if s != d]
        if not specs:
            return
        transport, _ = _run_transport(
            allocation, specs, "incremental", check=_assert_rates_conserve_capacity
        )
        assert transport.active_flows == 0
        assert len(transport.records) == len(specs)

    @given(allocations, channel_specs)
    @settings(max_examples=40, deadline=None)
    def test_reference_allocator_conserves_capacity_too(self, allocation, specs):
        specs = [(s, d, t) for s, d, t in specs if s != d]
        if not specs:
            return
        _run_transport(
            allocation, specs, "reference", check=_assert_rates_conserve_capacity
        )

    @given(allocations, channel_specs)
    @settings(max_examples=25, deadline=None)
    def test_incremental_matches_reference_makespan(self, allocation, specs):
        specs = [(s, d, t) for s, d, t in specs if s != d]
        if not specs:
            return
        results = {}
        for allocator in ALL_ALLOCATORS:
            transport, engine = _run_transport(allocation, specs, allocator)
            results[allocator] = (engine.now, len(transport.records))
        for allocator in ALL_ALLOCATORS[1:]:
            assert results[allocator][1] == results["incremental"][1]
            assert abs(results[allocator][0] - results["incremental"][0]) <= 1e-6

    @given(allocations, channel_specs)
    @settings(max_examples=25, deadline=None)
    def test_all_allocators_bitwise_identical(self, allocation, specs):
        """reference/incremental/vectorized: bitwise-equal rate timelines,
        dispatched events (heap sequence numbers included), channel records,
        completion order and makespan on random scenarios."""
        specs = [(s, d, t) for s, d, t in specs if s != d]
        if not specs:
            return
        outcomes = {}
        for allocator in ALL_ALLOCATORS:
            bus = TraceBus(kinds=[FlowRateChanged.kind, EventDispatched.kind])
            transport, engine = _run_transport(allocation, specs, allocator, trace=bus)
            outcomes[allocator] = {
                # Records are frozen dataclasses: == is exact field (bitwise
                # float) equality, so this pins the full rate timeline and
                # event stream, not just the makespan.
                "rates": list(bus.records),
                "channels": [tuple(sorted(vars(r).items())) for r in transport.records],
                "now": engine.now,
            }
        baseline = outcomes["reference"]
        for allocator in ("incremental", "vectorized"):
            assert outcomes[allocator]["rates"] == baseline["rates"], allocator
            assert outcomes[allocator]["channels"] == baseline["channels"], allocator
            assert outcomes[allocator]["now"] == baseline["now"], allocator

    @given(allocations, channel_specs)
    @settings(max_examples=25, deadline=None)
    def test_utilisation_report_never_needs_its_clamp(self, allocation, specs):
        specs = [(s, d, t) for s, d, t in specs if s != d]
        if not specs:
            return
        transport, engine = _run_transport(allocation, specs, "incremental")
        elapsed = engine.now
        if elapsed <= 0:
            return
        raw = transport.utilisation_report(elapsed, clamp=False)
        clamped = transport.utilisation_report(elapsed)
        for kind, value in raw.items():
            assert 0.0 <= value <= 1.0 + EPS, f"{kind} utilisation {value} needs the clamp"
            assert clamped[kind] <= 1.0


# --------------------------------------------------------------------------
# Three-way allocator parity on multi-path fabrics under every routing policy

#: (fabric kwargs, host count) — small instances so hypothesis stays fast.
FABRIC_CONFIGS = (
    ({"topology_kind": "fat_tree", "width": 4}, 16),
    ({"topology_kind": "leaf_spine", "width": 3, "height": 2,
      "topology_options": {"hosts_per_leaf": 2}}, 6),
)

ROUTING_POLICIES = ("ecmp", "least_loaded", "adaptive")

#: (host-index pair, start-delay) triples; indices reduced mod host count.
fabric_channel_specs = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=1023),
        st.integers(min_value=0, max_value=1023),
        st.floats(min_value=0.0, max_value=5000.0),
    ),
    min_size=1,
    max_size=8,
)


def _run_fabric_transport(config, policy, specs, allocator, trace=None):
    kwargs, hosts = config
    machine = QuantumMachine(
        allocation=ResourceAllocation(2, 2, 1),
        routing_policy=policy,
        **kwargs,
    )
    engine = SimulationEngine(trace=trace)
    transport = FlowTransport(engine, machine, allocator=allocator)
    for qubit, (ia, ib, delay) in enumerate(specs):
        source = machine.topology.host(ia % hosts)
        dest = machine.topology.host(ib % hosts)
        planned = _planned(machine, source, dest, qubit)
        engine.schedule(delay, lambda p=planned: transport.start(p, lambda: None))
    engine.run()
    return transport, engine


class TestFabricAllocatorParity:
    @given(
        st.sampled_from(FABRIC_CONFIGS),
        st.sampled_from(ROUTING_POLICIES),
        fabric_channel_specs,
    )
    @settings(max_examples=30, deadline=None)
    def test_all_allocators_bitwise_identical_under_balancing(
        self, config, policy, specs
    ):
        """Load-balanced multi-path routing must not break the allocator
        equivalence: on random fat-tree/leaf-spine channel mixes, every
        policy yields bitwise-equal rate timelines, channel records and
        makespans across reference/incremental/vectorized."""
        hosts = config[1]
        specs = [(a, b, t) for a, b, t in specs if a % hosts != b % hosts]
        if not specs:
            return
        outcomes = {}
        for allocator in ALL_ALLOCATORS:
            bus = TraceBus(kinds=[FlowRateChanged.kind, RouteChosen.kind])
            transport, engine = _run_fabric_transport(
                config, policy, specs, allocator, trace=bus
            )
            outcomes[allocator] = {
                "trace": list(bus.records),
                "channels": [tuple(sorted(vars(r).items())) for r in transport.records],
                "now": engine.now,
            }
        baseline = outcomes["reference"]
        routes = [r for r in baseline["trace"] if r.kind == RouteChosen.kind]
        assert len(routes) == len(specs)
        assert all(r.policy == policy for r in routes)
        for allocator in ("incremental", "vectorized"):
            assert outcomes[allocator]["trace"] == baseline["trace"], allocator
            assert outcomes[allocator]["channels"] == baseline["channels"], allocator
            assert outcomes[allocator]["now"] == baseline["now"], allocator


# --------------------------------------------------------------------------
# FlowPack CSR structure round-trip properties (satellite: vectorized plane)

np = pytest.importorskip("numpy")

from repro.errors import SimulationError  # noqa: E402
from repro.sim.flowpack import FlowPack  # noqa: E402

PACK_KINDS = ("alpha", "beta")

#: Per-flow demand maps over a small interned key space.  Work values are
#: drawn from a fixed palette so exact float comparison is meaningful; its
#: decimal values make a column's sum depend on the order it is taken in.
pack_demands = st.lists(
    st.dictionaries(
        st.tuples(st.sampled_from(PACK_KINDS), st.integers(min_value=0, max_value=5)),
        st.sampled_from([0.1, 0.3, 0.5, 0.7, 1.0, 2.0, 3.25]),
        min_size=1,
        max_size=4,
    ),
    min_size=1,
    max_size=12,
)


def _capacity_of(key):
    kind, index = key
    return 4.0 + index + (0.5 if kind == "beta" else 0.0)


#: The pack's resource id of each key: one id block per kind.
PACK_IDS = {
    (kind, index): block * 6 + index for block, kind in enumerate(PACK_KINDS) for index in range(6)
}


def _new_pack():
    return FlowPack(
        [_capacity_of(key) for key in PACK_IDS],
        [PACK_KINDS.index(kind) for kind, _ in PACK_IDS],
        PACK_KINDS,
    )


def _ids(demands):
    """A demand map as the (ids, works) the pack takes, in the map's order."""
    return [PACK_IDS[key] for key in demands], list(demands.values())


def _build_pack(demand_maps):
    pack = _new_pack()
    for flow_id, demands in enumerate(demand_maps):
        pack.add_flow(
            flow_id,
            *_ids(demands),
            remaining=1.0 + flow_id,
            start_us=10.0 * flow_id,
            floor_us=float(flow_id % 3),
        )
    return pack


def _assert_packs_identical(a, b):
    assert a.arrays()["col_id"].tolist() == b.arrays()["col_id"].tolist()
    left, right = a.arrays(), b.arrays()
    assert left.keys() == right.keys()
    for name in left:
        assert np.array_equal(left[name], right[name]), name


#: Residual capacity below which a resource counts as saturated.
SATURATION_EPS = 1e-12


def _progressive_filling(demand_maps, live):
    """Max-min rates of the ``live`` flows by plain-Python progressive filling.

    Each resource's demand is summed one flow at a time in flow-id order, the
    order in which the kernel's ``bincount`` accumulates a column.
    """
    rates = dict.fromkeys(live, 0.0)
    cap_left = {}
    for flow_id in live:
        for key in demand_maps[flow_id]:
            cap_left.setdefault(key, _capacity_of(key))
    unfrozen = list(live)
    for _ in range(len(live) + 1):
        if not unfrozen:
            break
        denom = {}
        for key in cap_left:
            total = 0.0
            for flow_id in unfrozen:
                if key in demand_maps[flow_id]:
                    total += demand_maps[flow_id][key]
            denom[key] = total
        contended = [key for key in cap_left if denom[key] > 0.0]
        if not contended:
            for flow_id in unfrozen:
                rates[flow_id] += 1.0
            break
        delta = min(cap_left[key] / denom[key] for key in contended)
        for flow_id in unfrozen:
            rates[flow_id] += delta
        for key in contended:
            cap_left[key] -= delta * denom[key]
        saturated = {key for key in contended if cap_left[key] <= SATURATION_EPS}
        frozen = {flow_id for flow_id in unfrozen if saturated & demand_maps[flow_id].keys()}
        if not frozen:
            break
        unfrozen = [flow_id for flow_id in unfrozen if flow_id not in frozen]
    return rates


def _assert_kernel_matches_filling(pack, demand_maps, live):
    rates = pack.max_min_rates(SATURATION_EPS)
    expected = _progressive_filling(demand_maps, live)
    assert {fid: float(rates[pack.row_of(fid)]).hex() for fid in live} == {
        fid: rate.hex() for fid, rate in expected.items()
    }
    assert not rates[~pack.arrays()["row_active"]].any()


class TestFlowPackStructure:
    @given(pack_demands, st.data())
    @settings(max_examples=60, deadline=None)
    def test_remove_compact_matches_fresh_rebuild(self, demand_maps, data):
        """add → remove subset → compact yields the exact arrays a fresh
        build over only the survivors would produce."""
        pack = _build_pack(demand_maps)
        doomed = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=len(demand_maps) - 1), unique=True
            )
        )
        for flow_id in doomed:
            pack.remove_flow(flow_id)
        rebuilt = pack.rebuild(lambda fid: _ids(demand_maps[fid]))
        pack.compact()
        _assert_packs_identical(pack, rebuilt)
        assert pack.n_flows == len(demand_maps) - len(doomed)

    @given(pack_demands, st.data())
    @settings(max_examples=60, deadline=None)
    def test_max_min_rates_match_plain_progressive_filling(self, demand_maps, data):
        """The kernel's rates equal a plain-Python filling bit for bit, with
        and without tombstoned rows and after compaction."""
        pack = _build_pack(demand_maps)
        live = list(range(len(demand_maps)))
        _assert_kernel_matches_filling(pack, demand_maps, live)
        doomed = data.draw(st.sets(st.sampled_from(live)))
        for flow_id in sorted(doomed):
            pack.remove_flow(flow_id)
        live = [flow_id for flow_id in live if flow_id not in doomed]
        _assert_kernel_matches_filling(pack, demand_maps, live)
        pack.compact()
        _assert_kernel_matches_filling(pack, demand_maps, live)

    def test_column_saturating_below_zero_leaves_the_next_round_alone(self):
        """A column that saturates at a negative residual while another
        column stays contended: the next round must not divide by it."""
        demand_maps = [{("beta", 1): 0.1}] * 3 + [{("alpha", 0): 0.1}]
        denom = 0.1 + 0.1 + 0.1
        assert _capacity_of(("beta", 1)) - _capacity_of(("beta", 1)) / denom * denom < 0.0
        _assert_kernel_matches_filling(_build_pack(demand_maps), demand_maps, [0, 1, 2, 3])

    def test_every_live_row_freezing_in_one_round(self):
        """Both live rows share the first bottleneck; a tombstoned row still
        holds entries on the other column."""
        demand_maps = [
            {("alpha", 0): 1.0},
            {("alpha", 0): 2.0, ("beta", 2): 0.5},
            {("beta", 2): 3.25},
        ]
        pack = _build_pack(demand_maps)
        pack.remove_flow(2)
        _assert_kernel_matches_filling(pack, demand_maps, [0, 1])

    @given(pack_demands)
    @settings(max_examples=40, deadline=None)
    def test_advance_clamps_remaining_at_zero(self, demand_maps):
        pack = _build_pack(demand_maps)
        pack.reallocate(1e-12)
        pack.advance(1e12)
        remaining = pack.arrays()["remaining"]
        assert (remaining >= 0.0).all()

    def test_duplicate_and_non_monotonic_flow_ids_rejected(self):
        pack = _new_pack()
        pack.add_flow(3, *_ids({("alpha", 0): 1.0}))
        with pytest.raises(SimulationError):
            pack.add_flow(3, *_ids({("alpha", 0): 1.0}))
        with pytest.raises(SimulationError):
            pack.add_flow(2, *_ids({("alpha", 1): 1.0}))
