"""Allocator scaling at 1000+ concurrent flows: vectorized vs incremental.

The incremental allocator made the 64-channel regime cheap (see
``bench_flow_scaling.py``), but its per-reallocation cost still walks Python
dicts over every member flow of every contended resource — at 1000 concurrent
flows that is minutes per run.  The vectorized allocator packs the same
flow×resource incidence into :class:`~repro.sim.flowpack.FlowPack`'s CSR
arrays and runs progressive filling as numpy kernels.  This benchmark pins:

* **speed** — the vectorized allocator is ≥5x faster than incremental with
  1000 concurrent flows in flight (measured ~20x on the start storm and
  ~13x on the full run on the reference machine);
* **fidelity** — per-flow rates after the 1000-start storm are **bitwise**
  identical between the two allocators, as are the full-run makespan and
  channel records at a smaller scale (the bitwise contract has no
  tolerance — the property suite and ``repro verify`` pin it elsewhere).

Run with:  pytest benchmarks/bench_allocator_scaling.py -s -q
"""

import random
import time

from repro.network.geometry import Coordinate
from repro.network.layout import CommRequest
from repro.scenarios import build_machine, get_scenario
from repro.scenarios.spec import ScenarioSpec, apply_overrides
from repro.sim.control import PlannedCommunication
from repro.sim.engine import SimulationEngine
from repro.sim.flow import FlowTransport

#: Contention scenario: 1000 random channels on a 24x24 mesh with the paper's
#: scarce (2, 2, 1) per-node allocation, all in flight at once.
CONTENTION_GRID = 24
FLOW_COUNT = 1000
PAIR_SEED = 20060618

#: Full-run parity scale (start + completion storms, both allocators).
PARITY_FLOW_COUNT = 200

REQUIRED_VECTORIZED_SPEEDUP = 5.0


def _contention_spec(width=CONTENTION_GRID):
    """The contention machine as a ScenarioSpec, built by ``build_machine``."""
    base = get_scenario("smoke").to_dict()
    data = apply_overrides(
        base,
        {
            "topology.width": width,
            "physics.teleporters": 2,
            "physics.generators": 2,
            "physics.purifiers": 1,
        },
    )
    return ScenarioSpec.from_dict(data, name="alloc_contention")


def _random_pairs(count, width, seed=PAIR_SEED):
    rng = random.Random(seed)
    pairs = []
    while len(pairs) < count:
        source = Coordinate(rng.randrange(width), rng.randrange(width))
        dest = Coordinate(rng.randrange(width), rng.randrange(width))
        if source != dest:
            pairs.append((source, dest))
    return pairs


def _schedule_all(machine, engine, transport, pairs):
    for qubit, (source, dest) in enumerate(pairs):
        plan = machine.planner.plan(source, dest)
        planned = PlannedCommunication(
            request=CommRequest(source=source, dest=dest, qubit=qubit), plan=plan
        )
        engine.schedule(float(qubit), lambda p=planned: transport.start(p, lambda: None))


def _start_storm(allocator, pairs):
    """Dispatch exactly the ``len(pairs)`` start events; return wall + state.

    The storm is the allocator-bound regime: every start triggers a full
    reallocation over all flows admitted so far.  State is captured as the
    exact per-flow rate map and per-resource load map for bitwise comparison.
    """
    machine = build_machine(_contention_spec())
    engine = SimulationEngine()
    transport = FlowTransport(engine, machine, allocator=allocator)
    _schedule_all(machine, engine, transport, pairs)
    start = time.perf_counter()
    for _ in range(len(pairs)):
        assert engine.step()
    wall = time.perf_counter() - start
    rates = {flow_id: transport._plane.rate_of(flow_id) for flow_id in transport._flows}
    return wall, transport.active_flows, rates, transport.resource_loads()


def test_vectorized_speedup_at_1000_concurrent_flows():
    pairs = _random_pairs(FLOW_COUNT, CONTENTION_GRID)
    walls = {}
    states = {}
    for allocator in ("incremental", "vectorized"):
        wall, active, rates, loads = _start_storm(allocator, pairs)
        assert active == FLOW_COUNT
        walls[allocator] = wall
        states[allocator] = (rates, loads)
    speedup = walls["incremental"] / walls["vectorized"]
    print(
        f"\n1000-flow start storm ({CONTENTION_GRID}x{CONTENTION_GRID} mesh, 2/2/1):\n"
        f"  incremental: {walls['incremental']:7.2f}s\n"
        f"  vectorized : {walls['vectorized']:7.2f}s\n"
        f"  speedup    : {speedup:7.1f}x"
    )
    # Bitwise state parity over all 1000 concurrent flows: same rates, same
    # per-resource loads, bit for bit.
    assert states["vectorized"][0] == states["incremental"][0]
    assert states["vectorized"][1] == states["incremental"][1]
    assert speedup >= REQUIRED_VECTORIZED_SPEEDUP


def test_full_run_bitwise_parity_at_200_flows():
    """Start *and* completion storms: identical makespan and channel records."""
    pairs = _random_pairs(PARITY_FLOW_COUNT, CONTENTION_GRID)
    finals = {}
    for allocator in ("incremental", "vectorized"):
        machine = build_machine(_contention_spec())
        engine = SimulationEngine()
        transport = FlowTransport(engine, machine, allocator=allocator)
        _schedule_all(machine, engine, transport, pairs)
        engine.run()
        records = [tuple(sorted(vars(r).items())) for r in transport.records]
        finals[allocator] = (engine.now, records)
        assert transport.active_flows == 0
        assert len(records) == PARITY_FLOW_COUNT
    assert finals["vectorized"][0] == finals["incremental"][0]  # bitwise
    assert finals["vectorized"][1] == finals["incremental"][1]
    print(f"\n200-flow full run: makespan={finals['vectorized'][0]:.3f} us (bitwise equal)")

