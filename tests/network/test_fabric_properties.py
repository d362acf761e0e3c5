"""Property tests for the big-fabric path enumeration and load balancers.

The multi-path fabrics promise a deterministic candidate enumeration (every
path loop-free, endpoint-to-endpoint, minimal candidates first with one
consistent hop length per equal-cost class) and the balancers promise
deterministic, well-distributed choices over it.  Hypothesis drives random
endpoint pairs and load maps; a subprocess round-trip pins the ECMP hash to
the process boundary, where ``hash()``-based schemes historically broke
(PYTHONHASHSEED).
"""

import json
import os
import subprocess
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.fabrics import build_topology
from repro.network.layout import CommRequest
from repro.network.routing import (
    EcmpBalancer,
    LeastLoadedBalancer,
    Path,
    create_balancer,
)
from repro.sim.control import PlannedCommunication
from repro.sim.engine import SimulationEngine
from repro.sim.flow import FlowTransport
from repro.sim.machine import QuantumMachine

REPO_SRC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")

#: One instance of each hierarchical fabric, shared across examples (the
#: enumeration is pure, so reuse is safe and keeps hypothesis fast).
FABRICS = {
    "fat_tree": build_topology("fat_tree", 4),
    "leaf_spine": build_topology("leaf_spine", 4, 2, hosts_per_leaf=3),
    "dragonfly": build_topology("dragonfly", 4, 2, hosts_per_router=1),
}

fabric_names = st.sampled_from(sorted(FABRICS))


def _host_pair(topology, draw_a, draw_b):
    """Two distinct hosts from draws over [0, qubit_capacity)."""
    a = draw_a % topology.qubit_capacity
    b = draw_b % topology.qubit_capacity
    if a == b:
        b = (b + 1) % topology.qubit_capacity
    return topology.host(a), topology.host(b)


class TestPathEnumeration:
    @given(fabric_names, st.integers(0, 1023), st.integers(0, 1023))
    @settings(max_examples=150, deadline=None)
    def test_paths_are_loop_free_and_connect_endpoints(self, name, ia, ib):
        topology = FABRICS[name]
        source, destination = _host_pair(topology, ia, ib)
        candidates = topology.enumerate_paths(source, destination)
        assert candidates, f"{name}: no candidates for {source}->{destination}"
        for path in candidates:
            assert path.nodes[0] == source
            assert path.nodes[-1] == destination
            assert len(set(path.nodes)) == len(path.nodes), "loop in path"
            for a, b in zip(path.nodes, path.nodes[1:]):
                assert topology.are_adjacent(a, b), f"{a}->{b} not a fabric link"

    @given(fabric_names, st.integers(0, 1023), st.integers(0, 1023))
    @settings(max_examples=150, deadline=None)
    def test_equal_cost_class_has_one_hop_length(self, name, ia, ib):
        # The enumeration leads with a minimal candidate and the class ECMP
        # hashes over (every candidate at the minimum hop count — a Valiant
        # detour may tie it on a dragonfly) is genuinely equal-cost.
        topology = FABRICS[name]
        source, destination = _host_pair(topology, ia, ib)
        candidates = topology.enumerate_paths(source, destination)
        shortest = min(path.hops for path in candidates)
        assert candidates[0].hops == shortest
        minimal = [path for path in candidates if path.hops == shortest]
        assert len({path.hops for path in minimal}) == 1
        # The class is stated without building a path, and it is exact.
        assert list(candidates.equal_cost) == [
            i for i, path in enumerate(candidates) if path.hops == shortest
        ]
        # Candidate sets never repeat a path.
        names = [path.stable_name for path in candidates]
        assert len(set(names)) == len(names)

    def test_dragonfly_equal_cost_class_need_not_be_a_prefix(self):
        # Hosts 0 and 4 sit in groups 0 and 2.  The direct route needs a
        # local hop to reach group 0's gateway; the detour through group 3
        # leaves and enters on the endpoints' own routers and ties it.
        topology = FABRICS["dragonfly"]
        candidates = topology.enumerate_paths(topology.host(0), topology.host(4))
        assert [path.hops for path in candidates] == [4, 6, 4]
        assert list(candidates.equal_cost) == [0, 2]

    @given(fabric_names, st.integers(0, 1023), st.integers(0, 1023))
    @settings(max_examples=60, deadline=None)
    def test_enumeration_is_deterministic(self, name, ia, ib):
        topology = FABRICS[name]
        source, destination = _host_pair(topology, ia, ib)
        first = topology.enumerate_paths(source, destination)
        second = topology.enumerate_paths(source, destination)
        assert [p.stable_name for p in first] == [p.stable_name for p in second]


class TestEcmp:
    @given(st.integers(0, 2**31), fabric_names, st.integers(0, 1023), st.integers(0, 1023))
    @settings(max_examples=100, deadline=None)
    def test_choice_stays_in_minimal_class(self, flow_id, name, ia, ib):
        topology = FABRICS[name]
        source, destination = _host_pair(topology, ia, ib)
        candidates = topology.enumerate_paths(source, destination)
        index = EcmpBalancer().choose(flow_id, source, destination, candidates, {})
        shortest = min(path.hops for path in candidates)
        assert candidates[index].hops == shortest

    def test_uniform_within_20_percent_over_1k_flows(self):
        # A cross-pod fat-tree pair has 4 equal-cost candidates; 1000 flows
        # should land 250 +/- 20% on each.
        topology = FABRICS["fat_tree"]
        source, destination = topology.host(0), topology.host(15)
        candidates = topology.enumerate_paths(source, destination)
        assert len(candidates) == 4
        balancer = EcmpBalancer()
        counts = [0] * len(candidates)
        for flow_id in range(1000):
            counts[balancer.choose(flow_id, source, destination, candidates, {})] += 1
        expected = 1000 / len(candidates)
        for count in counts:
            assert abs(count - expected) <= expected * 0.20, counts

    def test_deterministic_across_processes(self):
        # The hash must not depend on PYTHONHASHSEED or process state: a
        # fresh interpreter (with a scrambled hash seed) replays the exact
        # same choices.
        topology = FABRICS["fat_tree"]
        cases = [(flow_id, 0, 15 - flow_id % 8) for flow_id in range(24)]
        local = []
        balancer = EcmpBalancer()
        for flow_id, a, b in cases:
            source, destination = topology.host(a), topology.host(b)
            candidates = topology.enumerate_paths(source, destination)
            local.append(balancer.choose(flow_id, source, destination, candidates, {}))
        script = (
            "import json, sys\n"
            "from repro.network.fabrics import build_topology\n"
            "from repro.network.routing import EcmpBalancer\n"
            "topology = build_topology('fat_tree', 4)\n"
            "balancer = EcmpBalancer()\n"
            "out = []\n"
            "for flow_id, a, b in json.loads(sys.argv[1]):\n"
            "    s, d = topology.host(a), topology.host(b)\n"
            "    cands = topology.enumerate_paths(s, d)\n"
            "    out.append(balancer.choose(flow_id, s, d, cands, {}))\n"
            "print(json.dumps(out))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
        env["PYTHONHASHSEED"] = "12345"  # would skew any hash()-based scheme
        result = subprocess.run(
            [sys.executable, "-c", script, json.dumps(cases)],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        assert json.loads(result.stdout) == local


class TestEcmpAdmission:
    def test_admission_builds_only_the_paths_it_reads(self, monkeypatch):
        # A cross-pod pair of a k=8 fat tree has 16 equal-cost candidates.
        # Admitting an ECMP channel reads two of them: the planner's default
        # route (candidate 0) and the hashed pick.
        machine = QuantumMachine(8, topology_kind="fat_tree", routing_policy="ecmp")
        topology = machine.topology
        transport = FlowTransport(SimulationEngine(), machine, allocator="vectorized")
        # Hosts i and i + 16 lie in adjacent pods (16 hosts per pod).
        pairs = [(topology.host(i), topology.host(i + 16)) for i in range(48)]
        built = []
        post_init = Path.__post_init__

        def counting_post_init(path):
            built.append(path)
            post_init(path)

        monkeypatch.setattr(Path, "__post_init__", counting_post_init)
        for qubit, (source, dest) in enumerate(pairs):
            planned = PlannedCommunication(
                request=CommRequest(source=source, dest=dest, qubit=qubit),
                plan=machine.planner.plan(source, dest),
            )
            transport.start(planned, lambda: None)
        assert transport.active_flows == len(pairs)
        assert {len(machine.planner.candidates(*pair)) for pair in pairs} == {16}
        assert len(built) <= 2 * len(pairs)


class TestLeastLoaded:
    @given(
        fabric_names,
        st.integers(0, 1023),
        st.integers(0, 1023),
        st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_never_picks_a_strictly_dominated_path(self, name, ia, ib, data):
        topology = FABRICS[name]
        source, destination = _host_pair(topology, ia, ib)
        candidates = topology.enumerate_paths(source, destination)
        links = sorted(
            {link for path in candidates for link in path.links},
            key=lambda link: link.stable_name,
        )
        loads = {
            link: data.draw(st.integers(0, 6), label=link.stable_name)
            for link in links
        }
        index = LeastLoadedBalancer().choose(1, source, destination, candidates, loads)

        def bottleneck(path):
            return max(loads.get(link, 0) for link in path.links)

        chosen = candidates[index]
        # Exact characterization: minimum bottleneck, then fewest hops.
        best = min(bottleneck(path) for path in candidates)
        assert bottleneck(chosen) == best
        assert chosen.hops == min(
            path.hops for path in candidates if bottleneck(path) == best
        )
        # Which implies no candidate strictly dominates the choice.
        for path in candidates:
            assert not (bottleneck(path) < bottleneck(chosen) and path.hops < chosen.hops)


class TestAdaptive:
    def test_hysteresis_keeps_hash_choice_under_light_imbalance(self):
        topology = FABRICS["fat_tree"]
        source, destination = topology.host(0), topology.host(15)
        candidates = topology.enumerate_paths(source, destination)
        balancer = create_balancer("adaptive", hysteresis=2.0)
        hashed = EcmpBalancer().choose(7, source, destination, candidates, {})
        # Load the hashed path's core segment by exactly the hysteresis: stay.
        loads = {link: 2 for link in candidates[hashed].links[1:-1]}
        assert balancer.choose(7, source, destination, candidates, loads) == hashed
        # One channel beyond the band: divert to a less-loaded candidate.
        loads = {link: 3 for link in candidates[hashed].links[1:-1]}
        diverted = balancer.choose(7, source, destination, candidates, loads)
        assert diverted != hashed
