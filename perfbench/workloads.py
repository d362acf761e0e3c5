"""The benchmark's workloads and the check of their simulated outputs.

Each workload is a list of raw scenario mappings generated from the seed.
One repetition resolves them into specs and runs them through the public
API (``repro.api.run`` or ``repro.api.sweep``), as a one-shot user would.
Simulated outputs (makespans, channel counts, request outcomes, simulated
latencies, utilisation) are not metrics: a change that only touches host
performance must leave them bitwise identical, so they are checked against
the digests pinned in ``expected.json`` and against a set of invariants.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import api
from repro.scenarios.catalog import catalog_entry, default_grid, list_scenarios
from repro.scenarios.loader import resolve_scenario
from repro.scenarios.run import RunResult, build_stream
from repro.scenarios.spec import ScenarioSpec, apply_overrides

Entry = Tuple[str, Dict[str, Any]]
Record = Dict[str, Any]

_PHYSICS = {"teleporters": 2, "generators": 2, "purifiers": 1}


def _fattree_permutation(seed: int) -> List[Entry]:
    # k=12 fat tree: 432 hosts, every one of them an endpoint of the matching.
    return [
        (
            "fattree_permutation",
            {
                "topology": {"kind": "fat_tree", "width": 12},
                "workload": {"kind": "permutation", "num_qubits": 432, "params": {"seed": seed}},
                "physics": dict(_PHYSICS),
                "runtime": {"layout": "home_base", "allocator": "vectorized"},
                "network": {"routing": {"policy": "ecmp"}},
            },
        )
    ]


def _detailed_paper(seed: int) -> List[Entry]:
    return [
        (name, apply_overrides(catalog_entry(name), {"runtime.backend": "detailed"}))
        for name in ("paper_baseline", "paper_mobile")
    ]


def _catalog_sweep(seed: int) -> List[Entry]:
    entries: List[Entry] = [
        (name, catalog_entry(name)) for name in list_scenarios() if "traffic" not in catalog_entry(name)
    ]
    for spec in default_grid():
        data = spec.to_dict()
        if spec.workload.kind == "permutation":
            data = apply_overrides(data, {"workload.params.seed": seed})
        entries.append((spec.name, data))
    base = catalog_entry("ring_qft")
    base.pop("description")
    for teleporters in (1, 2, 4):
        for generators in (1, 2, 4):
            for purifiers in (1, 2):
                for layout in ("home_base", "mobile_qubit"):
                    for scale in (1.0, 2.0):
                        overrides = {
                            "physics.teleporters": teleporters,
                            "physics.generators": generators,
                            "physics.purifiers": purifiers,
                            "runtime.layout": layout,
                            "physics.generator_bandwidth_scale": scale,
                        }
                        name = f"fig16/t{teleporters}g{generators}p{purifiers}-{layout}-x{scale:g}"
                        entries.append((name, apply_overrides(base, overrides)))
    return _distinct(entries)


def _service_queue_bound(seed: int) -> List[Entry]:
    # Offered load exceeds what 32 in-flight requests can deliver on this
    # mesh, so the queue sits at its bound and drops are steady.
    traffic = {
        "duration_us": 8.0e6,
        "seed": seed,
        "max_inflight": 32,
        "admission": "queue_bound",
        "queue_limit": 64,
        "scheduler": "fidelity",
        "tenants": {
            "bulk": {
                "arrival_process": "poisson",
                "mean_interarrival_us": 4000.0,
                "size_dist": "pareto",
                "channels": 1,
                "max_channels": 4,
                "alpha": 1.5,
            },
            "latency": {
                "arrival_process": "fixed",
                "mean_interarrival_us": 6000.0,
                "channels": 1,
                "priority": 1,
                "target_fidelity": 0.9999,
            },
        },
    }
    return [
        (
            "service_queue_bound",
            {
                "topology": {"kind": "mesh", "width": 8},
                "workload": {"kind": "qft", "num_qubits": 16},
                "physics": dict(_PHYSICS),
                "runtime": {"layout": "home_base", "allocator": "vectorized"},
                "traffic": traffic,
            },
        )
    ]


def _distinct(entries: List[Entry]) -> List[Entry]:
    """Drop entries whose resolved spec repeats an earlier one (a sweep runs it once)."""
    seen = set()
    kept = []
    for name, data in entries:
        key = resolve_scenario(data, name=name).spec_hash
        if key not in seen:
            seen.add(key)
            kept.append((name, data))
    return kept


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    entries: Callable[[int], List[Entry]]
    #: Whether ``--seed`` changes the inputs (pinned outputs are per seed).
    seeded: bool
    #: Run the specs as one journaled ``api.sweep`` rather than ``api.run`` each.
    sweep: bool = False


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "fattree_permutation",
            "432-host k=12 fat tree, ECMP, vectorized allocator: deep max-min incidence and candidate-path building",
            _fattree_permutation,
            seeded=True,
        ),
        Workload(
            "detailed_paper",
            "Home Base and Mobile Qubit paper machines on the per-pair detailed backend: event kernel and "
            "ServiceCenter bound",
            _detailed_paper,
            seeded=False,
        ),
        Workload(
            "catalog_sweep",
            "86 batch points (catalog, default grid, Figure 16 grid) in a journaled one-process sweep: "
            "per-run overhead, warm-start",
            _catalog_sweep,
            seeded=True,
            sweep=True,
        ),
        Workload(
            "service_queue_bound",
            "Open-loop two-tenant service at its queue bound on an 8x8 mesh: admission, trace bus, shallow "
            "frequent reallocation",
            _service_queue_bound,
            seeded=True,
        ),
    )
}


def resolve(entries: Sequence[Entry]) -> List[ScenarioSpec]:
    return [resolve_scenario(data, name=name) for name, data in entries]


def execute(workload: Workload, entries: Sequence[Entry], journal: str) -> List[Any]:
    """One repetition: resolve the specs and run them (the timed region)."""
    specs = resolve(entries)
    if workload.sweep:
        return api.sweep(specs, workers=1, use_cache=False, journal=journal)
    results: List[Any] = []
    for spec in specs:
        try:
            results.append(api.run(spec))
        except Exception as exc:  # a failed run is counted, as a failed sweep point is
            results.append({"name": spec.name, "error": repr(exc)})
    return results


def records(results: Sequence[Any]) -> List[Record]:
    """Flat records of one repetition's results."""
    return [result.flat_record() if isinstance(result, RunResult) else result for result in results]


def expected_operations(entries: Sequence[Entry]) -> Dict[str, Optional[int]]:
    """Operations each batch entry must complete (``None`` for service entries)."""
    counts: Dict[str, Optional[int]] = {}
    for spec in resolve(entries):
        counts[spec.name] = None if spec.traffic is not None else len(build_stream(spec).operations)
    return counts


def _channels(record: Record) -> int:
    if "offered" in record:
        return sum(int(tenant["completed_channels"]) for tenant in record["tenants"].values())
    return int(record["channel_count"])


def simulated_outputs(record: Record) -> Dict[str, Any]:
    """The simulated (not host-time) outputs of one run, as pinned."""
    if "offered" in record:
        keys = ("offered", "admitted", "dropped", "completed", "latency_p50_us", "latency_p99_us", "makespan_us")
    else:
        keys = ("operations", "channel_count", "total_hops", "classical_messages", "makespan_us")
    outputs = {key: record[key] for key in keys}
    outputs["name"] = record["name"]
    outputs["channels"] = _channels(record)
    outputs["utilisation"] = record["utilisation"]
    return outputs


def digest(outputs: Sequence[Dict[str, Any]]) -> str:
    """Stable hash of a repetition's simulated outputs (floats compared bitwise)."""
    return hashlib.sha256(json.dumps(list(outputs), sort_keys=True).encode()).hexdigest()


def problems(record: Record, operations: Optional[int]) -> List[str]:
    """Invariant violations of one run's record; empty when it is sound."""
    if "error" in record:
        return [f"raised: {record['error']}"]
    found = []
    makespan = record["makespan_us"]
    if not (math.isfinite(makespan) and makespan > 0):
        found.append(f"makespan {makespan!r}")
    for resource, share in record["utilisation"].items():
        if not (math.isfinite(share) and 0.0 <= share <= 1.0):
            found.append(f"utilisation[{resource}] = {share!r}")
    if "offered" in record:
        if record["admitted"] + record["dropped"] != record["offered"]:
            found.append("admitted + dropped != offered")
        if record["completed"] != record["admitted"]:
            found.append("an admitted request did not complete")
        if not record["latency_p50_us"] <= record["latency_p99_us"]:
            found.append("latency p50 > p99")
    elif record["operations"] != operations:
        found.append(f"{record['operations']} of {operations} operations completed")
    return found


def work(workload_records: Sequence[Record]) -> Dict[str, int]:
    """What one repetition completed: scenario runs, channels, requests.

    A request is an offered service request in service mode and a workload
    operation (a two-qubit gate whose operands the network must bring
    together) in batch mode.
    """
    return {
        "points": len(workload_records),
        "channels": sum(_channels(record) for record in workload_records),
        "requests": sum(int(record.get("offered", record.get("operations", 0))) for record in workload_records),
    }


def failed_units(workload_records: Sequence[Record], failed_names: Sequence[str]) -> Tuple[int, int]:
    """(attempted, failed) operations: runs and sweep points, or service requests."""
    attempted = failed = 0
    for record in workload_records:
        units = int(record["offered"]) if "offered" in record else 1
        attempted += units
        if record["name"] in failed_names:
            failed += units
    return attempted, failed
