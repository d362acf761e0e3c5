"""One benchmark process: cold set-up, then timed repetitions of a workload.

``perfbench/run.py`` starts several of these one after another and reads the
JSON report each prints as its last line of standard output.  Set-up ends
when this module has imported ``repro`` (every layer the tracer instruments
included) and resolved the workload's specs; the report carries that moment
on the system-wide monotonic clock, so the parent can time set-up from the
moment it started the process.

Every repetition starts from cold cross-run state: the warm-start cache is
cleared, the sweep journal is a fresh file and the result cache is off, as
for a user who runs the workload once.  The reference work of
:mod:`perfbench.reference` is timed between repetitions, on a collected heap,
and each repetition's wall time is also reported scaled to reference speed.
With ``--trace 1`` untraced and traced repetitions alternate, so the tracing
overhead is measured on the same process and the same inputs.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

import repro
from repro.scenarios.warmstart import global_cache

from . import workloads
from .reference import REFERENCE_S, reference_seconds
from .tracer import Tracer, instrument, layer_values

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXPECTED = os.path.join(ROOT, "perfbench", "expected.json")
#: Scratch space for sweep journals, inside the checkout.
WORK_DIR = os.path.join(ROOT, ".perfbench_work")


def pinned_digest(workload: workloads.Workload, seed: int) -> Optional[str]:
    """The pinned digest of this workload's simulated outputs, if there is one."""
    with open(EXPECTED, encoding="utf-8") as handle:
        pins = json.load(handle).get(workload.name, {})
    return pins.get(str(seed) if workload.seeded else "any")


def _quiesce() -> None:
    """Drop the previous repetition's state so it costs nothing in the next timing."""
    global_cache().clear()
    gc.collect()


class Repetitions:
    """Runs repetitions and checks every one's simulated outputs."""

    def __init__(self, workload: workloads.Workload, entries: Sequence[workloads.Entry], expected: Optional[str]):
        self.workload = workload
        self.entries = list(entries)
        self.operations = workloads.expected_operations(entries)
        #: Pinned digest, or else the first repetition's, which the rest must repeat.
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.work_dir = os.path.join(WORK_DIR, str(os.getpid()))
        os.makedirs(self.work_dir, exist_ok=True)
        self.count = 0
        _quiesce()
        self.first_reference_s = reference_seconds()
        #: The latest timing of the reference work; adjacent repetitions share it.
        self.reference_s = self.first_reference_s

    def run(self, tracer: Optional[Tracer] = None) -> Dict[str, Any]:
        """One repetition: its wall time, its wall time at reference speed, and its work."""
        _quiesce()
        before = self.reference_s
        sample = self._repetition(tracer)
        _quiesce()
        self.reference_s = reference_seconds()
        sample["scaled_wall_s"] = sample["wall_s"] * 2.0 * REFERENCE_S / (before + self.reference_s)
        return sample

    def _repetition(self, tracer: Optional[Tracer]) -> Dict[str, Any]:
        self.count += 1
        journal = os.path.join(self.work_dir, f"rep{self.count}.jsonl")
        try:
            if tracer is None:
                started = time.perf_counter()
                results = workloads.execute(self.workload, self.entries, journal)
                wall = time.perf_counter() - started
            else:
                with instrument(tracer):
                    started = time.perf_counter()
                    results = workloads.execute(self.workload, self.entries, journal)
                    wall = time.perf_counter() - started
                stats = global_cache().stats()
                tracer.count("scenarios.warmstart.hits", stats["hits"])
                tracer.count("scenarios.warmstart.misses", stats["misses"])
        finally:
            if os.path.exists(journal):
                os.remove(journal)
        records = workloads.records(results)
        self._check(records)
        sound = [record for record in records if "error" not in record]
        return {"wall_s": wall, **workloads.work(sound)}

    def _check(self, records: List[workloads.Record]) -> None:
        failed_names = []
        for record in records:
            found = workloads.problems(record, self.operations.get(record["name"]))
            if found:
                failed_names.append(record["name"])
                print(f"perfbench: {record['name']}: {'; '.join(found)}", file=sys.stderr)
        outputs = [workloads.simulated_outputs(record) for record in records if "error" not in record]
        digest = workloads.digest(outputs)
        if self.expected is None:
            self.expected = digest
        elif digest != self.expected:
            print(
                f"perfbench: simulated outputs differ from the expected {self.expected}: "
                f"{digest} {json.dumps(outputs, sort_keys=True)}",
                file=sys.stderr,
            )
            failed_names = [record["name"] for record in records]
        attempted, failed = workloads.failed_units(records, failed_names)
        self.attempted += attempted
        self.failed += failed

    def close(self) -> None:
        shutil.rmtree(self.work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):  # another worker may still use it
            os.rmdir(WORK_DIR)


def measure(reps: Repetitions, budget_s: float, trace: bool) -> Dict[str, List[Dict[str, Any]]]:
    """Repeat while another repetition would end nearer ``budget_s`` than stopping does.

    At least one repetition runs.  In trace mode untraced and traced
    repetitions alternate, and which one leads alternates too, so slow drift
    of the host's speed hits both alike.
    """
    untraced: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    started = time.perf_counter()
    while True:
        if not trace:
            untraced.append(reps.run())
        else:
            order = (False, True) if len(traced) % 2 == 0 else (True, False)
            for with_trace in order:
                if with_trace:
                    tracer = Tracer()
                    sample = reps.run(tracer)
                    sample["layers"] = layer_values(tracer)
                    sample["top_level_s"] = tracer.top_level_s
                    traced.append(sample)
                else:
                    untraced.append(reps.run())
        elapsed = time.perf_counter() - started
        step = elapsed / max(len(traced), len(untraced))
        if elapsed + step / 2 > budget_s:
            return {"untraced": untraced, "traced": traced}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True, help="seconds of repetitions")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.abspath(repro.__file__).startswith(os.path.join(ROOT, "src", "")):
        print(f"perfbench: repro was imported from {repro.__file__}, not from this checkout", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    entries = workload.entries(args.seed)
    workloads.resolve(entries)  # a user resolves the specs before the first run, too
    ready = time.monotonic()

    reps = Repetitions(workload, entries, pinned_digest(workload, args.seed))
    try:
        samples = measure(reps, args.budget, bool(args.trace))
    finally:
        reps.close()
    report = {
        "ready_monotonic": ready,
        # How much slower than reference speed the host ran right after set-up.
        "setup_scale": reps.first_reference_s / REFERENCE_S,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": reps.attempted,
        "failed": reps.failed,
        "digest": reps.expected,
        **samples,
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
