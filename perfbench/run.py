"""Run one benchmark workload and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload catalog_sweep --seed 0 --seconds 28 --trace 0

The run starts :data:`PROCESSES` fresh worker processes one after another
(``perfbench/worker.py``); each sets up from a cold interpreter and then
repeats the workload for its share of ``--seconds``.  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer ones.  A human-readable
summary goes to standard error and the last line of standard output is one
JSON object::

    {"correct": true, "attempted": 12, "failed": 0, "metrics": {"setup_s": {"value": 0.61, "unit": "s"}, ...}}

End-to-end times are in reference seconds: wall seconds scaled to the
host speed at which :mod:`perfbench.reference` takes its nominal time.
Throughputs are the work of all repetitions over their summed scaled wall
time, ``setup_s`` and ``peak_rss_mb`` the median over processes, and
per-layer values (unscaled seconds) the median over traced repetitions.  The exit code is 0 only when every
process ran; a process that cannot import ``repro`` makes the run fail
without printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench.metrics import COUNTERS, END_TO_END, LAYER_METRICS  # noqa: E402

#: Worker processes per run: each gives one cold set-up sample.
PROCESSES = 3
#: Every worker must have ended this long after the run started.
DEADLINE_S = 170.0


def spawn_workers(args: argparse.Namespace) -> Optional[List[Dict[str, Any]]]:
    """Run the workers one after another; ``None`` if any of them failed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (os.path.join(ROOT, "src"), env.get("PYTHONPATH"))))
    started = time.monotonic()
    measured = 0.0
    reports = []
    for index in range(PROCESSES):
        # Each worker gets an even share of what earlier workers left unmeasured.
        budget = max(0.0, args.seconds - measured) / (PROCESSES - index)
        command = [sys.executable, "-m", "perfbench.worker", "--workload", args.workload]
        command += ["--seed", str(args.seed), "--budget", repr(budget), "--trace", str(args.trace)]
        spawned = time.monotonic()
        try:
            done = subprocess.run(
                command,
                cwd=ROOT,
                env=env,
                stdout=subprocess.PIPE,
                text=True,
                timeout=max(1.0, DEADLINE_S - (spawned - started)),
                check=False,
            )
        except subprocess.TimeoutExpired:
            print("perfbench: a worker ran past the deadline", file=sys.stderr)
            return None
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"perfbench: worker exited with code {done.returncode}", file=sys.stderr)
            return None
        report = json.loads(lines[-1])
        report["setup_s"] = (report["ready_monotonic"] - spawned) / report["setup_scale"]
        measured += sum(sample["wall_s"] for sample in report["untraced"] + report["traced"])
        reports.append(report)
    return reports


def end_to_end(reports: Sequence[Dict[str, Any]]) -> Dict[str, float]:
    """Throughputs are the work of all untraced repetitions over their summed scaled wall time.

    Times are in reference seconds (see :mod:`perfbench.reference`).  The
    ratio of sums moves in proportion to how much of the run a slow phase
    of the host covered, where the median of the repetitions would jump
    between the fast and the slow level.
    """
    samples = [sample for report in reports for sample in report["untraced"]]
    wall = sum(sample["scaled_wall_s"] for sample in samples)
    return {
        "channels_per_s": sum(sample["channels"] for sample in samples) / wall,
        "points_per_s": sum(sample["points"] for sample in samples) / wall,
        "requests_per_s": sum(sample["requests"] for sample in samples) / wall,
        "peak_rss_mb": statistics.median(report["peak_rss_mb"] for report in reports),
        "setup_s": statistics.median(report["setup_s"] for report in reports),
    }


def per_layer(reports: Sequence[Dict[str, Any]]) -> Dict[str, float]:
    traced = [sample for report in reports for sample in report["traced"]]
    untraced = [sample for report in reports for sample in report["untraced"]]
    values = {name: statistics.median(sample["layers"][name] for sample in traced) for name in traced[0]["layers"]}
    untraced_wall = statistics.median(sample["scaled_wall_s"] for sample in untraced)
    values["trace.overhead_frac"] = statistics.median(s["scaled_wall_s"] for s in traced) / untraced_wall - 1.0
    return values


def counters_repeat(reports: Sequence[Dict[str, Any]]) -> bool:
    """Whether every traced repetition counted exactly the same work."""
    traced = [sample["layers"] for report in reports for sample in report["traced"]]
    return all(layers[name] == traced[0][name] for layers in traced for name in COUNTERS)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True, help="permutation and traffic seed of the inputs")
    parser.add_argument("--seconds", type=float, required=True, help="measured seconds, shared by the processes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    reports = spawn_workers(args)
    if reports is None:
        return 1
    attempted = sum(report["attempted"] for report in reports)
    failed = sum(report["failed"] for report in reports)
    correct = failed == 0
    digests = {report["digest"] for report in reports}
    if len(digests) > 1:
        print(f"perfbench: processes disagree on the simulated outputs: {sorted(digests)}", file=sys.stderr)
        correct = False
    if args.trace:
        values, units = per_layer(reports), dict(LAYER_METRICS)
        if not counters_repeat(reports):
            print("perfbench: per-layer counters differ between repetitions", file=sys.stderr)
            correct = False
    else:
        values, units = end_to_end(reports), dict(END_TO_END)
    untraced = sum(len(report["untraced"]) for report in reports)
    traced = sum(len(report["traced"]) for report in reports)
    print(
        f"perfbench: {args.workload} seed={args.seed}: {len(reports)} processes, {untraced} untraced and "
        f"{traced} traced repetitions, error_rate={failed / max(attempted, 1):.4g} ({failed}/{attempted})",
        file=sys.stderr,
    )
    samples = [sample for report in reports for sample in report["untraced"]]
    print(f"  untraced repetition walls (s): {[round(s['wall_s'], 4) for s in samples]}", file=sys.stderr)
    scales = [round(s["wall_s"] / s["scaled_wall_s"], 3) for s in samples]
    print(f"  host slowness against reference speed: {scales}", file=sys.stderr)
    for name, unit in units.items():
        print(f"  {name:28s} {values[name]:14.6g} {unit}", file=sys.stderr)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
