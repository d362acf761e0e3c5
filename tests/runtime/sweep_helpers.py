"""Importable sweep workloads for the runtime tests.

The runner ships work to pool workers as (module, qualname, params) triples,
so test workloads must be module-level functions in an importable module —
closures and lambdas are rejected by design.  These helpers also record
their invocations to files so tests can count *actual executions* across
process boundaries (a resumed sweep must not recompute journaled points).
"""

import os
import time


def record_and_square(value, log_path):
    """Append one line per invocation, then return value**2."""
    with open(log_path, "a", encoding="utf-8") as handle:
        handle.write(f"{value}\n")
    return value * value


def executed_values(log_path):
    """The values record_and_square was actually invoked with."""
    if not os.path.exists(log_path):
        return []
    with open(log_path, encoding="utf-8") as handle:
        return [int(line) for line in handle.read().split()]


def fail_on(value, bad, log_path=None):
    """Raise for the poisoned value, square everything else."""
    if log_path is not None:
        with open(log_path, "a", encoding="utf-8") as handle:
            handle.write(f"{value}\n")
    if value == bad:
        raise ValueError(f"poisoned point {value}")
    return value * value


def interrupt_on(value, bad, marker_path, log_path):
    """Record the call, then stop the whole sweep at ``bad`` until the marker exists.

    ``KeyboardInterrupt`` is not turned into an error outcome, so it ends
    the sweep the way killing the process would.
    """
    with open(log_path, "a", encoding="utf-8") as handle:
        handle.write(f"{value}\n")
    if value == bad and not os.path.exists(marker_path):
        raise KeyboardInterrupt(f"killed at point {value}")
    return value * value


def fail_until_marker(value, marker_path):
    """Raise until the marker file exists — a transient failure to retry.

    The first run of a sweep sees the failure; a test then plants the marker
    and resumes, which must retry (and now succeed at) exactly this point.
    """
    if not os.path.exists(marker_path):
        raise RuntimeError(f"transient failure for {value}")
    return value * value


def fail_once(value, marker_dir):
    """Raise on the first attempt for each value, succeed on the second."""
    marker = os.path.join(marker_dir, f"attempted-{value}")
    if not os.path.exists(marker):
        with open(marker, "w", encoding="utf-8") as handle:
            handle.write("attempted\n")
        raise RuntimeError(f"first attempt for {value}")
    return value * value


def sleep_then_return(value, seconds):
    """Sleep, then return — the hung-worker stand-in for timeout tests."""
    time.sleep(seconds)
    return value


def unpicklable_result(value):
    """Return something JSON cannot serialize (for journal-mode errors)."""
    return {value: object()}
