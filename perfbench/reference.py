"""A fixed unit of work that measures how fast the host is running right now.

Other tenants of a shared host slow every process on it, in phases that last
from seconds to many minutes; on the host these numbers were taken on, the
same code ran more than twice as slow in one phase as in the next.  The
benchmark times this reference work right before and right after every
repetition and scales the repetition's wall time by the reference's nominal
duration over its measured one, so end-to-end times are expressed in
*reference seconds*: seconds at the speed where the reference takes
:data:`REFERENCE_S`.  The reference never changes with the program, so a
change to the simulator moves the scaled times exactly as it moves the
unscaled ones; only the host's own slowdowns cancel.

The work mixes what the simulator spends its time on: a binary heap of
timestamped tuples, dictionary updates, small-object attribute access and
float arithmetic, and numpy reductions over index arrays.
"""

from __future__ import annotations

import heapq
import time

import numpy as np

#: Duration of :func:`reference_work` on a quiet host (seconds).
REFERENCE_S = 0.1


class _Item:
    __slots__ = ("due", "key")

    def __init__(self, due: float, key: int) -> None:
        self.due = due
        self.key = key


def reference_work() -> float:
    """One fixed unit of work; returns a checksum so nothing is optimised away."""
    heap = []
    for index in range(60000):
        item = _Item((index * 7919) % 10007 * 0.5, index % 251)
        heapq.heappush(heap, (item.due, index, item))
    totals = {}
    checksum = 0.0
    while heap:
        due, _, item = heapq.heappop(heap)
        totals[item.key] = totals.get(item.key, 0.0) + due
        checksum += due * 1e-9
    rows = np.arange(40000) % 997
    weights = np.linspace(0.0, 1.0, 40000)
    for _ in range(120):
        checksum += float(np.bincount(rows, weights=weights).min())
    return checksum + sum(totals.values()) * 1e-12


def reference_seconds() -> float:
    """Wall time of one :func:`reference_work`."""
    started = time.perf_counter()
    reference_work()
    return time.perf_counter() - started
