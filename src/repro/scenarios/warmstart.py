"""Cross-run memo of channel EPR budgets.

A channel's EPR budget (purification rounds, pairs per logical communication,
setup latency; paper Sections 3-4) depends on the ion-trap parameters, the
purification protocol and its placement, and the channel's hop count — not
on the resource allocation, the layout, the fabric or the workload.  Sweeps
such as Figure 16 vary exactly those over fixed physics, so
:func:`repro.scenarios.run.build_machine` hands every machine's planner the
``{hops: ChannelBudget}`` dict of its physics from one process-global LRU
memo, keyed by the planner's budget-model inputs ``(params, protocol,
placement)``.  Budgets are immutable and a pure function of that key and the
hop count, so sharing them only skips recomputation.

Nothing else crosses runs: channel plans, flow profiles and demands stay
with the run that built them.  Pool workers are separate processes, each
with its own memo.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Dict, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.budget import ChannelBudget
    from ..core.planner import ChannelPlanner

#: Budget dicts kept before the least-recently-used one is evicted.  A dict
#: holds one budget per hop count, so an entry is small, but a sweep over the
#: physics (noise, hop length, protocol) would otherwise grow the memo
#: without bound.
MAX_ENTRIES = 64


class BudgetMemo:
    """LRU memo of ``{hops: ChannelBudget}`` dicts keyed by budget-model inputs."""

    def __init__(self, max_entries: int = MAX_ENTRIES) -> None:
        self.max_entries = max_entries
        self._entries: OrderedDict[Tuple, Dict[int, ChannelBudget]] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def budgets_for(self, planner: ChannelPlanner) -> Dict[int, ChannelBudget]:
        """The shared budget dict for ``planner``'s physics (created on a miss)."""
        key = (planner.params, planner.protocol, planner.placement)
        with self._lock:
            budgets = self._entries.get(key)
            if budgets is not None:
                self.hits += 1
                self._entries.move_to_end(key)
                return budgets
            self.misses += 1
            budgets = self._entries[key] = {}
            if len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
            return budgets

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {"hits": self.hits, "misses": self.misses, "entries": len(self._entries)}

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0


_GLOBAL_CACHE = BudgetMemo()


def global_cache() -> BudgetMemo:
    """The process-global memo :func:`repro.scenarios.run.build_machine` uses."""
    return _GLOBAL_CACHE
