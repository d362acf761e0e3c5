"""Flat-array data plane for the ``vectorized`` max-min allocator.

:class:`FlowPack` keeps the flow×resource incidence of the fluid transport as
CSR-style numpy index arrays, where :class:`~repro.sim.flow.FlowTable` keeps
per-flow Python dicts; the transport drives both through the same methods.
The arrays:

``entry_row`` / ``entry_col`` / ``entry_work``
    One entry per (flow, resource) demand, appended flow-major.  Flow ids are
    monotonically increasing (``TransportBackend._next_flow_id``), so rows —
    and therefore entries — are always sorted by flow id.  That ordering is
    the whole bitwise-parity argument: every per-resource accumulation walks
    entries in flow-id order, exactly the order
    :meth:`FlowTable._max_min_rates <repro.sim.flow.FlowTable._max_min_rates>`
    walks its member dicts.
``row_*``
    Per-flow state (``remaining``, ``rate``, ``start_us``, ``floor_us``) as
    float64 arrays, the only copy of it under the ``vectorized`` allocator.
``col_*``
    The resource ids that entries use, in first-use order, with per-column
    capacity; an id→column array interns them.  Columns are never
    re-numbered while referenced (their count is bounded by the topology);
    :meth:`compact` drops columns only when no surviving entry uses them.

Summation uses ``np.bincount(cols, weights=w)``, which accumulates strictly
in input-array order (a sequential C loop), so per-resource demand sums are
bitwise identical to :class:`~repro.sim.flow.FlowTable`'s Python loop at
every size.
The other obvious kernels are not: on numpy 2.4.6, ``np.add.reduceat``
already differs from a sequential sum on 3-element arrays (359 of 2,000
uniform random arrays) and ``np.add.reduce`` on 8-element ones (767 of
2,000), while ``bincount`` matched at every length tried, 2 to 300.

All values returned to the caller are converted to Python scalars so numpy
types never leak into engine timestamps or trace records.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import SimulationError

#: Compact the row/entry arrays when tombstoned rows outnumber live ones and
#: the pack is big enough for the rebuild to pay for itself.
_COMPACT_MIN_ROWS = 64

#: Initial capacity for the growable row/entry buffers.
_INITIAL_CAPACITY = 16


def _grown(array: np.ndarray, needed: int) -> np.ndarray:
    """Return ``array`` or a doubled-capacity copy that fits ``needed``."""
    capacity = array.shape[0]
    if needed <= capacity:
        return array
    new_capacity = max(needed, capacity * 2, _INITIAL_CAPACITY)
    grown = np.zeros((new_capacity, *array.shape[1:]), dtype=array.dtype)
    grown[:capacity] = array
    return grown


class FlowPack:
    """Flow×resource incidence and per-flow fluid state as flat arrays."""

    def __init__(
        self,
        id_capacity: Sequence[float],
        id_kind: Sequence[int],
        kinds: Iterable[str],
    ) -> None:
        #: Capacity and index into ``kinds`` of every resource id.
        self._id_capacity = np.asarray(id_capacity, dtype=np.float64)
        self._id_kind = np.asarray(id_kind, dtype=np.int64)
        self.kinds: Tuple[str, ...] = tuple(kinds)
        # Columns: the resource ids live entries use (-1: no column).
        self._col_of_id = np.full(self._id_capacity.shape[0], -1, dtype=np.int64)
        self._col_id = np.zeros(0, dtype=np.int64)
        self._col_cap = np.zeros(0, dtype=np.float64)
        self.n_cols = 0
        # Rows: per-flow state (buffers sized >= n_rows; slice before use).
        self._row_of_flow: Dict[int, int] = {}
        self.n_rows = 0
        self._row_flow_id = np.zeros(0, dtype=np.int64)
        self._row_active = np.zeros(0, dtype=bool)
        self._remaining = np.zeros(0, dtype=np.float64)
        self._rate = np.zeros(0, dtype=np.float64)
        self._start_us = np.zeros(0, dtype=np.float64)
        self._floor_us = np.zeros(0, dtype=np.float64)
        self._row_kind_work = np.zeros((0, len(self.kinds)), dtype=np.float64)
        # Entries: flow-major (row, col, work) triples.
        self.n_entries = 0
        self._entry_row = np.zeros(0, dtype=np.int64)
        self._entry_col = np.zeros(0, dtype=np.int64)
        self._entry_work = np.zeros(0, dtype=np.float64)
        self._dead_rows = 0

    # ------------------------------------------------------------------
    # Introspection (tests and transport queries)

    @property
    def n_flows(self) -> int:
        """Number of live (non-tombstoned) flows."""
        return self.n_rows - self._dead_rows

    def row_of(self, flow_id: int) -> int:
        return self._row_of_flow[flow_id]

    def rate_of(self, flow_id: int) -> float:
        return float(self._rate[self._row_of_flow[flow_id]])

    def remaining_of(self, flow_id: int) -> float:
        return float(self._remaining[self._row_of_flow[flow_id]])

    def arrays(self) -> Dict[str, np.ndarray]:
        """Copies of the logical (sliced) arrays — for tests and snapshots."""
        n, e = self.n_rows, self.n_entries
        return {
            "row_flow_id": self._row_flow_id[:n].copy(),
            "row_active": self._row_active[:n].copy(),
            "remaining": self._remaining[:n].copy(),
            "rate": self._rate[:n].copy(),
            "start_us": self._start_us[:n].copy(),
            "floor_us": self._floor_us[:n].copy(),
            "row_kind_work": self._row_kind_work[:n].copy(),
            "entry_row": self._entry_row[:e].copy(),
            "entry_col": self._entry_col[:e].copy(),
            "entry_work": self._entry_work[:e].copy(),
            "col_id": self._col_id[: self.n_cols].copy(),
            "col_cap": self._col_cap[: self.n_cols].copy(),
        }

    # ------------------------------------------------------------------
    # Mutation

    def add_flow(
        self,
        flow_id: int,
        ids: Sequence[int],
        works: Sequence[float],
        *,
        remaining: float = 1.0,
        start_us: float = 0.0,
        floor_us: float = 0.0,
    ) -> int:
        """Append a flow row plus its demand entries; returns the row index.

        ``ids`` are distinct resource ids and ``works`` their demands.  Rows
        must arrive in increasing flow-id order (the transport's flow ids are
        monotonic) — that invariant is what keeps every per-column
        accumulation in flow-id order without sorting.
        """
        if flow_id in self._row_of_flow:
            raise SimulationError(f"flow {flow_id} already packed")
        if self.n_rows and flow_id <= int(self._row_flow_id[self.n_rows - 1]):
            raise SimulationError(
                f"flow ids must be appended in increasing order; got {flow_id} "
                f"after {int(self._row_flow_id[self.n_rows - 1])}"
            )
        row = self.n_rows
        needed = row + 1
        self._row_flow_id = _grown(self._row_flow_id, needed)
        self._row_active = _grown(self._row_active, needed)
        self._remaining = _grown(self._remaining, needed)
        self._rate = _grown(self._rate, needed)
        self._start_us = _grown(self._start_us, needed)
        self._floor_us = _grown(self._floor_us, needed)
        self._row_kind_work = _grown(self._row_kind_work, needed)
        self._row_flow_id[row] = flow_id
        self._row_active[row] = True
        self._remaining[row] = remaining
        self._rate[row] = 0.0
        self._start_us[row] = start_us
        self._floor_us[row] = floor_us
        ids_array = np.asarray(ids, dtype=np.int64)
        works_array = np.asarray(works, dtype=np.float64)
        # bincount sums each kind's works in entry order, as ``+=`` would.
        self._row_kind_work[row] = np.bincount(self._id_kind[ids_array], weights=works_array, minlength=len(self.kinds))
        cols = self._col_of_id[ids_array]
        new_ids = ids_array[cols < 0]
        if new_ids.size:
            first, end = self.n_cols, self.n_cols + new_ids.size
            self._col_id = _grown(self._col_id, end)
            self._col_cap = _grown(self._col_cap, end)
            self._col_id[first:end] = new_ids
            self._col_cap[first:end] = self._id_capacity[new_ids]
            self._col_of_id[new_ids] = np.arange(first, end)
            self.n_cols = end
            cols = self._col_of_id[ids_array]
        base = self.n_entries
        needed_entries = base + ids_array.size
        self._entry_row = _grown(self._entry_row, needed_entries)
        self._entry_col = _grown(self._entry_col, needed_entries)
        self._entry_work = _grown(self._entry_work, needed_entries)
        self._entry_row[base:needed_entries] = row
        self._entry_col[base:needed_entries] = cols
        self._entry_work[base:needed_entries] = works_array
        self.n_entries = needed_entries
        self.n_rows = needed
        self._row_of_flow[flow_id] = row
        return row

    def remove_flow(self, flow_id: int) -> None:
        """Tombstone a flow's row; entries stay until the next compaction."""
        row = self._row_of_flow.pop(flow_id)
        self._row_active[row] = False
        self._rate[row] = 0.0
        self._remaining[row] = 0.0
        self._dead_rows += 1
        if self._dead_rows * 2 > self.n_rows and self.n_rows >= _COMPACT_MIN_ROWS:
            self.compact()

    def compact(self) -> None:
        """Drop tombstoned rows, their entries and now-unused columns.

        Surviving rows keep their relative (flow-id) order and surviving
        columns are re-interned in first-use order of the surviving entries —
        the same layout a fresh :meth:`rebuild` would produce, which is what
        the round-trip property test pins.  Compaction is unobservable to the
        allocator: every kernel either masks dead rows or accumulates
        per-column (and the within-column entry order is preserved).
        """
        n, e = self.n_rows, self.n_entries
        live = self._row_active[:n]
        old_rows = np.nonzero(live)[0]
        new_row_of_old = np.full(n, -1, dtype=np.int64)
        new_row_of_old[old_rows] = np.arange(old_rows.shape[0])
        keep_entry = live[self._entry_row[:e]]
        entry_row = new_row_of_old[self._entry_row[:e][keep_entry]]
        entry_old_col = self._entry_col[:e][keep_entry]
        # Re-intern surviving columns in first-use order.
        used, first_use = np.unique(entry_old_col, return_index=True)
        used = used[np.argsort(first_use)]
        new_col_of_old = np.zeros(self.n_cols, dtype=np.int64)
        new_col_of_old[used] = np.arange(used.size)
        self._col_of_id[self._col_id[: self.n_cols]] = -1
        self._col_id = self._col_id[used]
        self._col_cap = self._col_cap[used]
        self._col_of_id[self._col_id] = np.arange(used.size)
        self.n_cols = used.size
        self._entry_row = entry_row
        self._entry_col = new_col_of_old[entry_old_col]
        self._entry_work = self._entry_work[:e][keep_entry].copy()
        self.n_entries = entry_row.shape[0]
        self._row_flow_id = self._row_flow_id[:n][live].copy()
        self._row_active = self._row_active[:n][live].copy()
        self._remaining = self._remaining[:n][live].copy()
        self._rate = self._rate[:n][live].copy()
        self._start_us = self._start_us[:n][live].copy()
        self._floor_us = self._floor_us[:n][live].copy()
        self._row_kind_work = self._row_kind_work[:n][live].copy()
        self.n_rows = old_rows.shape[0]
        self._dead_rows = 0
        self._row_of_flow = {
            int(fid): row for row, fid in enumerate(self._row_flow_id[: self.n_rows])
        }

    def rebuild(self, demands_of: Callable[[int], Tuple[Sequence[int], Sequence[float]]]) -> "FlowPack":
        """Fresh pack holding only the live flows, re-interned from scratch."""
        pack = FlowPack(self._id_capacity, self._id_kind, self.kinds)
        for row in range(self.n_rows):
            if not self._row_active[row]:
                continue
            flow_id = int(self._row_flow_id[row])
            pack.add_flow(
                flow_id,
                *demands_of(flow_id),
                remaining=float(self._remaining[row]),
                start_us=float(self._start_us[row]),
                floor_us=float(self._floor_us[row]),
            )
            pack._rate[pack._row_of_flow[flow_id]] = self._rate[row]
        return pack

    # ------------------------------------------------------------------
    # Fluid-state kernels

    def advance(self, elapsed: float) -> None:
        """``remaining -= rate * elapsed`` clamped at 0, over all rows.

        Tombstoned rows have rate 0 and remaining 0, so the full-array form
        is exact.  Elementwise float64 ops match the per-flow Python
        arithmetic bitwise.
        """
        n = self.n_rows
        remaining = self._remaining[:n]
        np.maximum(remaining - self._rate[:n] * elapsed, 0.0, out=remaining)

    def max_min_rates(self, saturation_eps: float) -> np.ndarray:
        """Progressive-filling max-min rates, bitwise-equal to the dict loop.

        Per round: sum per-column demand over the unfrozen rows' entries with
        ``bincount`` (sequential, flow-id order); take the bottleneck delta as
        ``np.minimum.reduce(cap_left / denom)`` over every column (min over
        floats is order-independent); raise the fill level by it; charge
        ``delta * denom`` to every column; freeze at the current level the
        member rows of the columns that crossed the saturation epsilon; and
        set those columns' residual capacity to +inf.

        Every column without demand reads +inf: an unsaturated one keeps its
        positive capacity (``x - delta * 0.0`` is ``x``), and a saturated one
        is +inf and stays so (``inf - 0.0``), since all its members froze.
        So the min over every column equals the min over the contended ones,
        a delta of +inf means none is contended, and no column saturates
        twice.  After a round that freezes every live row, the next finds no
        demand and raises a level no row reads.  Carrying the level as one
        scalar gives each row the bits ``rates[alive] += delta`` would.  Only
        division by zero is silenced; a zero capacity would make ``0 / 0``
        and warn.  An infinite work would meet a zero delta and make NaN,
        which is why ``TransportBackend._open_channel`` rejects infeasible
        channels.
        """
        n, e = self.n_rows, self.n_entries
        rates = np.zeros(n, dtype=np.float64)
        alive = self._row_active[:n].copy()
        active = int(np.count_nonzero(alive))
        if not active:
            return rates
        n_cols = self.n_cols
        cap_left = self._col_cap[:n_cols].copy()
        # Working copies of the entry arrays, shrunk to live-row entries as
        # rows freeze so each round costs O(live entries), not O(all
        # entries).  Dropping a dead entry is bitwise-neutral: it would have
        # contributed an exact +0.0 to its column's bincount partial sum, and
        # partial sums of non-negative works are never -0.0, so ``s + 0.0``
        # is the bitwise identity here.
        keep = alive[self._entry_row[:e]]
        erow = self._entry_row[:e][keep]
        ecol = self._entry_col[:e][keep]
        ework = self._entry_work[:e][keep]
        level = 0.0
        with np.errstate(divide="ignore"):
            for _ in range(active + 1):
                denom = np.bincount(ecol, weights=ework, minlength=n_cols)
                delta = np.minimum.reduce(cap_left / denom)
                if delta == np.inf:
                    level += 1.0
                    break
                level += delta
                cap_left -= delta * denom
                saturated = cap_left <= saturation_eps
                frozen_rows = erow[saturated[ecol]]
                if not frozen_rows.size:
                    break
                rates[frozen_rows] = level
                alive[frozen_rows] = False
                cap_left[saturated] = np.inf
                keep = alive[erow]
                erow = erow[keep]
                ecol = ecol[keep]
                ework = ework[keep]
        rates[alive] = level
        return rates

    def reallocate(
        self, saturation_eps: float, *, collect_changes: bool = False
    ) -> List[Tuple[int, float]]:
        """Run the kernel and store the new rates; optionally list changes.

        Returns ``(flow_id, new_rate)`` pairs for live rows whose rate
        changed bitwise, in ascending flow-id order — the exact list
        :meth:`FlowTable.reallocate <repro.sim.flow.FlowTable.reallocate>`
        returns.  The list is only materialised when ``collect_changes``
        (i.e. the trace wants ``FlowRateChanged``).
        """
        n = self.n_rows
        new_rates = self.max_min_rates(saturation_eps)
        changes: List[Tuple[int, float]] = []
        if collect_changes:
            changed = np.nonzero((new_rates != self._rate[:n]) & self._row_active[:n])[0]
            flow_ids = self._row_flow_id[:n]
            changes = [(int(flow_ids[row]), float(new_rates[row])) for row in changed]
        self._rate[:n] = new_rates
        return changes

    def kind_rate_sums(self) -> Dict[str, float]:
        """Aggregate ``rate × work`` per resource kind (utilisation integrals).

        Dot-product accumulation order differs from
        :class:`~repro.sim.flow.FlowTable`'s running ±delta updates, but
        utilisation is compared at 1e-9 relative tolerance, not bitwise.
        """
        n = self.n_rows
        totals = self._rate[:n] @ self._row_kind_work[:n]
        return {kind: float(totals[i]) for i, kind in enumerate(self.kinds)}

    def loads(self) -> Dict[int, float]:
        """Per-resource-id load ``sum(rate × work)`` over live flows.

        bincount accumulates in entry (= flow-id) order, matching
        :class:`~repro.sim.flow.FlowTable`'s member-dict walk bitwise.
        """
        n, e = self.n_rows, self.n_entries
        erow = self._entry_row[:e]
        weights = np.where(
            self._row_active[:n][erow], self._rate[:n][erow] * self._entry_work[:e], 0.0
        )
        sums = np.bincount(self._entry_col[:e], weights=weights, minlength=self.n_cols)
        return {
            int(self._col_id[col]): float(sums[col])
            for col in range(self.n_cols)
            if sums[col] > 0.0
        }

    def next_completion(
        self,
        now: float,
        completion_eps: float,
        *,
        exclude_flow_ids: Optional[Iterable[int]] = None,
    ) -> Optional[Tuple[int, float]]:
        """Earliest completion as ``(flow_id, finish_time)``, or None.

        Per live row: ``remaining <= eps`` finishes now; ``rate <= 0`` is
        stalled (inf); otherwise ``now + remaining / rate``; all clamped to
        the channel floor.  ``argmin`` ties resolve to the lowest row index,
        i.e. the lowest flow id — and the transport's completion chain
        re-arms after each event, so tied flows still fire one by one in
        flow-id (priority) order.  ``exclude_flow_ids`` masks flows whose
        completion fired with work left, until the next reallocation.
        """
        n = self.n_rows
        if not n:
            return None
        remaining = self._remaining[:n]
        rate = self._rate[:n]
        with np.errstate(divide="ignore", invalid="ignore"):
            finish = now + remaining / rate
        finish = np.where(remaining <= completion_eps, now, finish)
        finish = np.where((rate <= 0.0) & (remaining > completion_eps), np.inf, finish)
        finish = np.maximum(finish, self._start_us[:n] + self._floor_us[:n])
        finish = np.where(self._row_active[:n], finish, np.inf)
        if exclude_flow_ids is not None:
            for flow_id in exclude_flow_ids:
                row = self._row_of_flow.get(flow_id)
                if row is not None:
                    finish[row] = np.inf
        row = int(np.argmin(finish))
        if not np.isfinite(finish[row]):
            return None
        return int(self._row_flow_id[row]), float(finish[row])
