"""Heap compaction and posted events: cancelled events must not accumulate."""

import pytest

from repro.sim.engine import _COMPACT_MIN_HEAP, SimulationEngine


class TestHeapCompaction:
    def test_cancel_heavy_workload_has_bounded_heap(self):
        """The reallocate-style pattern (schedule, cancel, reschedule) leaks
        without compaction: the heap grew by one dead entry per cycle.  With
        compaction it stays within a small multiple of the live event count."""
        engine = SimulationEngine()
        live = 8
        events = [engine.schedule(float(i + 1), lambda: None) for i in range(live)]
        for cycle in range(10_000):
            index = cycle % live
            events[index].cancel()
            events[index] = engine.schedule(float(cycle % 97 + 1), lambda: None)
        # 10k cancellations; without compaction pending_events would be ~10k.
        assert engine.pending_events <= max(2 * live, _COMPACT_MIN_HEAP)
        assert engine.cancelled_pending <= engine.pending_events

    def test_compaction_preserves_execution_order(self):
        engine = SimulationEngine()
        fired = []
        keep = []
        cancel = []
        for i in range(200):
            keep.append(engine.schedule(float(i), lambda i=i: fired.append(i)))
            cancel.append(engine.schedule(float(i) + 0.5, lambda i=i: fired.append(-i)))
        for event in cancel:
            event.cancel()
        while engine.step():
            pass
        assert fired == list(range(200))
        assert engine.pending_events == 0

    def test_cancelled_pending_tracks_pops(self):
        engine = SimulationEngine()
        a = engine.schedule(1.0, lambda: None)
        engine.schedule(2.0, lambda: None)
        a.cancel()
        assert engine.cancelled_pending == 1
        engine.run()
        assert engine.cancelled_pending == 0

    def test_double_cancel_counts_once(self):
        engine = SimulationEngine()
        event = engine.schedule(1.0, lambda: None)
        engine.schedule(2.0, lambda: None)
        event.cancel()
        event.cancel()
        assert engine.cancelled_pending == 1

    def test_cancel_after_firing_counts_nothing(self):
        # A fired event left no entry in the heap, so cancelling it through
        # a stale reference must not count a dead entry.
        engine = SimulationEngine()
        fired = engine.schedule(1.0, lambda: None)
        engine.schedule(2.0, lambda: None)
        assert engine.step()
        fired.cancel()
        assert engine.cancelled_pending == 0
        assert engine.pending_events == 1

    def test_compaction_inside_a_callback_keeps_the_run_going(self):
        # Cancellations from inside a callback can compact the heap while
        # ``run`` is iterating it; the remaining live events still fire.
        engine = SimulationEngine()
        fired = []
        doomed = [engine.schedule(10.0 + i, lambda: fired.append("doomed")) for i in range(100)]
        for i in range(5):
            engine.schedule(20.0 + i, lambda i=i: fired.append(i))

        def cancel_all():
            for event in doomed:
                event.cancel()

        engine.schedule(1.0, cancel_all)
        engine.run()
        assert fired == [0, 1, 2, 3, 4]
        assert engine.pending_events == 0
        assert engine.cancelled_pending == 0

    def test_cancel_after_drain_stays_sound(self):
        engine = SimulationEngine()
        event = engine.schedule(1.0, lambda: None)
        engine.drain()
        event.cancel()
        assert engine.cancelled_pending == 0
        assert engine.pending_events == 0

    def test_timer_rearm_churn_stays_bounded(self):
        # One re-armed timeout: cancel the pending event, schedule its
        # replacement, 5k times over.  Only one event is ever live.
        engine = SimulationEngine()
        event = engine.schedule(1.0, lambda: None)
        for i in range(5_000):
            event.cancel()
            event = engine.schedule(float(i % 13 + 1), lambda: None)
        assert engine.pending_events <= _COMPACT_MIN_HEAP
        assert engine.pending_events - engine.cancelled_pending == 1


class TestPostedEvents:
    """``post`` pushes handle-less entries on the heap ``schedule`` uses."""

    def test_post_and_schedule_share_one_sequence_counter(self):
        engine = SimulationEngine()
        fired = []
        for i in range(6):
            if i % 2:
                engine.post(1.0, lambda i=i: fired.append(i))
            else:
                engine.schedule(1.0, lambda i=i: fired.append(i))
        engine.run()
        assert fired == list(range(6))
        assert engine.processed_events == 6

    def test_post_at_runs_after_lower_priorities_at_its_time(self):
        engine = SimulationEngine()
        fired = []
        engine.post_at(2.0, lambda: fired.append("publish"), priority=9)
        engine.schedule_at(2.0, lambda: fired.append("completion"), priority=3)
        engine.post(2.0, lambda: fired.append("gate"))
        engine.run()
        assert fired == ["gate", "completion", "publish"]
        assert engine.cancelled_pending == 0

    def test_posted_entry_survives_compaction_and_drain_clears_it(self):
        engine = SimulationEngine()
        fired = []
        engine.post(3.0, lambda: fired.append("posted"))
        doomed = [engine.schedule(1.0 + i, lambda: fired.append("doomed")) for i in range(100)]
        for event in doomed:
            event.cancel()
        # Cancelling more than half a heap of 64 or more compacts it.
        assert engine.pending_events < 101
        engine._compact()
        assert engine.pending_events == 1
        assert engine.cancelled_pending == 0
        assert engine.run() == 3.0
        assert fired == ["posted"]
        engine.post(1.0, lambda: fired.append("drained"))
        engine.drain()
        assert engine.pending_events == 0
        assert engine.run() == 3.0
        assert fired == ["posted"]

    def test_run_until_leaves_a_later_posted_entry_pending(self):
        engine = SimulationEngine()
        fired = []
        engine.post(1.0, lambda: fired.append(1.0))
        engine.post(10.0, lambda: fired.append(10.0))
        assert engine.run(until=5.0) == 5.0
        assert fired == [1.0]
        assert engine.pending_events == 1
        assert engine.run() == 10.0
        assert fired == [1.0, 10.0]
        assert engine.processed_events == 2

    def test_max_events_and_step_count_posted_events(self):
        engine = SimulationEngine()
        for i in range(5):
            engine.post(float(i + 1), lambda: None)
        assert engine.run(max_events=2) == 2.0
        assert engine.processed_events == 2
        assert engine.step()
        assert engine.now == 3.0
        assert engine.processed_events == 3
        assert engine.pending_events == 2

    def test_processed_events_stays_exact_when_a_callback_raises(self):
        engine = SimulationEngine()

        def fail():
            raise RuntimeError("boom")

        engine.post(1.0, lambda: None)
        engine.schedule(2.0, fail)
        engine.post(3.0, lambda: None)
        with pytest.raises(RuntimeError):
            engine.run()
        assert engine.processed_events == 2
        assert engine.now == 2.0
        assert engine.run() == 3.0
        assert engine.processed_events == 3

    def test_cancel_among_posted_entries_counts_and_compacts(self):
        engine = SimulationEngine()
        fired = []
        for i in range(_COMPACT_MIN_HEAP):
            engine.post(float(i), lambda i=i: fired.append(i))
        handles = [
            engine.schedule(0.5 + i, lambda: fired.append(-1))
            for i in range(_COMPACT_MIN_HEAP + 1)
        ]
        for handle in handles[:-1]:
            handle.cancel()
        assert engine.cancelled_pending == _COMPACT_MIN_HEAP
        assert engine.pending_events == 2 * _COMPACT_MIN_HEAP + 1
        handles[-1].cancel()
        # Now more than half the heap is cancelled: it compacts to the posts.
        assert engine.cancelled_pending == 0
        assert engine.pending_events == _COMPACT_MIN_HEAP
        engine.run()
        assert fired == list(range(_COMPACT_MIN_HEAP))
