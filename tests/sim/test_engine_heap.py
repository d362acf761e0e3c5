"""Heap compaction: cancelled events must not accumulate."""

from repro.sim.engine import _COMPACT_MIN_HEAP, SimulationEngine, Timer


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
        engine = SimulationEngine()
        timer = Timer(engine)
        for i in range(5_000):
            timer.start(float(i % 13 + 1), lambda: None)
        assert engine.pending_events <= _COMPACT_MIN_HEAP
