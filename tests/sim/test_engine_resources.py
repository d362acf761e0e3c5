"""Tests for the discrete-event engine and resource primitives."""

import math

import pytest

from repro.errors import SimulationError
from repro.sim.engine import SimulationEngine
from repro.sim.resources import ResourcePool, ServiceCenter


class TestEngine:
    def test_events_fire_in_time_order(self):
        engine = SimulationEngine()
        order = []
        engine.schedule(5.0, lambda: order.append("b"))
        engine.schedule(1.0, lambda: order.append("a"))
        engine.schedule(10.0, lambda: order.append("c"))
        engine.run()
        assert order == ["a", "b", "c"]
        assert engine.now == 10.0

    def test_ties_break_by_priority_then_insertion(self):
        engine = SimulationEngine()
        order = []
        engine.schedule(1.0, lambda: order.append("second"), priority=1)
        engine.schedule(1.0, lambda: order.append("first"), priority=0)
        engine.schedule(1.0, lambda: order.append("third"), priority=1)
        engine.run()
        assert order == ["first", "second", "third"]

    def test_run_until_stops_clock_at_bound(self):
        engine = SimulationEngine()
        engine.schedule(100.0, lambda: None)
        engine.run(until=50.0)
        assert engine.now == 50.0
        assert engine.pending_events == 1

    def test_max_events_bound(self):
        engine = SimulationEngine()
        for i in range(10):
            engine.schedule(float(i + 1), lambda: None)
        engine.run(max_events=3)
        assert engine.processed_events == 3

    def test_cancelled_event_is_skipped(self):
        engine = SimulationEngine()
        fired = []
        event = engine.schedule(1.0, lambda: fired.append(1))
        event.cancel()
        engine.run()
        assert fired == []

    def test_events_scheduled_during_run_execute(self):
        engine = SimulationEngine()
        order = []

        def first():
            order.append("first")
            engine.schedule(2.0, lambda: order.append("nested"))

        engine.schedule(1.0, first)
        engine.run()
        assert order == ["first", "nested"]
        assert engine.now == 3.0

    def test_cannot_schedule_in_the_past(self):
        engine = SimulationEngine()
        engine.schedule(5.0, lambda: None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.schedule_at(1.0, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            SimulationEngine().schedule(-1.0, lambda: None)

    # NaN compares false with everything, so a plain ``delay < 0`` test let
    # it in: a NaN event fired first and the run returned an infinite or NaN
    # clock.  Each entry point refuses the value and names it.
    @pytest.mark.parametrize("delay", [math.nan, math.inf])
    def test_schedule_refuses_non_finite_delays(self, delay):
        engine = SimulationEngine()
        with pytest.raises(SimulationError, match=str(delay)):
            engine.schedule(delay, lambda: None)
        assert engine.pending_events == 0

    @pytest.mark.parametrize("delay", [math.nan, math.inf, -1.0])
    def test_post_refuses_non_finite_and_negative_delays(self, delay):
        engine = SimulationEngine()
        with pytest.raises(SimulationError, match=str(delay)):
            engine.post(delay, lambda: None)
        assert engine.pending_events == 0

    @pytest.mark.parametrize("method", ["schedule_at", "post_at"])
    @pytest.mark.parametrize("time", [math.nan, math.inf, 4.0])
    def test_absolute_times_refuse_non_finite_and_past_times(self, time, method):
        engine = SimulationEngine()
        engine.schedule(5.0, lambda: None)
        engine.run()
        with pytest.raises(SimulationError, match=str(time)):
            getattr(engine, method)(time, lambda: None)
        assert engine.pending_events == 0
        assert engine.run() == 5.0


class TestResourcePool:
    def test_grants_up_to_capacity_immediately(self):
        engine = SimulationEngine()
        pool = ResourcePool(engine, 2)
        grants = []
        pool.acquire(lambda: grants.append(1))
        pool.acquire(lambda: grants.append(2))
        pool.acquire(lambda: grants.append(3))
        assert grants == [1, 2]
        assert pool.queue_length == 1

    def test_release_unblocks_waiter(self):
        engine = SimulationEngine()
        pool = ResourcePool(engine, 1)
        grants = []
        pool.acquire(lambda: grants.append("a"))
        pool.acquire(lambda: grants.append("b"))
        pool.release()
        assert grants == ["a", "b"]

    def test_release_without_acquire_raises(self):
        engine = SimulationEngine()
        pool = ResourcePool(engine, 1)
        with pytest.raises(SimulationError):
            pool.release()

    def test_zero_capacity_rejected(self):
        with pytest.raises(SimulationError):
            ResourcePool(SimulationEngine(), 0)


class TestServiceCenter:
    def test_serial_jobs_on_single_server(self):
        engine = SimulationEngine()
        center = ServiceCenter(engine, 1)
        done = []
        center.submit(10.0, lambda: done.append(engine.now))
        center.submit(10.0, lambda: done.append(engine.now))
        engine.run()
        assert done == [10.0, 20.0]

    def test_parallel_jobs_on_two_servers(self):
        engine = SimulationEngine()
        center = ServiceCenter(engine, 2)
        done = []
        center.submit(10.0, lambda: done.append(engine.now))
        center.submit(10.0, lambda: done.append(engine.now))
        engine.run()
        assert done == [10.0, 10.0]

    def test_utilisation_and_wait_statistics(self):
        engine = SimulationEngine()
        center = ServiceCenter(engine, 1)
        for _ in range(4):
            center.submit(5.0)
        engine.run()
        assert center.stats.jobs_served == 4
        assert center.stats.utilisation(engine.now) == pytest.approx(1.0)
        assert center.stats.mean_wait() == pytest.approx((0 + 5 + 10 + 15) / 4)

    def test_max_queue_length_counts_only_waiting_jobs(self):
        engine = SimulationEngine()
        idle = ServiceCenter(engine, 1)
        idle.submit(5.0)
        assert idle.stats.max_queue_length == 0
        busy = ServiceCenter(engine, 1)
        for _ in range(3):
            busy.submit(5.0)
        assert busy.stats.max_queue_length == 2
        engine.run()
        assert busy.stats.max_queue_length == 2

    @pytest.mark.parametrize("duration", [math.nan, math.inf, -1.0])
    def test_submit_refuses_non_finite_and_negative_durations(self, duration):
        # A NaN job completed at NaN, and so did every job queued behind it.
        engine = SimulationEngine()
        center = ServiceCenter(engine, 1)
        with pytest.raises(SimulationError, match=str(duration)):
            center.submit(duration)
        center.submit(2.0)
        assert engine.run() == 2.0
        assert center.stats.jobs_served == 1

    def test_jobs_waiting_inside_a_completion_are_served_first(self):
        # ``done`` runs before the freed server is re-dispatched; a job
        # submitted from it must queue behind the jobs already waiting.
        engine = SimulationEngine()
        center = ServiceCenter(engine, 1)
        order = []
        center.submit(1.0, lambda: center.submit(1.0, lambda: order.append("late")))
        center.submit(1.0, lambda: order.append("early"))
        engine.run()
        assert order == ["early", "late"]
        assert engine.now == 3.0

    def test_a_completion_on_two_servers_dispatches_the_oldest_job_once(self):
        engine = SimulationEngine()
        center = ServiceCenter(engine, 2)
        order = []

        def finished(job):
            return lambda: order.append((job, engine.now))

        def a_done():
            order.append(("a", engine.now))
            center.submit(1.0, finished("e"))

        center.submit(2.0, a_done)
        center.submit(2.0, finished("b"))
        center.submit(1.0, finished("c"))
        center.submit(1.0, finished("d"))
        engine.run()
        # "e" arrives while "c" and "d" wait for the server "a" freed: "c"
        # takes it, "d" takes "b"'s, and "e" waits for the next one.
        assert order == [("a", 2.0), ("b", 2.0), ("c", 3.0), ("d", 3.0), ("e", 4.0)]
        assert center.stats.jobs_served == 5
        assert center.stats.total_wait == 2.0 + 2.0 + 1.0
        assert center.stats.max_queue_length == 2
        assert center.busy == 0 and center.queue_length == 0

    def test_throughput_per_us(self):
        center = ServiceCenter(SimulationEngine(), 4)
        assert center.throughput_per_us(122.0) == pytest.approx(4 / 122.0)

    def test_negative_duration_rejected(self):
        with pytest.raises(SimulationError):
            ServiceCenter(SimulationEngine(), 1).submit(-1.0)
