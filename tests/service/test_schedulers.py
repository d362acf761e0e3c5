"""Request schedulers: the table's contract and dispatch-order disciplines."""

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.network.geometry import Coordinate
from repro.service.arrivals import ServiceRequest
from repro.service.schedulers import (
    SCHEDULERS,
    FidelityScheduler,
    FifoScheduler,
    PriorityScheduler,
    create_scheduler,
)


def _request(request_id, *, priority=0, target_fidelity=None):
    return ServiceRequest(
        request_id=request_id,
        tenant="t",
        arrival_us=float(request_id),
        channels=1,
        source=Coordinate(0, 0),
        dest=Coordinate(1, 0),
        priority=priority,
        target_fidelity=target_fidelity,
    )


def _drain(scheduler):
    order = []
    while len(scheduler):
        order.append(scheduler.pop().request_id)
    return order


class TestRegistry:
    def test_unknown_name_raises(self):
        with pytest.raises(ConfigurationError, match="unknown request scheduler"):
            create_scheduler("bogus")

    def test_create_dispatches(self):
        assert isinstance(create_scheduler("fifo"), FifoScheduler)
        assert isinstance(create_scheduler("priority"), PriorityScheduler)
        assert isinstance(create_scheduler("fidelity"), FidelityScheduler)


class TestDisciplines:
    def test_fifo_preserves_push_order(self):
        scheduler = FifoScheduler()
        for request_id in (3, 1, 2):
            scheduler.push(_request(request_id))
        assert _drain(scheduler) == [3, 1, 2]

    def test_priority_ranks_then_fifo_within_rank(self):
        scheduler = PriorityScheduler()
        scheduler.push(_request(0, priority=2))
        scheduler.push(_request(1, priority=0))
        scheduler.push(_request(2, priority=2))
        scheduler.push(_request(3, priority=1))
        assert _drain(scheduler) == [1, 3, 0, 2]

    def test_fidelity_tightest_class_first_classless_last(self):
        scheduler = FidelityScheduler()
        scheduler.push(_request(0))
        scheduler.push(_request(1, target_fidelity=0.99))
        scheduler.push(_request(2, target_fidelity=0.9999))
        scheduler.push(_request(3))
        assert _drain(scheduler) == [2, 1, 0, 3]

    def test_fidelity_is_fifo_within_a_class(self):
        scheduler = FidelityScheduler()
        for request_id in range(4):
            scheduler.push(_request(request_id, target_fidelity=0.999))
        assert _drain(scheduler) == [0, 1, 2, 3]

    def test_pop_on_empty_raises(self):
        for name in SCHEDULERS:
            with pytest.raises(SimulationError, match="empty request queue"):
                create_scheduler(name).pop()

    def test_len_tracks_queue_depth(self):
        scheduler = create_scheduler("priority")
        assert len(scheduler) == 0
        scheduler.push(_request(0))
        scheduler.push(_request(1))
        assert len(scheduler) == 2
        scheduler.pop()
        assert len(scheduler) == 1
