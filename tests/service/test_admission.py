"""Admission controllers: the table's contract and per-policy invariants."""

import pytest

from repro.errors import ConfigurationError
from repro.network.geometry import Coordinate
from repro.service.admission import AlwaysAdmit, QueueBound, TokenBucket, create_admission
from repro.service.arrivals import ServiceRequest


def _request(request_id=0, arrival_us=0.0):
    return ServiceRequest(
        request_id=request_id,
        tenant="t",
        arrival_us=arrival_us,
        channels=1,
        source=Coordinate(0, 0),
        dest=Coordinate(1, 0),
    )


class TestRegistry:
    def test_unknown_name_raises(self):
        with pytest.raises(ConfigurationError, match="unknown admission controller"):
            create_admission("bogus")

    def test_create_dispatches_policy_parameters(self):
        bucket = create_admission("token_bucket", rate_per_ms=2.0, burst=3)
        assert isinstance(bucket, TokenBucket)
        assert bucket.rate_per_ms == 2.0
        assert bucket.burst == 3
        bound = create_admission("queue_bound", queue_limit=5)
        assert isinstance(bound, QueueBound)
        assert bound.queue_limit == 5
        assert isinstance(create_admission("always"), AlwaysAdmit)


class TestAlwaysAdmit:
    def test_admits_everything(self):
        policy = AlwaysAdmit()
        for depth in (0, 10, 10_000):
            assert policy.admit(_request(), now_us=0.0, queue_depth=depth) is None


class TestTokenBucket:
    def test_burst_admits_then_rate_limits(self):
        policy = TokenBucket(rate_per_ms=1.0, burst=3)
        verdicts = [
            policy.admit(_request(i), now_us=0.0, queue_depth=0) for i in range(5)
        ]
        assert verdicts == [None, None, None, "rate_limited", "rate_limited"]

    def test_tokens_refill_at_the_configured_rate(self):
        policy = TokenBucket(rate_per_ms=1.0, burst=1)
        assert policy.admit(_request(0), now_us=0.0, queue_depth=0) is None
        assert policy.admit(_request(1), now_us=500.0, queue_depth=0) == "rate_limited"
        # A full millisecond refills exactly one token.
        assert policy.admit(_request(2), now_us=1600.0, queue_depth=0) is None

    def test_refill_never_exceeds_burst(self):
        policy = TokenBucket(rate_per_ms=100.0, burst=2)
        assert policy.admit(_request(0), now_us=1_000_000.0, queue_depth=0) is None
        assert policy.admit(_request(1), now_us=1_000_000.0, queue_depth=0) is None
        assert (
            policy.admit(_request(2), now_us=1_000_000.0, queue_depth=0)
            == "rate_limited"
        )

    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError, match="rate"):
            TokenBucket(rate_per_ms=0.0, burst=1)
        with pytest.raises(ConfigurationError, match="burst"):
            TokenBucket(rate_per_ms=1.0, burst=0)


class TestQueueBound:
    def test_drops_only_at_the_limit(self):
        policy = QueueBound(queue_limit=2)
        assert policy.admit(_request(), now_us=0.0, queue_depth=0) is None
        assert policy.admit(_request(), now_us=0.0, queue_depth=1) is None
        assert policy.admit(_request(), now_us=0.0, queue_depth=2) == "queue_full"

    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError, match="queue limit"):
            QueueBound(queue_limit=0)
