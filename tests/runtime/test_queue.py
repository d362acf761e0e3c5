"""Unit tests for the sharded work queue (repro.runtime.queue)."""

import pytest

import sweep_helpers
from repro.errors import ConfigurationError
from repro.runtime import queue as queue_module
from repro.runtime.queue import ShardedWorkQueue


def _square_task(task):
    value, bad = task
    if value == bad:
        raise ValueError(f"poisoned point {value}")
    return value * value


def _sleepy_task(task):
    return sweep_helpers.sleep_then_return(task["value"], task["seconds"])


class TestFaultIsolation:
    def test_in_process_exception_becomes_error_outcome(self):
        queue = ShardedWorkQueue(_square_task, workers=1)
        outcomes = queue.run([(1, 2), (2, 2), (3, 2)])
        assert [o.status for o in outcomes] == ["ok", "error", "ok"]
        assert [o.value for o in outcomes] == [1, None, 9]
        error = outcomes[1].error
        assert error["type"] == "ValueError"
        assert "poisoned point 2" in error["message"]
        assert "ValueError" in error["traceback"]

    def test_pool_exception_becomes_error_outcome(self):
        queue = ShardedWorkQueue(_square_task, workers=2)
        outcomes = queue.run([(v, 3) for v in range(5)])
        assert [o.status for o in outcomes] == ["ok", "ok", "ok", "error", "ok"]
        assert outcomes[3].error["type"] == "ValueError"

    def test_results_stream_through_on_result(self, monkeypatch):
        monkeypatch.setattr(queue_module, "DEFAULT_SHARD_SIZE", 2)
        queue = ShardedWorkQueue(_square_task, workers=1)
        seen = []
        queue.run([(v, -1) for v in range(5)], on_result=lambda i, o: seen.append(i))
        assert sorted(seen) == [0, 1, 2, 3, 4]


class TestRetries:
    def test_bounded_retry_counts_attempts(self):
        queue = ShardedWorkQueue(_square_task, workers=1, retries=2)
        (outcome,) = queue.run([(2, 2)])
        assert outcome.status == "error"
        assert outcome.attempts == 3  # 1 original + 2 retries

    def test_transient_failure_heals_within_one_run(self, tmp_path):
        def flaky(task):
            return sweep_helpers.fail_once(task, str(tmp_path))

        queue = ShardedWorkQueue(flaky, workers=1, retries=1)
        outcomes = queue.run([1, 2])
        assert all(o.ok for o in outcomes)
        assert [o.value for o in outcomes] == [1, 4]
        assert all(o.attempts == 2 for o in outcomes)

    def test_retry_does_not_block_healthy_points(self, monkeypatch):
        monkeypatch.setattr(queue_module, "DEFAULT_SHARD_SIZE", 2)
        queue = ShardedWorkQueue(_square_task, workers=1, retries=5)
        order = []
        queue.run(
            [(0, 0), (1, -1), (2, -1)],
            on_result=lambda i, o: order.append((i, o.status)),
        )
        # The healthy points finish before the poisoned point exhausts its
        # retries at the back of the queue.
        assert order[-1] == (0, "error")


class TestTimeout:
    def test_hung_point_times_out_and_siblings_survive(self):
        queue = ShardedWorkQueue(_sleepy_task, workers=2, timeout_s=1.0)
        outcomes = queue.run(
            [
                {"value": 1, "seconds": 0.01},
                {"value": 2, "seconds": 30.0},
                {"value": 3, "seconds": 0.01},
            ]
        )
        assert outcomes[0].ok and outcomes[0].value == 1
        assert outcomes[1].status == "error"
        assert outcomes[1].error["type"] == "TimeoutError"
        # The pool restarted after the kill and the last point still ran.
        assert outcomes[2].ok and outcomes[2].value == 3


class TestValidation:
    def test_bad_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            ShardedWorkQueue(_square_task, workers=0)
        with pytest.raises(ConfigurationError):
            ShardedWorkQueue(_square_task, timeout_s=0)
        with pytest.raises(ConfigurationError):
            ShardedWorkQueue(_square_task, retries=-1)

    def test_empty_task_list(self):
        assert ShardedWorkQueue(_square_task).run([]) == []
