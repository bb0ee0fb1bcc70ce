"""Unit tests for the parallel dispatch wrapper."""

import os

import pytest

from repro.parallel import (
    ParallelMap,
    TaskError,
    TaskOutcome,
    TransientError,
    default_worker_count,
)


def square(x):
    return x * x


def failing(x):
    if x == 3:
        raise RuntimeError("boom")
    return x


def failing_many(x):
    if x % 3 == 0:
        raise ValueError(f"bad task {x}")
    return x * 10


def one_group(_task):
    return 0


def results(outcomes):
    return [o.result for o in outcomes]


def flaky_until_marker(arg):
    """Fails with TransientError until a marker file exists (cross-process)."""
    x, marker = arg
    if not os.path.exists(marker):
        with open(marker, "w") as fh:
            fh.write("seen")
        raise TransientError("first attempt flake")
    return x * 2


class TestSerial:
    def test_order_preserved(self):
        out = ParallelMap(workers=1).run(square, list(range(10)))
        assert results(out) == [x * x for x in range(10)]

    def test_empty(self):
        assert ParallelMap(workers=1).run(square, []) == []

    def test_error_carries_task(self):
        with pytest.raises(TaskError) as err:
            ParallelMap(workers=1).run(failing, [1, 2, 3, 4])
        assert err.value.task == 3
        assert isinstance(err.value.cause, RuntimeError)


class TestParallel:
    def test_order_preserved_across_workers(self):
        out = ParallelMap(workers=2).run(square, list(range(20)))
        assert [o.index for o in out] == list(range(20))
        assert results(out) == [x * x for x in range(20)]

    def test_single_task_runs_inline(self):
        assert results(ParallelMap(workers=4).run(square, [5])) == [25]

    def test_worker_error_propagates(self):
        with pytest.raises(TaskError):
            ParallelMap(workers=2).run(failing, list(range(6)))

    def test_workers_floor_at_one(self):
        pm = ParallelMap(workers=0)
        assert pm.workers == 1


class TestFailureAttribution:
    """Regression: a mid-batch failure must name the task that raised,
    not the first task of the batch it happened to be shipped in."""

    def test_serial_names_exact_task(self):
        with pytest.raises(TaskError) as err:
            ParallelMap(workers=1).run(failing, [1, 2, 3, 4])
        assert err.value.task == 3

    def test_parallel_names_exact_task_mid_chunk(self):
        # 64 one-group tasks over 2 workers: the cost cap of
        # 64 / (8 * 2) = 4 tasks puts the failing task 3 mid-batch
        # ([1..4], [5..8], ...), behind batch[0] == 1.
        with pytest.raises(TaskError) as err:
            ParallelMap(workers=2).run_grouped(
                failing, None, list(range(1, 65)), one_group
            )
        assert err.value.task == 3
        assert isinstance(err.value.cause, RuntimeError)
        assert "boom" in err.value.traceback

    def test_parallel_traceback_captured(self):
        with pytest.raises(TaskError) as err:
            ParallelMap(workers=2).run(failing, list(range(6)))
        assert "RuntimeError" in err.value.traceback


class TestCollectPolicy:
    def test_collect_runs_everything(self):
        pm = ParallelMap(workers=1, failure_policy="collect")
        outcomes = pm.run(failing_many, list(range(7)))
        assert len(outcomes) == 7
        failed = [o for o in outcomes if not o.ok]
        assert [o.task for o in failed] == [0, 3, 6]
        ok = [o for o in outcomes if o.ok]
        assert [o.result for o in ok] == [10, 20, 40, 50]

    def test_collect_parallel_order_and_attribution(self):
        pm = ParallelMap(workers=2, failure_policy="collect")
        outcomes = pm.run_grouped(
            failing_many, None, list(range(32)), one_group
        )
        assert [o.index for o in outcomes] == list(range(32))
        assert [o.task for o in outcomes] == list(range(32))
        for o in outcomes:
            if o.task % 3 == 0:
                assert not o.ok
                assert o.error_type == "ValueError"
                assert f"bad task {o.task}" in str(o.error)
            else:
                assert o.ok and o.result == o.task * 10

    def test_on_outcome_sees_every_task(self):
        seen = []
        pm = ParallelMap(workers=1, failure_policy="collect")
        pm.run(failing_many, list(range(5)), on_outcome=seen.append)
        assert sorted(o.task for o in seen) == list(range(5))

    def test_bad_policy_rejected(self):
        with pytest.raises(ValueError):
            ParallelMap(failure_policy="ignore")


class TestRetry:
    def test_serial_retry_transient(self, tmp_path):
        marker = str(tmp_path / "marker")
        pm = ParallelMap(workers=1, retries=2)
        outcomes = pm.run(flaky_until_marker, [(7, marker)])
        assert outcomes[0].ok
        assert outcomes[0].result == 14
        assert outcomes[0].attempts == 2

    def test_parallel_retry_transient(self, tmp_path):
        marker = str(tmp_path / "marker")
        pm = ParallelMap(workers=2, retries=2)
        outcomes = pm.run(
            flaky_until_marker, [(7, marker), (8, str(tmp_path / "m2"))]
        )
        assert all(o.ok for o in outcomes)
        assert [o.result for o in outcomes] == [14, 16]

    def test_non_retryable_fails_immediately(self):
        pm = ParallelMap(workers=1, retries=3, failure_policy="collect")
        outcomes = pm.run(failing, [3])
        assert not outcomes[0].ok
        assert outcomes[0].attempts == 1

    def test_no_retries_by_default(self, tmp_path):
        marker = str(tmp_path / "marker")
        pm = ParallelMap(workers=1, failure_policy="collect")
        outcomes = pm.run(flaky_until_marker, [(7, marker)])
        assert not outcomes[0].ok
        assert outcomes[0].error_type == "TransientError"


class TestDefaults:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert default_worker_count() == 3

    def test_env_invalid_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "many")
        assert default_worker_count() >= 1

    def test_no_env_uses_affinity_then_cpu_count(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        if hasattr(os, "sched_getaffinity"):
            expected = max(1, len(os.sched_getaffinity(0)))
        else:  # pragma: no cover - non-Linux
            expected = max(1, os.cpu_count() or 1)
        assert default_worker_count() == expected

    def test_no_env_respects_affinity_mask(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        if not hasattr(os, "sched_getaffinity"):  # pragma: no cover
            pytest.skip("no sched_getaffinity on this platform")
        # A CI job pinned to 2 of a 64-core host must not fork 64
        # workers, whatever os.cpu_count() claims.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert default_worker_count() == 2
