"""Grouped (batched) pool dispatch: ordering, attribution, retries.

``ParallelMap.run_grouped`` ships whole replication groups to a batch
function; these tests pin the contract the batched study engine relies
on: outcomes stay in input order, a failure inside a batch is attributed
to exactly the task that failed (its batch-mates' results survive), only
the failed task is re-run on retry, and a batch function that raises
wholesale degrades to per-task execution without losing anything.  Every
message is one batch, capped by the default batch size and, on a
non-inline executor, by a share of the total cost.
"""

import pytest

from repro.parallel import ParallelMap, TaskError, TaskFailure, TransientError
from repro.parallel.executors.base import (
    ExecutionSettings,
    Executor,
    UnitResult,
)
from repro.parallel.pool import DEFAULT_GROUP_BATCH, _run_batch

# Module-level functions so the workers>1 paths can pickle them.

CALLS = []


def square(task):
    return task * task


def square_batch(batch):
    return [t * t for t in batch]


def batch_with_failures(batch):
    out = []
    for t in batch:
        if t % 10 == 3:
            try:
                raise ValueError(f"task {t} is bad")
            except ValueError as exc:
                out.append(TaskFailure.from_exception(exc))
        else:
            out.append(t * t)
    return out


def exploding_batch(batch):
    raise RuntimeError("engine is broken")


def wrong_arity_batch(batch):
    return [t * t for t in batch][:-1]


def group_of(task):
    return task % 2


class TestRunGroupedSerial:
    def test_results_in_input_order(self):
        pool = ParallelMap(workers=1)
        tasks = [5, 2, 9, 4, 7, 0]
        outcomes = pool.run_grouped(square, square_batch, tasks, group_of)
        assert [o.index for o in outcomes] == list(range(len(tasks)))
        assert [o.result for o in outcomes] == [t * t for t in tasks]
        assert all(o.ok for o in outcomes)

    def test_empty_tasks(self):
        pool = ParallelMap(workers=1)
        assert pool.run_grouped(square, square_batch, [], group_of) == []

    def test_groups_split_into_batches(self):
        seen = []

        def recording_batch(batch):
            seen.append(list(batch))
            return [t * t for t in batch]

        pool = ParallelMap(workers=1, failure_policy="collect")
        tasks = list(range(2 * (DEFAULT_GROUP_BATCH + 6)))
        pool.run_grouped(square, recording_batch, tasks, group_of)
        # Two groups (even/odd), each split into a full batch + 6 tasks.
        assert sorted(len(b) for b in seen) == [
            6, 6, DEFAULT_GROUP_BATCH, DEFAULT_GROUP_BATCH
        ]
        for batch in seen:
            keys = {group_of(t) for t in batch}
            assert len(keys) == 1  # no batch mixes groups

    def test_default_batch_size_bounds_batches(self):
        seen = []

        def recording_batch(batch):
            seen.append(len(batch))
            return [0] * len(batch)

        pool = ParallelMap(workers=1, failure_policy="collect")
        pool.run_grouped(
            square, recording_batch, list(range(150)), lambda t: 0
        )
        assert max(seen) == DEFAULT_GROUP_BATCH

    def test_failure_attributed_to_exact_task(self):
        pool = ParallelMap(workers=1, failure_policy="collect")
        tasks = [1, 3, 5, 13, 7]  # all one group; 3 and 13 fail
        outcomes = pool.run_grouped(
            square, batch_with_failures, tasks, lambda t: 0
        )
        failed = [o for o in outcomes if not o.ok]
        assert [o.task for o in failed] == [3, 13]
        for o in failed:
            assert o.error_type == "ValueError"
            assert f"task {o.task} is bad" in str(o.error)
            assert "ValueError" in o.traceback
        # Batch-mates of the failures keep their results.
        assert [o.result for o in outcomes if o.ok] == [1, 25, 49]

    def test_fail_fast_raises_naming_the_task(self):
        pool = ParallelMap(workers=1, failure_policy="fail_fast")
        with pytest.raises(TaskError) as err:
            pool.run_grouped(
                square, batch_with_failures, [1, 3, 5], lambda t: 0
            )
        assert err.value.task == 3

    def test_batch_fn_exception_falls_back_to_per_task(self):
        pool = ParallelMap(workers=1)
        outcomes = pool.run_grouped(
            square, exploding_batch, [2, 3, 4], lambda t: 0
        )
        assert [o.result for o in outcomes] == [4, 9, 16]

    def test_wrong_arity_falls_back_to_per_task(self):
        pool = ParallelMap(workers=1)
        outcomes = pool.run_grouped(
            square, wrong_arity_batch, [2, 3, 4], lambda t: 0
        )
        assert [o.result for o in outcomes] == [4, 9, 16]

    def test_on_outcome_sees_every_task(self):
        pool = ParallelMap(workers=1, failure_policy="collect")
        seen = []
        pool.run_grouped(
            square,
            batch_with_failures,
            [1, 3, 5],
            lambda t: 0,
            on_outcome=seen.append,
        )
        assert sorted(o.task for o in seen) == [1, 3, 5]


class TestRetryWithinBatch:
    def test_only_failed_task_retried(self):
        attempts = []

        def flaky(task):
            attempts.append(task)
            return task * task

        def transient_batch(batch):
            out = []
            for t in batch:
                if t == 3:
                    try:
                        raise TransientError("hiccup")
                    except TransientError as exc:
                        out.append(TaskFailure.from_exception(exc))
                else:
                    out.append(t * t)
            return out

        pool = ParallelMap(
            workers=1, failure_policy="collect", retries=2
        )
        outcomes = pool.run_grouped(
            flaky, transient_batch, [1, 3, 5], lambda t: 0
        )
        # Only the failed task went through the per-task function.
        assert attempts == [3]
        assert all(o.ok for o in outcomes)
        retried = next(o for o in outcomes if o.task == 3)
        assert retried.attempts == 2  # batch try + one individual retry
        assert retried.result == 9
        assert all(o.attempts == 1 for o in outcomes if o.task != 3)

    def test_nonretryable_failure_not_rerun(self):
        attempts = []

        def flaky(task):
            attempts.append(task)
            return task * task

        pool = ParallelMap(
            workers=1, failure_policy="collect", retries=3
        )
        outcomes = pool.run_grouped(
            flaky, batch_with_failures, [1, 3], lambda t: 0
        )
        assert attempts == []  # ValueError is not retryable
        bad = next(o for o in outcomes if o.task == 3)
        assert not bad.ok and bad.attempts == 1

    def test_retry_exhaustion_reports_last_error(self):
        def always_fails(task):
            raise TransientError(f"still down ({task})")

        def transient_batch(batch):
            out = []
            for t in batch:
                try:
                    raise TransientError("first failure")
                except TransientError as exc:
                    out.append(TaskFailure.from_exception(exc))
            return out

        pool = ParallelMap(
            workers=1, failure_policy="collect", retries=2
        )
        outcomes = pool.run_grouped(
            always_fails, transient_batch, [7], lambda t: 0
        )
        (outcome,) = outcomes
        assert not outcome.ok
        assert outcome.attempts == 3  # batch + 2 retries
        assert "still down (7)" in str(outcome.error)


class TestRunGroupedParallel:
    def test_matches_serial_results(self):
        tasks = list(range(23))
        serial = ParallelMap(workers=1).run_grouped(
            square, square_batch, tasks, group_of
        )
        parallel = ParallelMap(workers=2).run_grouped(
            square, square_batch, tasks, group_of
        )
        assert [o.result for o in serial] == [o.result for o in parallel]
        assert [o.index for o in parallel] == list(range(len(tasks)))

    def test_parallel_failure_attribution(self):
        tasks = [1, 3, 5, 13, 7, 2, 4]
        pool = ParallelMap(workers=2, failure_policy="collect")
        outcomes = pool.run_grouped(
            square, batch_with_failures, tasks, group_of
        )
        assert sorted(o.task for o in outcomes if not o.ok) == [3, 13]
        assert sorted(o.result for o in outcomes if o.ok) == sorted(
            t * t for t in tasks if t % 10 != 3
        )


class TestRunBatchUnit:
    def test_result_slots_map_one_to_one(self):
        outcomes = _run_batch(
            square, batch_with_failures, [10, 11, 12], [5, 3, 9],
            ExecutionSettings(),
        )
        assert [o.index for o in outcomes] == [10, 11, 12]
        assert [o.task for o in outcomes] == [5, 3, 9]
        assert [o.ok for o in outcomes] == [True, False, True]


class TestWholesaleFallbackAccounting:
    def test_fallback_counts_the_batch_attempt(self):
        # A wholesale batch explosion consumes one attempt per task; the
        # per-task fallback must report it (attempts >= 2), not restart
        # the count at 1.
        pool = ParallelMap(workers=1)
        outcomes = pool.run_grouped(
            square, exploding_batch, [2, 3, 4], lambda t: 0
        )
        assert [o.result for o in outcomes] == [4, 9, 16]
        assert [o.attempts for o in outcomes] == [2, 2, 2]

    def test_fallback_attempts_feed_retry_metrics(self):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        pool = ParallelMap(workers=1, metrics=registry)
        pool.run_grouped(square, exploding_batch, [2, 3, 4], lambda t: 0)
        # One extra (batch) attempt per task lands in the counter.
        assert registry.counter("task_retries_total").value == 3.0

    def test_wrong_arity_fallback_also_counted(self):
        pool = ParallelMap(workers=1)
        outcomes = pool.run_grouped(
            square, wrong_arity_batch, [2, 3, 4], lambda t: 0
        )
        assert [o.attempts for o in outcomes] == [2, 2, 2]

    def test_fallback_attempts_consume_retry_budget(self):
        # With retries=1, the wholesale batch attempt plus one fallback
        # attempt exhaust the budget: a transient per-task failure after
        # a broken batch is NOT retried again.
        calls = []

        def transient_once(task):
            calls.append(task)
            raise TransientError("still warming up")

        pool = ParallelMap(
            workers=1, failure_policy="collect", retries=1
        )
        (outcome,) = pool.run_grouped(
            transient_once, exploding_batch, [7], lambda t: 0
        )
        assert not outcome.ok
        assert outcome.attempts == 2  # batch + one per-task attempt
        assert calls == [7]


def transient_failure_batch(batch):
    out = []
    for _ in batch:
        try:
            raise TransientError("batch try failed")
        except TransientError as exc:
            out.append(TaskFailure.from_exception(exc))
    return out


class TestRetrySchedule:
    """Attempts and backoff sleeps of a task that never succeeds, on each
    route into the retry loop: a first try through ``fn``, a
    ``TaskFailure`` slot from the batch function, and a batch function
    that raises as a whole (its attempt is followed by one through
    ``fn`` at once, with no sleep)."""

    @pytest.mark.parametrize(
        "route, retries, attempts, sleeps",
        [
            ("fn", 0, 1, []),
            ("fn", 1, 2, [0.05]),
            ("fn", 3, 4, [0.05, 0.1, 0.2]),
            ("task_failure", 0, 1, []),
            ("task_failure", 1, 2, [0.05]),
            ("task_failure", 3, 4, [0.05, 0.1, 0.2]),
            ("batch_raises", 0, 2, []),
            ("batch_raises", 1, 2, []),
            ("batch_raises", 3, 4, [0.1, 0.2]),
        ],
    )
    def test_attempts_and_sleeps(
        self, monkeypatch, route, retries, attempts, sleeps
    ):
        slept = []
        monkeypatch.setattr("time.sleep", slept.append)
        calls = []

        def fn(task):
            calls.append(task)
            raise TransientError(f"still down ({task})")

        pool = ParallelMap(
            workers=1, failure_policy="collect", retries=retries
        )
        if route == "fn":
            (outcome,) = pool.run(fn, [7])
        else:
            batch_fn = (
                transient_failure_batch
                if route == "task_failure"
                else exploding_batch
            )
            (outcome,) = pool.run_grouped(fn, batch_fn, [7], lambda t: 0)
        assert not outcome.ok
        assert outcome.error_type == "TransientError"
        assert outcome.attempts == attempts
        assert len(calls) == attempts - (route != "fn")
        assert slept == pytest.approx(sleeps)


class RecordingExecutor(Executor):
    """A non-inline executor that runs units in the caller, recording
    each one; ``reverse`` completes them last-submitted-first."""

    name = "recording"

    def __init__(self, workers=2, reverse=False):
        self.workers = workers
        self.reverse = reverse
        self.units = []

    def worker_count(self):
        return self.workers

    def submit(self, units):
        units = list(units)
        self.units.extend(units)
        for unit in reversed(units) if self.reverse else units:
            yield UnitResult(unit=unit, outcomes=unit.entry(*unit.payload))

    def batches(self):
        """``(indices, batch)`` of every recorded message."""
        return [(unit.payload[2], unit.payload[3]) for unit in self.units]


def _cost(task):
    return task[1]


def _group(task):
    return task[0]


#: (group, cost) tasks shaped like a study round: many cheap cells in
#: the small-S groups, a few expensive ones in the large-S groups.
COSTED = (
    [("s25", 25)] * 64 + [("s50", 50)] * 32 + [("s100", 100)] * 16
    + [("s200", 200)] * 8 + [("s400", 400)] * 4
)


def _cost_batch(batch):
    return [c for _, c in batch]


class TestOneBatchPerMessage:
    def _run(self, executor, tasks, **kw):
        pool = ParallelMap(executor=executor)
        return pool.run_grouped(
            _cost, _cost_batch, tasks, _group, **kw
        )

    def test_every_message_is_one_batch_of_one_group(self):
        executor = RecordingExecutor()
        self._run(executor, COSTED, cost=_cost)
        assert all(unit.entry is _run_batch for unit in executor.units)
        for indices, batch in executor.batches():
            assert len(indices) == len(batch) >= 1
            assert len({_group(t) for t in batch}) == 1
            assert [COSTED[i] for i in indices] == batch

    def test_batches_cover_tasks_once_in_input_order(self):
        executor = RecordingExecutor()
        self._run(executor, COSTED, cost=_cost)
        flat = [i for indices, _ in executor.batches() for i in indices]
        # Groups are contiguous here, so dispatch order is input order.
        assert flat == list(range(len(COSTED)))

    def test_interleaved_groups_keep_member_order(self):
        executor = RecordingExecutor()
        tasks = list(range(40))
        ParallelMap(executor=executor).run_grouped(
            square, square_batch, tasks, group_of
        )
        flat = []
        for indices, batch in executor.batches():
            assert indices == sorted(indices)
            assert batch == [tasks[i] for i in indices]
            flat.extend(indices)
        assert sorted(flat) == tasks

    def test_no_batch_exceeds_the_cost_cap(self):
        executor = RecordingExecutor(workers=2)
        outcomes = self._run(executor, COSTED, cost=_cost)
        cap = sum(c for _, c in COSTED) / (8 * 2)
        costs = [sum(c for _, c in batch) for _, batch in executor.batches()]
        assert max(costs) <= cap
        # The expensive groups spread over several messages.
        assert len(executor.batches()) > len({_group(t) for t in COSTED})
        assert [o.result for o in outcomes] == [c for _, c in COSTED]

    def test_count_cap_without_cost(self):
        executor = RecordingExecutor()
        self._run(executor, [("g", 1)] * 150)
        sizes = [len(batch) for _, batch in executor.batches()]
        # Unit costs: the cap is 150 / 16 tasks, below the default batch.
        assert max(sizes) <= min(DEFAULT_GROUP_BATCH, 150 / 16)
        assert sum(sizes) == 150

    def test_eight_s400_cells_are_one_message_each(self):
        # The cost cap alone, 3,200 / (8 * 2) = 200 < 400, gives every
        # expensive cell its own message.
        executor = RecordingExecutor(workers=2)
        self._run(executor, [("bo_tpe", 400)] * 8, cost=_cost)
        assert [len(batch) for _, batch in executor.batches()] == [1] * 8

    def test_run_sends_every_task_alone(self):
        executor = RecordingExecutor()
        outcomes = ParallelMap(executor=executor).run(square, [3, 3, 5])
        # Equal tasks still travel apart, with no batch function.
        assert executor.batches() == [([0], [3]), ([1], [3]), ([2], [5])]
        assert all(unit.payload[1] is None for unit in executor.units)
        assert [o.result for o in outcomes] == [9, 9, 25]

    def test_on_outcome_in_input_order_despite_reversed_completion(self):
        executor = RecordingExecutor(reverse=True)
        seen = []
        outcomes = self._run(
            executor, COSTED, cost=_cost, on_outcome=seen.append
        )
        assert len(executor.batches()) > 1
        assert [o.index for o in seen] == list(range(len(COSTED)))
        assert [o.index for o in outcomes] == list(range(len(COSTED)))
