"""Cross-process metrics merge through the batched dispatch path.

Cell counter deltas ride inside each ``ExperimentResult.metrics`` and
are merged parent-side, so the merged study registry must be identical
no matter how tasks were packed into worker messages: per-task
dispatch, grouped batches, and grouped batches that degraded to the
per-task wholesale fallback all count the same work.
"""

import pytest

from repro.experiments import ExperimentDesign, StudyConfig, run_study
from repro.experiments.optimum import clear_optimum_cache
from repro.experiments.runner import (
    batch_group_key,
    run_experiment,
    run_experiment_batch,
)
from repro.experiments.study import _collect_datasets, build_tasks
from repro.gpu.landscape import clear_landscape_memo
from repro.obs import MetricsRegistry
from repro.parallel import ParallelMap


@pytest.fixture(autouse=True)
def isolated():
    clear_landscape_memo()
    clear_optimum_cache()
    yield
    clear_landscape_memo()
    clear_optimum_cache()


def _config(**kwargs):
    defaults = dict(
        design=ExperimentDesign(sample_sizes=(25,), experiments_at_largest=3),
        algorithms=("random_search", "genetic_algorithm"),
        kernels=("add",),
        archs=("titan_v",),
        image_x=512,
        image_y=512,
        workers=2,
    )
    defaults.update(kwargs)
    return StudyConfig(**defaults)


def _tasks(config, tmp_path):
    datasets = _collect_datasets(config)
    return build_tasks(
        config, datasets, landscape_cache=str(tmp_path / "cache")
    )


def _counts(flat):
    """Deterministic work counters only: timing sums vary run to run,
    and landscape build/load counters depend on cache warmth, not on
    how tasks were dispatched."""
    return {
        name: value
        for name, value in flat.items()
        if "seconds" not in name and not name.startswith("landscape_")
    }


def _merge_outcomes(outcomes):
    registry = MetricsRegistry()
    for outcome in outcomes:
        assert outcome.ok, outcome.error
        registry.merge_flat(outcome.result.metrics)
    return _counts(registry.flat_counters())


def exploding_batch(tasks):
    """Module-level (picklable) batch engine that always fails wholesale."""
    raise RuntimeError("batch engine down")


class TestStudyMetricsMerge:
    def test_grouped_study_merges_identically_to_per_task(self, tmp_path):
        config = _config()
        per_task = _merge_outcomes(
            ParallelMap(workers=2).run(
                run_experiment, _tasks(config, tmp_path)
            )
        )
        doc = run_study(
            config, landscape_cache=tmp_path / "cache"
        ).metadata["metrics"]
        counters = _counts({
            name: family["series"][0]["value"]
            for name, family in doc.items()
            if family["series"][0]["value"]
        })
        # The study adds only its own pool bookkeeping on top of the
        # cells' counters.
        assert counters.pop("pool_tasks_total") == 6
        assert counters == per_task
        # And the merge actually saw worker-side counters.
        assert per_task["evaluations_total"] > 0


class TestPoolMetricsMerge:
    def test_grouped_batches_merge_identically_at_two_workers(
        self, tmp_path
    ):
        config = _config()
        tasks = _tasks(config, tmp_path)
        flat = ParallelMap(workers=2).run(run_experiment, tasks)
        batched = ParallelMap(workers=2).run_grouped(
            run_experiment,
            run_experiment_batch,
            tasks,
            group_key=batch_group_key,
        )
        assert _merge_outcomes(flat) == _merge_outcomes(batched)

    def test_wholesale_fallback_merges_identically(self, tmp_path):
        # A broken batch engine degrades every batch to per-task
        # run_experiment in the workers; the merged counters must be
        # indistinguishable from a healthy per-task run.
        config = _config()
        tasks = _tasks(config, tmp_path)
        healthy = ParallelMap(workers=2).run(run_experiment, tasks)

        registry = MetricsRegistry()
        fallback = ParallelMap(workers=2, metrics=registry).run_grouped(
            run_experiment,
            exploding_batch,
            tasks,
            group_key=batch_group_key,
        )
        assert _merge_outcomes(healthy) == _merge_outcomes(fallback)
        # The wholesale batch attempt is visible in the retry counter —
        # degradation is observable, never silent.
        assert registry.counter("task_retries_total").value == float(
            len(tasks)
        )
        assert all(o.attempts == 2 for o in fallback)

    def test_fallback_results_byte_identical_to_per_task(self, tmp_path):
        config = _config(algorithms=("random_search",))
        tasks = _tasks(config, tmp_path)
        healthy = ParallelMap(workers=2).run(run_experiment, tasks)
        fallback = ParallelMap(workers=2).run_grouped(
            run_experiment,
            exploding_batch,
            tasks,
            group_key=batch_group_key,
        )
        assert [o.result for o in healthy] == [o.result for o in fallback]
        for h, f in zip(healthy, fallback):
            assert h.result.metrics == f.result.metrics
