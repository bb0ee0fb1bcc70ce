"""``run_study`` against its reference: a plain per-task loop.

``run_study`` always dispatches replication groups through the batched
engine, which may share setup and vectorize across a group — but every
replication keeps its own cell-key-derived RNG streams.  So results,
checkpoint bytes must be *identical* to the simplest possible study:
``run_experiment`` called on each task of ``build_tasks`` in order, not
merely statistically equivalent.

Wall-clock timing sums in ``ExperimentResult.metrics`` are the one
legitimately nondeterministic result payload, so ``time.perf_counter``
is pinned where whole results are compared.
"""

import json
import time

import pytest

from repro.experiments import ExperimentDesign, StudyConfig, run_study
from repro.experiments.optimum import clear_optimum_cache
from repro.experiments.runner import (
    FAIL_CELLS_ENV,
    batch_group_key,
    run_experiment,
    run_experiment_batch,
)
from repro.experiments.checkpoint import StudyCheckpoint
from repro.experiments.study import build_tasks, _collect_datasets
from repro.gpu.landscape import LANDSCAPE_CACHE_ENV, clear_landscape_memo
from repro.parallel import TaskFailure

ALL_PAPER_ALGORITHMS = (
    "random_search",
    "random_forest",
    "genetic_algorithm",
    "bo_gp",
    "bo_tpe",
)


@pytest.fixture(autouse=True)
def isolated(monkeypatch):
    monkeypatch.delenv(LANDSCAPE_CACHE_ENV, raising=False)
    monkeypatch.delenv(FAIL_CELLS_ENV, raising=False)
    clear_landscape_memo()
    clear_optimum_cache()
    yield
    clear_landscape_memo()
    clear_optimum_cache()


def smoke_config(**kwargs):
    defaults = dict(
        design=ExperimentDesign(sample_sizes=(25,), experiments_at_largest=3),
        algorithms=ALL_PAPER_ALGORITHMS,
        kernels=("add",),
        archs=("titan_v",),
        image_x=512,
        image_y=512,
        workers=1,
    )
    defaults.update(kwargs)
    return StudyConfig(**defaults)


def reference_results(config, cache=None):
    """The per-task reference: ``run_experiment`` over ``build_tasks``."""
    tasks = build_tasks(
        config,
        _collect_datasets(config),
        landscape_cache=str(cache) if cache is not None else None,
    )
    return tasks, [run_experiment(task) for task in tasks]


def reference_checkpoint(config, path, cache=None):
    """The checkpoint a plain loop writes: plan, then cells in order."""
    tasks, results = reference_results(config, cache)
    with StudyCheckpoint(path, root_seed=config.root_seed) as ckpt:
        ckpt.record_plan({"total_cells": len(tasks)})
        for task, result in zip(tasks, results):
            ckpt.record_result(task.cell_key, result)
    return path.read_bytes()


class TestStudyParity:
    def test_all_paper_tuners_identical_with_tables(self, tmp_path):
        config = smoke_config()
        cache = tmp_path / "cache"
        study = run_study(config, landscape_cache=cache)
        _, reference = reference_results(config, cache)
        assert study.results == reference
        for a, b in zip(study.results, reference):
            assert a.final_runtime_ms == b.final_runtime_ms
            assert a.observed_best_ms == b.observed_best_ms
            assert a.best_flat == b.best_flat
            assert a.convergence == b.convergence

    def test_identical_without_tables(self):
        # No landscape cache: the vectorized RS engine is unavailable and
        # every cell takes the shared-context fallback — still identical.
        config = smoke_config(
            algorithms=("random_search", "random_forest", "bo_tpe")
        )
        study = run_study(config, compute_optima=False)
        assert study.results == reference_results(config)[1]

    def test_workers_do_not_change_results(self, tmp_path):
        cache = tmp_path / "cache"
        parallel = run_study(smoke_config(workers=2), landscape_cache=cache)
        assert parallel.results == reference_results(smoke_config(), cache)[1]

    def test_checkpoints_byte_identical_including_mid_group_resume(
        self, tmp_path
    ):
        config = smoke_config()
        cache = tmp_path / "cache"
        reference = reference_checkpoint(
            config, tmp_path / "reference.jsonl", cache
        )

        study_ckpt = tmp_path / "study.jsonl"
        run_study(config, checkpoint=study_ckpt, landscape_cache=cache)
        assert study_ckpt.read_bytes() == reference

        # Cell metrics survive the grouped path byte-for-byte too.
        for line in reference.decode().splitlines():
            record = json.loads(line)
            if record.get("kind") == "result":
                assert "metrics" in record["data"]

        # Resume mid-group: truncate inside the first replication group
        # (3 RS experiments form one batch) — same results, same bytes.
        clear_optimum_cache()
        lines = reference.splitlines(keepends=True)
        assert len(lines) > 2
        resumed_ckpt = tmp_path / "resumed.jsonl"
        # Header + plan line + first completed cell.
        resumed_ckpt.write_bytes(b"".join(lines[:3]))
        resumed = run_study(
            config, checkpoint=resumed_ckpt, landscape_cache=cache
        )
        assert resumed.metadata["resumed_from_checkpoint"] == 1
        assert resumed.results == reference_results(config, cache)[1]
        assert resumed_ckpt.read_bytes() == reference


class TestFailuresUnderBatchedDispatch:
    def test_injected_failure_attributed_siblings_survive(
        self, tmp_path, monkeypatch
    ):
        config = smoke_config(algorithms=("random_search",))
        cache = tmp_path / "cache"
        bad_cell = "random_search/add/titan_v/25/1"
        monkeypatch.setenv(FAIL_CELLS_ENV, bad_cell)
        results = run_study(
            config,
            compute_optima=False,
            failure_policy="collect",
            landscape_cache=cache,
        )
        failed = results.failed_cells
        assert [f["cell_key"] for f in failed] == [bad_cell]
        assert failed[0]["error_type"] == "InjectedFailure"
        # The two sibling replications of the same batch completed, and
        # their payloads match the unpoisoned per-task reference exactly.
        assert len(results.results) == 2
        monkeypatch.delenv(FAIL_CELLS_ENV)
        by_exp = {
            r.experiment: r for r in reference_results(config, cache)[1]
        }
        for r in results.results:
            assert r == by_exp[r.experiment]

    def test_injected_failure_fallback_path(self, tmp_path, monkeypatch):
        # RF groups take the shared-context fallback (live reserve > 0):
        # the failure must still land on exactly the injected cell.
        config = smoke_config(algorithms=("random_forest",))
        bad_cell = "random_forest/add/titan_v/25/0"
        monkeypatch.setenv(FAIL_CELLS_ENV, bad_cell)
        results = run_study(
            config,
            compute_optima=False,
            failure_policy="collect",
            landscape_cache=tmp_path / "cache",
        )
        assert [f["cell_key"] for f in results.failed_cells] == [bad_cell]
        assert {r.experiment for r in results.results} == {1, 2}

    def test_fail_fast_names_injected_cell(self, tmp_path, monkeypatch):
        from repro.parallel import TaskError

        config = smoke_config(algorithms=("random_search",))
        bad_cell = "random_search/add/titan_v/25/0"
        monkeypatch.setenv(FAIL_CELLS_ENV, bad_cell)
        with pytest.raises(TaskError) as err:
            run_study(
                config,
                compute_optima=False,
                landscape_cache=tmp_path / "cache",
            )
        assert err.value.task.cell_key == bad_cell


class TestRunExperimentBatch:
    def _tasks(self, config, tmp_path):
        datasets = _collect_datasets(config)
        return build_tasks(
            config, datasets, landscape_cache=str(tmp_path / "cache")
        )

    def test_matches_run_experiment_per_task(self, tmp_path, monkeypatch):
        monkeypatch.setattr(time, "perf_counter", lambda: 0.0)
        config = smoke_config()
        tasks = self._tasks(config, tmp_path)
        batched = run_experiment_batch(tasks)
        assert len(batched) == len(tasks)
        for task, item in zip(tasks, batched):
            assert not isinstance(item, TaskFailure)
            assert item == run_experiment(task)
            assert item.metrics == run_experiment(task).metrics

    def test_mixed_groups_handled(self, tmp_path):
        # run_experiment_batch splits mixed input by group key itself.
        config = smoke_config(
            algorithms=("random_search", "genetic_algorithm")
        )
        tasks = self._tasks(config, tmp_path)
        keys = {batch_group_key(t) for t in tasks}
        assert len(keys) == 2
        shuffled = tasks[::-1]
        batched = run_experiment_batch(shuffled)
        for task, item in zip(shuffled, batched):
            assert item == run_experiment(task)

    def test_bad_dataset_payload_fails_only_that_task(self, tmp_path):
        config = smoke_config(algorithms=("random_search",))
        tasks = self._tasks(config, tmp_path)
        from dataclasses import replace

        broken = replace(
            tasks[1],
            dataset_flats=tasks[1].dataset_flats[:-3],
            dataset_runtimes=tasks[1].dataset_runtimes[:-3],
        )
        batch = [tasks[0], broken, tasks[2]]
        items = run_experiment_batch(batch)
        assert items[0] == run_experiment(tasks[0])
        assert isinstance(items[1], TaskFailure)
        assert "dataset slice" in str(items[1].error)
        assert items[2] == run_experiment(tasks[2])

    def test_empty_batch(self):
        assert run_experiment_batch([]) == []
