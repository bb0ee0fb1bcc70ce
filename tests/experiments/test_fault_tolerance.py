"""Fault tolerance, checkpoint/resume and observability of run_study.

The acceptance scenario for the fault-tolerant executor: a study with an
injected per-cell failure completes, names the exact failing cell(s) in
``StudyResults.metadata``, and a resumed run from its checkpoint is
bit-identical to an uninterrupted run with the same ``root_seed``.
"""

import numpy as np
import pytest

from repro.experiments import (
    ExperimentDesign,
    NonFiniteResultError,
    StudyCheckpoint,
    StudyConfig,
    run_experiment,
    run_study,
)
from repro.experiments.runner import FAIL_CELLS_ENV, ExperimentTask
from repro.parallel import TaskError

FAILING_CELL = "genetic_algorithm/add/titan_v/25/1"


def tiny_config(**kwargs):
    defaults = dict(
        design=ExperimentDesign(sample_sizes=(25,), experiments_at_largest=2),
        algorithms=("random_search", "genetic_algorithm"),
        kernels=("add",),
        archs=("titan_v",),
        image_x=512,
        image_y=512,
        workers=1,
    )
    defaults.update(kwargs)
    return StudyConfig(**defaults)


class TestInjectedFailure:
    def test_collect_completes_and_names_cell(self, monkeypatch):
        monkeypatch.setenv(FAIL_CELLS_ENV, FAILING_CELL)
        results = run_study(tiny_config(), failure_policy="collect")
        assert len(results) == 3  # 4 cells, 1 failed
        assert len(results.failed_cells) == 1
        failed = results.failed_cells[0]
        assert failed["cell_key"] == FAILING_CELL
        assert failed["error_type"] == "InjectedFailure"
        assert "injected failure" in failed["error"]
        assert failed["traceback"]

    def test_surviving_cells_unaffected(self, monkeypatch):
        baseline = run_study(tiny_config())
        monkeypatch.setenv(FAIL_CELLS_ENV, FAILING_CELL)
        partial = run_study(tiny_config(), failure_policy="collect")
        by_key = {
            (r.algorithm, r.experiment): r for r in partial.results
        }
        for r in baseline.results:
            key = (r.algorithm, r.experiment)
            if f"{r.algorithm}/add/titan_v/25/{r.experiment}" == FAILING_CELL:
                assert key not in by_key
            else:
                assert by_key[key] == r

    def test_fail_fast_names_cell(self, monkeypatch):
        monkeypatch.setenv(FAIL_CELLS_ENV, FAILING_CELL)
        with pytest.raises(TaskError) as err:
            run_study(tiny_config(), failure_policy="fail_fast")
        assert err.value.task.cell_key == FAILING_CELL

    def test_figures_survive_failed_cells(self, monkeypatch):
        from repro.reporting import figure2, figure3

        monkeypatch.setenv(FAIL_CELLS_ENV, FAILING_CELL)
        results = run_study(tiny_config(), failure_policy="collect")
        fig2 = figure2(results)
        assert fig2.panels
        assert figure3(results).series


@pytest.mark.parametrize("workers", [1, 2])
class TestCheckpointResume:
    def test_interrupted_resume_bit_identical(
        self, tmp_path, monkeypatch, workers
    ):
        config = tiny_config(workers=workers)
        baseline = run_study(config)

        # Interrupt: one injected failure under fail_fast kills the run,
        # but completed cells have already streamed to the checkpoint.
        ckpt_path = tmp_path / "study.jsonl"
        monkeypatch.setenv(FAIL_CELLS_ENV, FAILING_CELL)
        with pytest.raises(TaskError):
            run_study(config, checkpoint=ckpt_path)
        completed_before = len(StudyCheckpoint(ckpt_path))
        assert completed_before < len(baseline.results)

        # Resume with the failure gone: skips completed cells and the
        # merged results are bit-identical to the uninterrupted run.
        monkeypatch.delenv(FAIL_CELLS_ENV)
        resumed = run_study(config, checkpoint=ckpt_path)
        assert resumed.metadata["resumed_from_checkpoint"] == completed_before
        assert resumed.results == baseline.results
        assert resumed.optima == baseline.optima

    def test_fully_complete_checkpoint_skips_everything(
        self, tmp_path, workers
    ):
        config = tiny_config(workers=workers)
        ckpt_path = tmp_path / "study.jsonl"
        first = run_study(config, checkpoint=ckpt_path)
        again = run_study(config, checkpoint=ckpt_path)
        assert again.metadata["resumed_from_checkpoint"] == len(first.results)
        assert again.results == first.results


class TestTelemetryMetadata:
    def test_phase_times_and_counts_recorded(self):
        results = run_study(tiny_config())
        tele = results.metadata["telemetry"]
        assert tele["completed"] == 4
        assert tele["failed"] == 0
        assert "optima" in tele["phase_seconds"]
        assert "experiments" in tele["phase_seconds"]

    def test_progress_callable_receives_lines(self):
        lines = []
        run_study(tiny_config(), progress=lines.append)
        assert any(l.startswith("running 4 experiments") for l in lines)
        assert any(l.startswith("experiments: 4/4") for l in lines)


class TestNonFiniteResult:
    def _task(self):
        return ExperimentTask(
            algorithm="genetic_algorithm",
            kernel="add",
            arch="titan_v",
            sample_size=25,
            experiment=0,
            root_seed=1,
            image_x=512,
            image_y=512,
        )

    def test_non_finite_final_runtime_raises(self, monkeypatch):
        from repro.gpu.device import SimulatedDevice

        def all_launches_fail(self, flat, repeats):
            return np.full(repeats, np.inf)

        monkeypatch.setattr(
            SimulatedDevice, "measure_flat_repeated", all_launches_fail
        )
        with pytest.raises(NonFiniteResultError, match="non-finite"):
            run_experiment(self._task())

    # random_search ends its cells in the vectorized replication tier.
    @pytest.mark.parametrize(
        "algorithm", ["genetic_algorithm", "random_search"]
    )
    def test_recorded_as_failed_cell_in_collect_mode(
        self, monkeypatch, algorithm
    ):
        from repro.gpu.device import SimulatedDevice

        def fail_final_evaluation(self, flat, repeats):
            return np.full(repeats, np.inf)

        monkeypatch.setattr(
            SimulatedDevice, "measure_flat_repeated", fail_final_evaluation
        )
        results = run_study(
            tiny_config(algorithms=(algorithm,)),
            compute_optima=False,
            failure_policy="collect",
        )
        assert len(results) == 0
        assert len(results.failed_cells) == 2
        assert all(
            f["error_type"] == "NonFiniteResultError"
            for f in results.failed_cells
        )
