"""Unit tests for the JSONL study checkpoint store."""

import json

import pytest

from repro.experiments import (
    CheckpointMismatchError,
    ExperimentDesign,
    ExperimentResult,
    StudyCheckpoint,
    StudyConfig,
    run_study,
)


def make_result(experiment=0, runtime=1.5):
    return ExperimentResult(
        algorithm="random_search",
        kernel="add",
        arch="titan_v",
        sample_size=25,
        experiment=experiment,
        final_runtime_ms=runtime,
        best_flat=123,
        observed_best_ms=1.4,
        samples_used=25,
    )


class TestRoundTrip:
    def test_results_survive_reload(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        with StudyCheckpoint(path, root_seed=42) as ckpt:
            ckpt.record_result("rs/add/titan_v/25/0", make_result(0))
            ckpt.record_result("rs/add/titan_v/25/1", make_result(1, 2.5))

        reloaded = StudyCheckpoint(path, root_seed=42)
        assert len(reloaded) == 2
        assert "rs/add/titan_v/25/0" in reloaded
        assert reloaded.completed["rs/add/titan_v/25/1"] == make_result(1, 2.5)

    def test_failures_recorded_but_not_completed(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        with StudyCheckpoint(path, root_seed=42) as ckpt:
            ckpt.record_failure(
                "rs/add/titan_v/25/0", error="boom", error_type="RuntimeError"
            )
        reloaded = StudyCheckpoint(path, root_seed=42)
        assert len(reloaded) == 0  # failed cells are retried on resume
        assert reloaded.failures["rs/add/titan_v/25/0"]["error"] == "boom"

    def test_append_across_sessions(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        with StudyCheckpoint(path, root_seed=7) as ckpt:
            ckpt.record_result("a", make_result(0))
        with StudyCheckpoint(path, root_seed=7) as ckpt:
            assert "a" in ckpt
            ckpt.record_result("b", make_result(1))
        assert len(StudyCheckpoint(path, root_seed=7)) == 2


class TestCorruptionHandling:
    def test_torn_final_line_ignored(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        with StudyCheckpoint(path, root_seed=42) as ckpt:
            ckpt.record_result("a", make_result(0))
            ckpt.record_result("b", make_result(1))
        # Simulate a kill mid-write: truncate the last line.
        text = path.read_text()
        path.write_text(text[: len(text) - 25])
        reloaded = StudyCheckpoint(path, root_seed=42)
        assert "a" in reloaded
        assert "b" not in reloaded  # torn row dropped, will be re-run

    def test_torn_tail_trimmed_before_append(self, tmp_path):
        # Resuming over a torn file must not glue the new line onto the
        # fragment — that would corrupt the file for every later resume.
        path = tmp_path / "ckpt.jsonl"
        with StudyCheckpoint(path, root_seed=42) as ckpt:
            ckpt.record_result("a", make_result(0))
            ckpt.record_result("b", make_result(1))
        text = path.read_text()
        path.write_text(text[: len(text) - 25])  # tear the last line
        with StudyCheckpoint(path, root_seed=42) as ckpt:
            assert "b" not in ckpt
            ckpt.record_result("b", make_result(1))  # the re-run
        # Every line parses, and a third session sees both cells.
        for line in path.read_text().splitlines():
            json.loads(line)
        reloaded = StudyCheckpoint(path, root_seed=42)
        assert "a" in reloaded and "b" in reloaded
        assert len(reloaded) == 2

    def test_torn_tail_with_newline_trimmed(self, tmp_path):
        # An invalid final line that *does* end in a newline is dropped
        # too; trimming must remove the newline along with it.
        path = tmp_path / "ckpt.jsonl"
        with StudyCheckpoint(path, root_seed=42) as ckpt:
            ckpt.record_result("a", make_result(0))
        path.write_text(path.read_text() + '{"kind": "res\n')
        with StudyCheckpoint(path, root_seed=42) as ckpt:
            ckpt.record_result("b", make_result(1))
        for line in path.read_text().splitlines():
            json.loads(line)
        assert len(StudyCheckpoint(path, root_seed=42)) == 2

    def test_mid_file_garbage_rejected(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        with StudyCheckpoint(path, root_seed=42) as ckpt:
            ckpt.record_result("a", make_result(0))
        path.write_text("not json\n" + path.read_text())
        with pytest.raises(CheckpointMismatchError):
            StudyCheckpoint(path, root_seed=42)


class TestHeaderValidation:
    def test_seed_mismatch_rejected(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        with StudyCheckpoint(path, root_seed=42) as ckpt:
            ckpt.record_result("a", make_result(0))
        with pytest.raises(CheckpointMismatchError, match="root_seed"):
            StudyCheckpoint(path, root_seed=43)

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        path.write_text(
            json.dumps({"kind": "header", "version": 999, "root_seed": 42})
            + "\n"
        )
        with pytest.raises(CheckpointMismatchError, match="version"):
            StudyCheckpoint(path, root_seed=42)

    def test_none_seed_skips_validation(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        with StudyCheckpoint(path, root_seed=42) as ckpt:
            ckpt.record_result("a", make_result(0))
        inspect = StudyCheckpoint(path)  # read-only inspection
        assert "a" in inspect

    def test_unknown_kinds_skipped(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        with StudyCheckpoint(path, root_seed=42) as ckpt:
            ckpt.record_result("a", make_result(0))
        with path.open("a") as fh:
            fh.write(json.dumps({"kind": "future_extension", "x": 1}) + "\n")
        assert "a" in StudyCheckpoint(path, root_seed=42)


class TestHeaderlessRejection:
    def test_headerless_nonempty_file_rejected(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        path.write_text(
            json.dumps({"kind": "failure", "cell_key": "a", "error": "x"})
            + "\n"
        )
        with pytest.raises(CheckpointMismatchError, match="no header"):
            StudyCheckpoint(path, root_seed=42)

    def test_torn_first_write_rejected(self, tmp_path):
        # A writer killed during its very first line leaves a non-empty
        # file whose only line is torn.  After torn-line trimming the
        # file parses to nothing — but it must still be rejected, because
        # its seed/version can never be validated.
        path = tmp_path / "ckpt.jsonl"
        path.write_text('{"kind": "header", "vers')
        with pytest.raises(CheckpointMismatchError, match="no header"):
            StudyCheckpoint(path, root_seed=42)

    def test_empty_file_still_fine(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        path.write_text("")
        with StudyCheckpoint(path, root_seed=42) as ckpt:
            ckpt.record_result("a", make_result(0))
        assert "a" in StudyCheckpoint(path, root_seed=42)

    def test_whitespace_only_file_still_fine(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        path.write_text("\n\n")
        assert len(StudyCheckpoint(path, root_seed=42)) == 0


class TestPreFixedOnlyCheckpoint:
    def test_adaptive_era_checkpoint_resumes_as_fixed_design(self, tmp_path):
        # Checkpoints written while adaptive replication existed carry a
        # ``budget_cells`` plan and per-group ``stopped`` lines.  Their
        # result lines use the fixed grid's cell keys and bytes, so such a
        # file resumes as the fixed design: the stopped lines are skipped
        # and the cells the groups never grew into are run.
        config = StudyConfig(
            design=ExperimentDesign(
                sample_sizes=(25,), experiments_at_largest=4
            ),
            algorithms=("random_search", "genetic_algorithm"),
            kernels=("add",),
            archs=("titan_v",),
            image_x=512,
            image_y=512,
        )
        full = tmp_path / "full.jsonl"
        uninterrupted = run_study(
            config, compute_optima=False, checkpoint=full
        )
        results = {
            doc["cell_key"]: doc
            for doc in map(json.loads, full.read_text().splitlines())
            if doc["kind"] == "result"
        }
        old = [
            {"kind": "header", "version": 1, "root_seed": config.root_seed},
            {"kind": "plan", "data": {"budget_cells": len(results)}},
        ]
        for alg in config.algorithms:
            group = f"{alg}/add/titan_v/25"
            old += [results[f"{group}/{exp}"] for exp in range(2)]
            old.append(
                {
                    "kind": "stopped",
                    "group_key": group,
                    "data": {"replications": 2, "budget": 4,
                             "reason": "ci_target", "look": 1},
                }
            )
        path = tmp_path / "adaptive-era.jsonl"
        path.write_text("".join(json.dumps(doc) + "\n" for doc in old))

        resumed = run_study(config, compute_optima=False, checkpoint=path)
        assert resumed.metadata["resumed_from_checkpoint"] == 4
        assert resumed.results == uninterrupted.results
