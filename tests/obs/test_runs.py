"""Content-addressed run ledger: manifests, listing, and regression diff.

The acceptance bar for the ledger: an injected >=20% phase-time
regression between two otherwise-identical manifests must be detected
by ``repro-runs diff`` with a non-zero exit code.
"""

import copy
import json
from pathlib import Path

import pytest

from repro.experiments import ExperimentDesign, StudyConfig, run_study
from repro.experiments.optimum import clear_optimum_cache
from repro.gpu.landscape import clear_landscape_memo
from repro.obs.runs import (
    build_manifest,
    diff_runs,
    list_runs,
    load_run,
    main as runs_main,
    manifest_id,
    record_run,
)


BASELINE_MANIFEST = (
    Path(__file__).resolve().parents[2]
    / "benchmarks"
    / "baseline_manifest.json"
)


@pytest.fixture(autouse=True)
def isolated():
    clear_landscape_memo()
    clear_optimum_cache()
    yield
    clear_landscape_memo()
    clear_optimum_cache()


def _study(tmp_path, **kwargs):
    config = StudyConfig(
        design=ExperimentDesign(sample_sizes=(25,), experiments_at_largest=2),
        algorithms=("random_search",),
        kernels=("add",),
        archs=("titan_v",),
        image_x=512,
        image_y=512,
        workers=1,
    )
    results = run_study(
        config, landscape_cache=tmp_path / "cache", **kwargs
    )
    return config, results


class TestManifest:
    def test_build_manifest_contents(self, tmp_path):
        config, results = _study(tmp_path)
        manifest = build_manifest(
            config, results, argv=["--kernels", "add"], created=1000.0
        )
        assert manifest["manifest_version"] == 1
        assert manifest["argv"] == ["--kernels", "add"]
        assert manifest["config"]["kernels"] == ["add"]
        assert manifest["config"]["root_seed"] == config.root_seed
        assert "add/titan_v" in manifest["fingerprints"]
        assert manifest["environment"]["python"]
        assert manifest["environment"]["blas_threads"] == (
            results.metadata["blas_threads"]
        )
        assert manifest["environment"]["blas_threads"] in (1, "unpinned")
        assert manifest["headline"]["experiments_total"] == 2
        assert manifest["headline"]["experiments_failed"] == 0
        assert isinstance(
            manifest["headline"]["phase_seconds"], dict
        )
        assert manifest["run_id"] == manifest_id(manifest)

    def test_git_rev_names_the_source_checkout(self, tmp_path, monkeypatch):
        """The revision is the checkout's that holds ``repro``, not the
        working directory's: None only if that checkout is no git tree."""
        import subprocess

        import repro

        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=Path(repro.__file__).resolve().parent,
                capture_output=True,
                text=True,
                timeout=10,
            )
        except OSError:
            expected = None
        else:
            rev = out.stdout.strip()
            expected = rev if out.returncode == 0 and rev else None
        config, results = _study(tmp_path)
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        manifest = build_manifest(config, results, created=1000.0)
        assert manifest["environment"]["git_rev"] == expected

    def test_run_id_is_content_addressed(self, tmp_path):
        config, results = _study(tmp_path)
        a = build_manifest(config, results, created=1000.0)
        b = build_manifest(config, results, created=1000.0)
        assert a["run_id"] == b["run_id"]
        c = build_manifest(config, results, created=2000.0)
        assert c["run_id"] != a["run_id"]

    def test_run_study_records_into_ledger(self, tmp_path):
        ledger = tmp_path / "ledger"
        config, results = _study(tmp_path)
        manifest = build_manifest(config, results, created=1000.0)
        run_id = manifest["run_id"]
        path = record_run(ledger, manifest)
        runs = list_runs(ledger)
        assert [r["run_id"] for r in runs] == [run_id]
        assert (ledger / f"{run_id}.json").exists()
        assert str(path).endswith(f"{run_id}.json")
        assert runs[0]["metrics"] == results.metadata["metrics"]


class TestLedgerIO:
    def _manifest(self, run_id, created=1000.0, wall=10.0):
        return {
            "manifest_version": 1,
            "created": created,
            "config": {"root_seed": 1},
            "fingerprints": {"add/titan_v": "abc"},
            "headline": {
                "wall_seconds": wall,
                "experiments_failed": 0,
                "phase_seconds": {"experiments": wall * 0.8},
            },
            "run_id": run_id,
        }

    def test_record_list_roundtrip_skips_torn_files(self, tmp_path):
        ledger = tmp_path / "ledger"
        record_run(ledger, self._manifest("aaa111", created=2.0))
        record_run(ledger, self._manifest("bbb222", created=1.0))
        (ledger / "torn.json").write_text('{"run_id": "cc')
        runs = list_runs(ledger)
        # Oldest first, torn file skipped.
        assert [r["run_id"] for r in runs] == ["bbb222", "aaa111"]

    def test_load_run_by_prefix_path_and_errors(self, tmp_path):
        ledger = tmp_path / "ledger"
        path = record_run(ledger, self._manifest("abc123"))
        record_run(ledger, self._manifest("abd456"))
        assert load_run(ledger, "abc")["run_id"] == "abc123"
        assert load_run(ledger, str(path))["run_id"] == "abc123"
        with pytest.raises(KeyError, match="ambiguous"):
            load_run(ledger, "ab")
        with pytest.raises(KeyError, match="no run"):
            load_run(ledger, "zzz")


class TestDiff:
    def _baseline(self):
        return {
            "config": {"root_seed": 1, "kernels": ["add"]},
            "fingerprints": {"add/titan_v": "abc"},
            "headline": {
                "wall_seconds": 100.0,
                "experiments_failed": 0,
                "replications_executed": 50,
                "phase_seconds": {"experiments": 80.0, "optima": 10.0},
            },
            "run_id": "old000000000",
        }

    def test_identical_runs_have_no_regressions(self):
        base = self._baseline()
        report = diff_runs(base, copy.deepcopy(base))
        assert report["comparable"]
        assert report["regressions"] == []
        assert report["changes"] == []

    def test_injected_20pct_phase_regression_detected(self, tmp_path):
        """Acceptance: a >=20% slower phase must flag and exit non-zero."""
        base = self._baseline()
        slow = copy.deepcopy(base)
        slow["run_id"] = "new000000000"
        slow["headline"]["phase_seconds"]["experiments"] = 80.0 * 1.25
        slow["headline"]["wall_seconds"] = 120.0

        report = diff_runs(base, slow)
        assert any("phase experiments" in r for r in report["regressions"])

        ledger = tmp_path / "ledger"
        record_run(ledger, base)
        record_run(ledger, slow)
        rc = runs_main(["diff", str(ledger), "old0", "new0"])
        assert rc == 1

    def test_growth_within_tolerance_passes(self):
        base = self._baseline()
        ok = copy.deepcopy(base)
        ok["headline"]["wall_seconds"] = 110.0  # +10% < 20% tolerance
        ok["headline"]["phase_seconds"]["experiments"] = 88.0
        assert diff_runs(base, ok)["regressions"] == []

    def test_subsecond_noise_never_flags(self):
        base = self._baseline()
        base["headline"]["phase_seconds"]["optima"] = 0.01
        noisy = copy.deepcopy(base)
        noisy["headline"]["phase_seconds"]["optima"] = 0.1  # 10x but tiny
        assert diff_runs(base, noisy)["regressions"] == []

    def test_old_replication_count_is_neutral(self):
        # Manifests recorded while adaptive replication existed carry a
        # replications_executed headline; it is no longer compared.
        base = self._baseline()
        more = copy.deepcopy(base)
        more["headline"]["replications_executed"] = 60
        report = diff_runs(base, more)
        assert report["comparable"]
        assert report["regressions"] == []

    def test_more_failed_cells_flags(self):
        base = self._baseline()
        worse = copy.deepcopy(base)
        worse["headline"]["experiments_failed"] = 2
        report = diff_runs(base, worse)
        assert any("experiments_failed" in r for r in report["regressions"])


class TestDiffSchemaTolerance:
    """Old manifests predate newer config keys — that must stay neutral."""

    def _old_schema(self):
        return {
            "config": {"root_seed": 1, "kernels": ["add"]},
            "fingerprints": {"add/titan_v": "abc"},
            "headline": {
                "wall_seconds": 100.0,
                "experiments_failed": 0,
                "phase_seconds": {"experiments": 80.0},
            },
            "run_id": "old000000000",
        }

    def test_new_config_key_is_neutral(self):
        old = self._old_schema()
        new = copy.deepcopy(old)
        new["run_id"] = "new000000000"
        # Keys the old manifest's schema generation never wrote.
        new["config"]["result_store_used"] = False
        new["headline"]["store_hits"] = 0
        report = diff_runs(old, new)
        assert report["comparable"] is True
        assert report["changes"] == []
        assert report["regressions"] == []

    def test_shared_key_change_still_flags(self):
        old = self._old_schema()
        new = copy.deepcopy(old)
        new["config"]["result_store_used"] = True
        new["config"]["root_seed"] = 2
        report = diff_runs(old, new)
        assert not report["comparable"]
        assert any("config.root_seed" in c for c in report["changes"])
        # The one-sided key still never shows up as a change.
        assert not any("result_store_used" in c for c in report["changes"])

    def test_new_fingerprint_key_is_neutral(self):
        old = self._old_schema()
        new = copy.deepcopy(old)
        new["fingerprints"]["harris/a100"] = "zzz"
        report = diff_runs(old, new)
        assert report["comparable"] is True
        assert report["changes"] == []

    def test_diff_cli_tolerates_schema_drift(self, tmp_path):
        old = self._old_schema()
        new = copy.deepcopy(old)
        new["run_id"] = "new000000000"
        new["config"]["result_store_used"] = True
        ledger = tmp_path / "ledger"
        record_run(ledger, old)
        record_run(ledger, new)
        assert runs_main(["diff", str(ledger), "old0", "new0"]) == 0

        # The committed CI baseline still carries ``config.adaptive`` and
        # ``headline.replications_*``; a fresh run of its study must diff
        # clean against it, with CI's host-tolerant wall thresholds.
        config = StudyConfig(
            design=ExperimentDesign(
                sample_sizes=(25,), experiments_at_largest=2
            ),
            algorithms=("random_search", "genetic_algorithm"),
            kernels=("add",),
            archs=("titan_v",),
            image_x=512,
            image_y=512,
            workers=1,
        )
        fresh = record_run(
            ledger,
            build_manifest(
                config,
                run_study(config, landscape_cache=tmp_path / "cache"),
                created=1000.0,
            ),
        )
        baseline = load_run(ledger, str(BASELINE_MANIFEST))
        assert "adaptive" in baseline["config"]
        report = diff_runs(
            baseline, load_run(ledger, str(fresh)),
            wall_tolerance=4.0, min_seconds=10.0,
        )
        assert report["comparable"] is True
        assert report["changes"] == []
        assert report["regressions"] == []

    def test_manifest_records_store_usage(self, tmp_path):
        config, results = _study(
            tmp_path, result_store=tmp_path / "store"
        )
        manifest = build_manifest(config, results, created=1000.0)
        assert manifest["config"]["result_store_used"] is True
        assert manifest["headline"]["store_hits"] == 0  # cold run
        config2, results2 = _study(tmp_path, result_store=False)
        manifest2 = build_manifest(config2, results2, created=1000.0)
        assert manifest2["config"]["result_store_used"] is False


class TestCli:
    def test_list_and_show(self, tmp_path, capsys):
        ledger = tmp_path / "ledger"
        record_run(ledger, {
            "created": 1.0, "run_id": "abc123def456",
            "headline": {"wall_seconds": 1.5, "experiments_total": 4,
                         "experiments_failed": 0},
        })
        assert runs_main(["list", str(ledger)]) == 0
        out = capsys.readouterr().out
        assert "abc123def456" in out

        assert runs_main(["show", str(ledger), "abc"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["run_id"] == "abc123def456"

    def test_show_unknown_run_exits_2(self, tmp_path, capsys):
        assert runs_main(["show", str(tmp_path), "nope"]) == 2

    def test_diff_json_and_tolerance_flag(self, tmp_path, capsys):
        ledger = tmp_path / "ledger"
        record_run(ledger, {
            "created": 1.0, "run_id": "aaaaaaaaaaaa",
            "config": {}, "fingerprints": {},
            "headline": {"wall_seconds": 10.0},
        })
        record_run(ledger, {
            "created": 2.0, "run_id": "bbbbbbbbbbbb",
            "config": {}, "fingerprints": {},
            "headline": {"wall_seconds": 13.0},
        })
        # +30% regresses at the default 20% tolerance...
        assert runs_main(
            ["diff", str(ledger), "aaaa", "bbbb", "--json"]
        ) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["regressions"]
        # ...but passes at 50%.
        assert runs_main(
            ["diff", str(ledger), "aaaa", "bbbb",
             "--wall-tolerance", "50"]
        ) == 0
