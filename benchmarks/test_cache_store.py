"""Result-store benchmark (ISSUE thresholds).

Records to ``BENCH_cache.json`` and asserts the headline claims:

* a **warm** study — every cell a store hit, dataset collection
  skipped — is **>= 5x** faster wall-clock than the same study cold;
* the store changes nothing when cold: a store-attached-but-empty run
  produces a **byte-identical checkpoint** to a store-off run.
"""

import json
import os
import time
from pathlib import Path

import pytest

from repro.experiments import ExperimentDesign, StudyConfig, run_study
from repro.experiments.optimum import clear_optimum_cache
from repro.gpu.landscape import clear_landscape_memo
from repro.store import STORE_ENV

BENCH_CACHE_PATH = Path(__file__).parent.parent / "BENCH_cache.json"

STUDY_SPEEDUP_THRESHOLD = 5.0


def _record_bench(name: str, payload: dict) -> None:
    doc = {}
    if BENCH_CACHE_PATH.exists():
        try:
            doc = json.loads(BENCH_CACHE_PATH.read_text())
        except json.JSONDecodeError:
            doc = {}
    doc[name] = payload
    BENCH_CACHE_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True))


@pytest.fixture(autouse=True)
def isolated(monkeypatch):
    monkeypatch.delenv(STORE_ENV, raising=False)
    clear_landscape_memo()
    clear_optimum_cache()
    yield
    clear_landscape_memo()
    clear_optimum_cache()


class TestWarmStudy:
    def _config(self):
        # Sized so the experiments phase dominates the per-run fixed
        # costs (landscape load, optimum scan) that warm runs still pay.
        return StudyConfig(
            design=ExperimentDesign(
                sample_sizes=(200, 400), experiments_at_largest=16
            ),
            algorithms=("random_search", "genetic_algorithm"),
            kernels=("add",),
            archs=("titan_v",),
            image_x=512,
            image_y=512,
            workers=1,
        )

    def _run(self, tmp_path, name, **kwargs):
        clear_optimum_cache()
        ckpt = tmp_path / f"{name}.jsonl"
        t0 = time.perf_counter()
        results = run_study(
            self._config(),
            checkpoint=str(ckpt),
            landscape_cache=str(tmp_path / "cache"),
            **kwargs,
        )
        return results, time.perf_counter() - t0, ckpt.read_bytes()

    def test_warm_study_5x_faster_and_cold_store_invisible(self, tmp_path):
        store = tmp_path / "store"
        # Prime the landscape cache so cold-vs-warm isolates the store.
        off, _t_off, off_bytes = self._run(tmp_path, "off",
                                           result_store=False)
        cold, t_cold, cold_bytes = self._run(tmp_path, "cold",
                                             result_store=store)
        warm, t_warm, _warm_bytes = self._run(tmp_path, "warm",
                                              result_store=store)

        # Acceptance: cache-off runs are byte-identical to the current
        # checkpoints — the cold store is invisible.
        assert cold_bytes == off_bytes
        assert cold.results == off.results
        assert warm.results == cold.results
        assert warm.metadata["store_hits"] == (
            warm.metadata["total_experiments"]
        )

        speedup = t_cold / max(t_warm, 1e-9)
        _record_bench(
            "warm_study",
            {
                "cold_seconds": round(t_cold, 4),
                "warm_seconds": round(t_warm, 4),
                "speedup": round(speedup, 1),
                "threshold": STUDY_SPEEDUP_THRESHOLD,
                "cells": warm.metadata["total_experiments"],
                "store_hits": warm.metadata["store_hits"],
                "workers": int(os.environ.get("REPRO_WORKERS", "1") or 1),
            },
        )
        assert speedup >= STUDY_SPEEDUP_THRESHOLD, (
            f"warm study only {speedup:.1f}x faster than cold "
            f"({t_warm:.3f}s vs {t_cold:.3f}s)"
        )
