"""Golden study digest: a tiny study of all five paper tuners must keep
producing exactly the same results.

The digest is the sha256 of the sorted ``(cell_key, best_flat,
final_runtime_ms, observed_best_ms, samples_used)`` rows, with floats
entering exactly, so any change to a tuner, a surrogate model, the RNG
stream or the simulator that moves a single bit of a result fails here.
Such a change is a deliberate re-baseline: update ``GOLDEN_DIGEST`` in
the same commit and say why.

``CHECKPOINT_DIGESTS`` pins the checkpoint *files* of two studies the
same way: the golden study and a small fixed study run against a
half-warm result store (store hits streamed in task order,
then the dispatched cells).  A change to how the study loop orders or
writes checkpoint lines fails here even when the results stay equal.
"""

import hashlib
import json

import pytest

from repro.experiments import (
    ExperimentDesign,
    StudyConfig,
    run_study,
)
from repro.experiments.optimum import clear_optimum_cache
from repro.gpu.landscape import LANDSCAPE_CACHE_ENV, clear_landscape_memo
from repro.search import PAPER_ALGORITHM_NAMES
from repro.store import ResultStore

GOLDEN_DIGEST = (
    "51e606637d2868a62e6e2f59306fdfb83931caa314ce99c51f15fec881c91702"
)

CHECKPOINT_DIGESTS = {
    "golden": (
        "72aef61d542463d32ec47399aa531a5b85ffbd68bc935456b4ed217b5bcdb853"
    ),
    "half_store": (
        "c9cd3fda524a3c36531288ca78d4e1b4064d51923bae9d7a442de9df88f93c77"
    ),
}

GOLDEN_CONFIG = StudyConfig(
    design=ExperimentDesign(sample_sizes=(25,), experiments_at_largest=2),
    algorithms=tuple(PAPER_ALGORITHM_NAMES),
    kernels=("harris",),
    archs=("titan_v",),
    image_x=512,
    image_y=512,
    workers=1,
)


def rsga_config(sample_sizes, experiments_at_largest) -> StudyConfig:
    return StudyConfig(
        design=ExperimentDesign(
            sample_sizes=sample_sizes,
            experiments_at_largest=experiments_at_largest,
        ),
        algorithms=("random_search", "genetic_algorithm"),
        kernels=("add",),
        archs=("titan_v",),
        image_x=512,
        image_y=512,
        workers=1,
    )


def file_digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def study_digest(results) -> str:
    rows = sorted(
        [
            f"{r.algorithm}/{r.kernel}/{r.arch}/{r.sample_size}/"
            f"{r.experiment}",
            int(r.best_flat),
            float(r.final_runtime_ms),
            float(r.observed_best_ms),
            int(r.samples_used),
        ]
        for r in results
    )
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


@pytest.fixture(autouse=True)
def isolated(monkeypatch):
    monkeypatch.delenv(LANDSCAPE_CACHE_ENV, raising=False)
    monkeypatch.delenv("REPRO_RESULT_STORE", raising=False)
    monkeypatch.delenv("REPRO_FAIL_CELLS", raising=False)
    clear_landscape_memo()
    clear_optimum_cache()
    yield
    clear_landscape_memo()
    clear_optimum_cache()


def test_paper_tuners_study_digest_is_pinned():
    results = run_study(GOLDEN_CONFIG, compute_optima=False).results
    assert len(results) == 2 * len(PAPER_ALGORITHM_NAMES)
    assert {r.algorithm for r in results} == set(PAPER_ALGORITHM_NAMES)
    assert study_digest(results) == GOLDEN_DIGEST


def test_golden_study_checkpoint_bytes_are_pinned(tmp_path):
    ckpt = tmp_path / "golden.jsonl"
    run_study(GOLDEN_CONFIG, compute_optima=False, checkpoint=ckpt)
    assert file_digest(ckpt) == CHECKPOINT_DIGESTS["golden"]


def test_half_warm_store_study_checkpoint_bytes_are_pinned(tmp_path):
    config = rsga_config((25, 50), 2)
    full = ResultStore(tmp_path / "full")
    run_study(config, compute_optima=False, result_store=full)
    half = ResultStore(tmp_path / "half")
    for _path, doc, _reason in full.entries():
        if doc["identity"]["experiment"] % 2 == 1:
            half.put_result(
                doc["fingerprint"],
                full.get_result(doc["fingerprint"]),
                doc["identity"],
            )
    ckpt = tmp_path / "half.jsonl"
    results = run_study(
        config, compute_optima=False, checkpoint=ckpt, result_store=half
    )
    assert 0 < results.metadata["store_hits"] < len(results.results)
    assert file_digest(ckpt) == CHECKPOINT_DIGESTS["half_store"]
