"""Golden study digest: a tiny study of all five paper tuners must keep
producing exactly the same results.

The digest is the sha256 of the sorted ``(cell_key, best_flat,
final_runtime_ms, observed_best_ms, samples_used)`` rows, with floats
entering exactly, so any change to a tuner, a surrogate model, the RNG
stream or the simulator that moves a single bit of a result fails here.
Such a change is a deliberate re-baseline: update ``GOLDEN_DIGEST`` in
the same commit and say why.
"""

import hashlib
import json

import pytest

from repro.experiments import ExperimentDesign, StudyConfig, run_study
from repro.experiments.optimum import clear_optimum_cache
from repro.gpu.landscape import LANDSCAPE_CACHE_ENV, clear_landscape_memo
from repro.search import PAPER_ALGORITHM_NAMES

GOLDEN_DIGEST = (
    "51e606637d2868a62e6e2f59306fdfb83931caa314ce99c51f15fec881c91702"
)


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
    config = StudyConfig(
        design=ExperimentDesign(sample_sizes=(25,), experiments_at_largest=2),
        algorithms=tuple(PAPER_ALGORITHM_NAMES),
        kernels=("harris",),
        archs=("titan_v",),
        image_x=512,
        image_y=512,
        workers=1,
    )
    results = run_study(config, compute_optima=False).results
    assert len(results) == 2 * len(PAPER_ALGORITHM_NAMES)
    assert {r.algorithm for r in results} == set(PAPER_ALGORITHM_NAMES)
    assert study_digest(results) == GOLDEN_DIGEST
