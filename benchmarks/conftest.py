"""Shared infrastructure for the paper-reproduction benchmarks.

The expensive part — running the study — happens once per scale and is
cached as JSON under ``benchmarks/_cache/``, so repeated
``pytest benchmarks/ --benchmark-only`` runs are fast and the individual
benchmark files measure the (cheap, deterministic) figure/table
generation while printing the same rows/series the paper reports.

Scale knobs (environment variables):

``REPRO_BENCH_E400``
    Experiments at the largest sample size (default 2; the paper used 50).
    Experiment counts at smaller sizes scale inversely, as in the paper.
``REPRO_BENCH_SIZES``
    Comma-separated sample sizes (default the paper's 25,50,100,200,400).
``REPRO_WORKERS``
    Worker processes for the study run (default: all cores).

The recorded scale always accompanies the output, so a scaled-down run
never masquerades as the paper's full design.  The cache key includes a
digest of the package source (:func:`source_digest`), so a cached study
never outlives a change to the simulator or a tuner.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import pytest

import repro
from repro.experiments import (
    ExperimentDesign,
    StudyConfig,
    StudyResults,
    run_study,
)
from repro.parallel import default_worker_count

CACHE_DIR = Path(__file__).parent / "_cache"


def source_digest() -> str:
    """sha256 over every ``repro/**/*.py`` file: each file's path
    relative to the package root and its bytes, in sorted path order."""
    root = Path(repro.__file__).parent
    digest = hashlib.sha256()
    for path in sorted(
        root.rglob("*.py"), key=lambda p: p.relative_to(root).as_posix()
    ):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def bench_design() -> ExperimentDesign:
    sizes = os.environ.get("REPRO_BENCH_SIZES", "25,50,100,200,400")
    e400 = int(os.environ.get("REPRO_BENCH_E400", "2"))
    return ExperimentDesign(
        sample_sizes=tuple(int(s) for s in sizes.split(",")),
        experiments_at_largest=e400,
    )


def cached_study(config: StudyConfig, tag: str) -> StudyResults:
    """Run (or load) a study, keyed by its full configuration and the
    package source."""
    key_doc = {
        "source": source_digest(),
        "tag": tag,
        "design": config.design.schedule,
        "algorithms": config.algorithms,
        "kernels": config.kernels,
        "archs": config.archs,
        "image": [config.image_x, config.image_y],
        "seed": config.root_seed,
        "final_repeats": config.final_repeats,
        "overrides": config.tuner_overrides,
    }
    key = hashlib.sha256(
        json.dumps(key_doc, sort_keys=True, default=str).encode()
    ).hexdigest()[:16]
    CACHE_DIR.mkdir(exist_ok=True)
    path = CACHE_DIR / f"{tag}_{key}.json"
    if path.exists():
        return StudyResults.load(path)
    results = run_study(config, progress=True)
    results.save(path)
    return results


@pytest.fixture(scope="session")
def study() -> StudyResults:
    """The main scaled full-grid study shared by the figure benchmarks."""
    config = StudyConfig(
        design=bench_design(),
        workers=default_worker_count(),
    )
    return cached_study(config, "main")


@pytest.fixture(scope="session")
def scale_note(study) -> str:
    sched = study.metadata.get("design", {})
    return (
        f"[scale: experiments per size {sched}; "
        f"paper scale is S*E = 20,000 per size]"
    )
