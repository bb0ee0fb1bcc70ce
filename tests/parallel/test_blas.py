"""BLAS thread pinning: a study's results do not depend on the host's
OpenBLAS thread count."""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.parallel import pin_blas_threads
from repro.parallel.blas import _mapped_openblas

SRC_DIR = Path(__file__).resolve().parents[2] / "src"

#: One BO GP cell (harris / titan_v, S=400, experiment 0) through
#: run_study; its GP is large enough for OpenBLAS to use threads.
_CELL_SCRIPT = """
import json
from repro.experiments.design import ExperimentDesign
from repro.experiments.study import StudyConfig, run_study

config = StudyConfig(
    design=ExperimentDesign(sample_sizes=(400,), experiments_at_largest=1),
    algorithms=("bo_gp",),
    kernels=("harris",),
    archs=("titan_v",),
    workers=1,
)
study = run_study(config, compute_optima=False, result_store=False)
print(json.dumps({
    "result": study.results[0].to_durable_dict(),
    "blas_threads": study.metadata.get("blas_threads"),
}))
"""


def _run_cell(openblas_threads: str) -> dict:
    env = {
        k: v for k, v in os.environ.items()
        if not k.startswith("REPRO_") and k != "OMP_NUM_THREADS"
    }
    env["OPENBLAS_NUM_THREADS"] = openblas_threads
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC_DIR)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", _CELL_SCRIPT],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_bo_gp_cell_identical_at_one_and_two_openblas_threads():
    one = _run_cell("1")
    two = _run_cell("2")
    assert one["result"] == two["result"]
    assert one["blas_threads"] == two["blas_threads"]
    assert one["blas_threads"] in (1, "unpinned")


def test_pin_reports_one_thread_or_unpinned():
    expected = 1 if _mapped_openblas() else "unpinned"
    assert pin_blas_threads() == expected
    assert pin_blas_threads() == expected  # idempotent
