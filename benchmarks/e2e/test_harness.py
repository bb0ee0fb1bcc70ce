"""Self-test of the end-to-end benchmark harness.

Runs every workload at a tiny scale through ``workloads.build``
(one untraced and one traced study each) and checks the harness itself:
metric names and units against ``BENCHMARK.json``, the live workload's
isolation from landscape tables, span self times, and the wrappers'
outermost-call counting.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.kernels import get_kernel
from repro.search.base import Objective

from . import workloads
from .harness import E2E_UNITS, PER_LAYER_UNITS, run_workload
from .layers import LayerTracer, Patches, install_layer_hooks
from .run import ROOT, child_env

SERIAL = ("surrogate_grid", "rsga_live", "rsga_store_half")


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    out = {}
    with pytest.MonkeyPatch.context() as mp:
        for var in ("REPRO_LANDSCAPE_CACHE", "REPRO_RESULT_STORE",
                    "REPRO_FAIL_CELLS"):
            mp.delenv(var, raising=False)
        for name in workloads.NAMES:
            base = tmp_path_factory.mktemp(name)
            out[name] = run_workload(
                workloads.build(name, tiny=True),
                seconds=0,
                trace=True,
                work_dir=base / "work",
                span_dir=base / "spans",
                min_studies=1,
            )
    return out


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert spec["paths"] == ["benchmarks/e2e"]


def test_child_env_scrubs_repro_vars_and_pins_blas(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_LANDSCAPE_CACHE", str(tmp_path))
    monkeypatch.setenv("REPRO_RESULT_STORE", str(tmp_path))
    monkeypatch.setenv("REPRO_FAIL_CELLS", "x")
    env = child_env(tmp_path)
    assert not [k for k in env if k.startswith("REPRO_")]
    assert env["OPENBLAS_NUM_THREADS"] == env["OMP_NUM_THREADS"] == "1"
    assert env["TMPDIR"] == str(tmp_path)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_tiny_workload_is_correct_and_reports_every_metric(tiny_runs, name):
    res = tiny_runs[name]
    assert res["correct"], res["errors"]
    assert res["failed"] == 0
    assert res["attempted"] == 2 * workloads.build(name, tiny=True).cells
    assert set(res["e2e"]) >= set(E2E_UNITS)
    assert list(res["per_layer"]) == list(PER_LAYER_UNITS)


def test_socket_and_store_workloads_agree(tiny_runs):
    assert tiny_runs["rsga_socket2"]["digest"] == (
        tiny_runs["rsga_store_half"]["digest"]
    )


def test_half_store_answers_half_the_lookups(tiny_runs):
    layers = tiny_runs["rsga_store_half"]["per_layer"]
    assert layers["store.gets"] == workloads.build(
        "rsga_store_half", tiny=True
    ).cells
    assert layers["store.hit_ratio"] == 0.5


def test_rsga_live_never_opens_a_landscape_table(tiny_runs):
    layers = tiny_runs["rsga_live"]["per_layer"]
    assert layers["gpu.tables_opened"] == 0
    assert layers["gpu.landscape_calls"] == 0
    # Only GA measures live: S*E evaluations per size, one call each.
    assert layers["gpu.measure_calls"] == 25 * 2 + 50 * 1


@pytest.mark.parametrize("name", workloads.NAMES)
def test_self_times_are_within_span_durations(tiny_runs, name):
    spans = [
        json.loads(line)
        for line in Path(tiny_runs[name]["span_file"]).read_text().splitlines()
    ]
    assert spans
    ids = {s["id"] for s in spans}
    for span in spans:
        assert span["parent"] is None or span["parent"] in ids
        assert -1e-9 <= span["self"] <= span["end"] - span["start"] + 1e-9


@pytest.mark.parametrize("name", SERIAL)
def test_self_times_sum_to_experiments_phase(tiny_runs, name):
    res = tiny_runs[name]
    assert res["self_sum_s"] == pytest.approx(
        res["traced_experiments_s"], rel=0.05
    )


def test_wrappers_count_only_the_outermost_call():
    space = get_kernel("add", 8192, 8192).space()
    tracer = LayerTracer()
    with Patches() as patches:
        install_layer_hooks(patches, tracer)
        # No flat-index routes: evaluate_flats -> evaluate_flat -> evaluate.
        objective = Objective(space, lambda config: 1.0, budget=5)
        tracer.tuner = "t"
        objective.evaluate_flats(np.arange(5))
        objective_calls = dict(tracer.calls)
    assert objective_calls == {"search.evaluate.t": 1}
    assert not hasattr(Objective.evaluate_flats, "__wrapped__")


def test_bare_checkout_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "benchmarks" / "e2e", tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "rsga_live",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
