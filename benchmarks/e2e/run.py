"""End-to-end study benchmark.

Run from the repository root::

    python3 benchmarks/e2e/run.py [--workload NAME ...] [--seed N]
        [--seconds S] [--reps N] [--trace 0|1] [--span-dir DIR]

(``python -m benchmarks.e2e`` is the same program.)  Every workload runs
in a fresh subprocess (:mod:`benchmarks.e2e.harness`) with its own temp
dirs under ``.bench_work/``, an environment scrubbed of ``REPRO_*``
variables and BLAS pinned to one thread; ``--reps`` interleaves the
workloads.  Each metric prints as ``workload metric value unit n=...``;
the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics, or with ``--trace 1``
the per-layer ones).  With several workloads or reps, metric names are
prefixed by the workload and values are medians over reps.

Exits 1 when any check fails (the JSON line still prints) and 2, without
a result, when the program under test cannot be run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parents[2]
WORK_ROOT = ROOT / ".bench_work"
DEFAULT_SPAN_DIR = ROOT / ".bench_spans"

#: Per-workload child deadline; one run is sized to end well before it.
CHILD_TIMEOUT_S = 175

PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env(work_dir: Path) -> Dict[str, str]:
    """The environment a workload runs in.

    ``run_study`` silently reads ``REPRO_LANDSCAPE_CACHE`` and
    ``REPRO_RESULT_STORE`` (either would turn ``rsga_live``
    table-backed) and ``REPRO_FAIL_CELLS`` injects failures, so every
    ``REPRO_*`` variable goes.  Two BLAS threads on a 2-core host made
    the surrogate fits slower and noisier than one.  A fixed hash seed
    keeps memory layout from varying between runs.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    for name in PINNED_THREADS:
        env[name] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env["TMPDIR"] = str(work_dir)
    return env


def run_child(
    workload: str, seed: int, seconds: float, trace: int, rep: int,
    span_dir: Path,
) -> dict:
    """One workload run in a fresh subprocess; its parsed result."""
    work_dir = WORK_ROOT / f"{workload}-{os.getpid()}-{rep}"
    work_dir.mkdir(parents=True, exist_ok=True)
    cmd = [
        sys.executable, "-m", "benchmarks.e2e.harness",
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
        "--work-dir", str(work_dir),
    ]
    if trace:
        cmd += ["--span-dir", str(span_dir)]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(work_dir), capture_output=True,
            text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise RuntimeError(
            f"{workload}: no result within {CHILD_TIMEOUT_S}s"
        ) from exc
    finally:
        _remove_tree(work_dir)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload}: harness exited {proc.returncode}")
    return json.loads(lines[-1])


def _remove_tree(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        path.parent.rmdir()
    except OSError:
        pass


def _fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_result(res: dict, e2e_units: Dict[str, str],
                 layer_units: Dict[str, str]) -> None:
    name = res["workload"]
    for metric, unit in e2e_units.items():
        print(f"{name} {metric} {_fmt(res['e2e'][metric])} {unit} "
              f"n={res['studies']}")
    if "per_layer" in res:
        n = res["traced_studies"]
        for metric, unit in layer_units.items():
            line = f"{name} {metric} {_fmt(res['per_layer'][metric])} {unit} n={n}"
            if metric.startswith("runner.cell_ms_tail."):
                line += f" p={res['tail_pct'][metric.rsplit('.', 1)[1]]}"
            print(line)
        exp = res["traced_experiments_s"]
        print(f"{name} trace.experiments_s {_fmt(exp)} s n={n}")
        print(f"{name} trace.self_sum_frac "
              f"{_fmt(res['self_sum_s'] / exp if exp else 0.0)} ratio n={n}")
        if "span_file" in res:
            print(f"{name} spans -> {res['span_file']}")
    print(f"{name} digest {res['digest']}")
    print(f"{name} provenance {json.dumps(res['provenance'], sort_keys=True)}")
    for error in res["errors"]:
        print(f"{name} CHECK FAILED: {error}")


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"benchmark: no program under {ROOT / 'src'} to run",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from benchmarks.e2e.harness import E2E_UNITS, PER_LAYER_UNITS, PRINTED_UNITS
    from benchmarks.e2e.workloads import DEFAULT_SEED, NAMES

    parser = argparse.ArgumentParser(
        description="End-to-end study benchmark (see benchmarks/e2e/README.md)"
    )
    parser.add_argument("--workload", action="append", choices=NAMES,
                        help="workload to run (repeatable; default all)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="StudyConfig.root_seed (default %(default)s)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measured seconds per workload run")
    parser.add_argument("--reps", type=int, default=1,
                        help="runs per workload, interleaved")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: also run with per-layer timers")
    parser.add_argument("--span-dir", type=Path, default=DEFAULT_SPAN_DIR,
                        help="where --trace 1 writes one span file per "
                             "workload")
    args = parser.parse_args(argv)
    names = args.workload or list(NAMES)

    results: Dict[str, List[dict]] = {name: [] for name in names}
    for rep in range(args.reps):
        for name in names:
            try:
                res = run_child(name, args.seed, args.seconds, args.trace,
                                rep, args.span_dir)
            except RuntimeError as exc:
                print(f"benchmark: {exc}", file=sys.stderr)
                return 2
            print_result(res, {**E2E_UNITS, **PRINTED_UNITS}, PER_LAYER_UNITS)
            results[name].append(res)

    correct = all(r["correct"] for rs in results.values() for r in rs)
    pair = [results.get("rsga_socket2"), results.get("rsga_store_half")]
    if all(pair):
        # Same study, same seed: transport and store must agree.
        digests = {r["digest"] for rs in pair for r in rs}
        if len(digests) != 1:
            print("CHECK FAILED: rsga_socket2 and rsga_store_half digests "
                  "differ")
            correct = False

    units = PER_LAYER_UNITS if args.trace else E2E_UNITS
    source = "per_layer" if args.trace else "e2e"
    single = len(names) == 1
    metrics = {}
    for name, rs in results.items():
        for metric, unit in units.items():
            key = metric if single else f"{name}.{metric}"
            metrics[key] = {
                "value": statistics.median(r[source][metric] for r in rs),
                "unit": unit,
            }
    summary = {
        "correct": correct,
        "attempted": sum(r["attempted"] for rs in results.values() for r in rs),
        "failed": sum(r["failed"] for rs in results.values() for r in rs),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
