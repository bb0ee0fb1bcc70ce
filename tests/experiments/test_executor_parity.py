"""Cross-backend study parity: the tentpole invariant made executable.

The same study dispatched through the serial, process, and socket
(two loopback ``repro-worker`` subprocesses) backends must
produce byte-identical checkpoint files and identical results — work
placement can never leak into the science.
"""

import os
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import repro
from repro.experiments import (
    ExperimentDesign,
    StudyConfig,
    run_study,
)
from repro.experiments.runner import FAIL_CELLS_ENV

REPO_ROOT = Path(repro.__file__).resolve().parents[2]
SRC_DIR = REPO_ROOT / "src"

FAILING_CELL = "genetic_algorithm/add/titan_v/25/1"


def tiny_config(**kwargs):
    defaults = dict(
        design=ExperimentDesign(sample_sizes=(25,), experiments_at_largest=2),
        algorithms=("random_search", "genetic_algorithm"),
        kernels=("add",),
        archs=("titan_v",),
        image_x=512,
        image_y=512,
        workers=2,
    )
    defaults.update(kwargs)
    return StudyConfig(**defaults)


@contextmanager
def loopback_workers(address, count, extra_env=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC_DIR), str(REPO_ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    if extra_env:
        env.update(extra_env)
    procs = [
        subprocess.Popen(
            [
                sys.executable, "-m", "repro.parallel.worker", "connect",
                address, "--node", f"node{i}", "--retry", "10", "--quiet",
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


def run_with_executor(executor, tmp_path, name, **study_kwargs):
    """One checkpointed study through ``executor``; returns (results, bytes)."""
    ckpt = tmp_path / f"{name}.jsonl"
    kwargs = dict(
        checkpoint=str(ckpt),
        executor=executor,
        landscape_cache=str(tmp_path / "cache"),
    )
    kwargs.update(study_kwargs)
    if executor == "socket":
        lines = []
        # Drive the study's own socket path by pre-announcing the bind:
        # an ephemeral port is only known after bind, so the test runs
        # the coordinator through run_study and attaches workers via
        # the address it announces.
        address_box = {}

        def capture(line):
            lines.append(line)
            if "listening on" in line and "address" not in address_box:
                address_box["address"] = line.split("listening on ")[1].split(
                    " "
                )[0]
                procs = loopback_workers(address_box["address"], 2)
                address_box["procs"] = procs
                procs.__enter__()

        try:
            results = run_study(
                tiny_config(),
                progress=capture,
                min_workers=2,
                **kwargs,
            )
        finally:
            if "procs" in address_box:
                address_box["procs"].__exit__(None, None, None)
        return results, ckpt.read_bytes()
    results = run_study(tiny_config(), **kwargs)
    return results, ckpt.read_bytes()


def result_key(results):
    return [
        (r.algorithm, r.kernel, r.arch, r.sample_size, r.experiment,
         r.final_runtime_ms, r.best_flat, r.observed_best_ms)
        for r in results.results
    ]


class TestCheckpointByteIdentity:
    def test_local_backends_byte_identical(self, tmp_path):
        reference, ref_bytes = run_with_executor("serial", tmp_path, "serial")
        assert ref_bytes  # the checkpoint actually streamed
        results, blob = run_with_executor("process", tmp_path, "process")
        assert blob == ref_bytes, "process checkpoint diverged"
        assert result_key(results) == result_key(reference)
        assert results.metadata["executor"] == "process"

    def test_socket_backend_byte_identical(self, tmp_path):
        reference, ref_bytes = run_with_executor("serial", tmp_path, "serial")
        results, blob = run_with_executor("socket", tmp_path, "socket")
        assert blob == ref_bytes, "socket checkpoint diverged"
        assert result_key(results) == result_key(reference)
        assert results.metadata["executor"] == "socket"


class TestResume:
    def test_truncated_checkpoint_resumes_identically(self, tmp_path):
        _, full_bytes = run_with_executor("serial", tmp_path, "full")
        # Keep the header, plan, and first result line; drop the rest —
        # a mid-study interruption.
        lines = full_bytes.splitlines(keepends=True)
        truncated = b"".join(lines[:3])
        resumed_path = tmp_path / "resumed.jsonl"
        resumed_path.write_bytes(truncated)
        results = run_study(
            tiny_config(),
            checkpoint=str(resumed_path),
            executor="process",
            landscape_cache=str(tmp_path / "cache"),
        )
        assert results.metadata["resumed_from_checkpoint"] == 1
        assert resumed_path.read_bytes() == full_bytes


class TestFailureAttribution:
    def test_injected_failure_attributed_to_node(self, tmp_path):
        # The env var reaches the repro-worker subprocesses through
        # inherited environment, exactly like a real multi-node drill.
        os.environ[FAIL_CELLS_ENV] = FAILING_CELL
        try:
            serial_results, serial_bytes = run_with_executor(
                "serial", tmp_path, "serial-f", failure_policy="collect"
            )
            results, blob = run_with_executor(
                "socket", tmp_path, "socket-f", failure_policy="collect"
            )
        finally:
            del os.environ[FAIL_CELLS_ENV]
        assert blob == serial_bytes, (
            "failure lines must not embed worker identity"
        )
        assert len(results.failed_cells) == 1
        failed = results.failed_cells[0]
        assert failed["cell_key"] == FAILING_CELL
        assert failed["error_type"] == "InjectedFailure"
        # node attribution lives in metadata only
        assert failed["node"] in ("node0", "node1")
        assert serial_results.failed_cells[0]["node"] is None
