"""Executor backends: protocol units, cross-backend parity, socket loopback.

The socket tests launch real ``repro-worker`` subprocesses against a
loopback coordinator — the same path a multi-machine study exercises,
minus the network cable.
"""

import os
import socket as _socket
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

import repro
from repro.parallel import (
    EXECUTOR_NAMES,
    ParallelMap,
    TaskError,
    make_executor,
)
from repro.parallel.executors import (
    ProcessExecutor,
    SerialExecutor,
    SocketExecutor,
)
from repro.parallel.executors.socket import parse_bind
from repro.parallel.executors.wire import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    WireError,
    recv_msg,
    send_msg,
)
from repro.parallel.pool import _run_batch

REPO_ROOT = Path(repro.__file__).resolve().parents[2]
SRC_DIR = REPO_ROOT / "src"


def square(x):
    return x * x


def failing(x):
    if x == 3:
        raise RuntimeError("boom")
    return x


def tenfold_batch(batch):
    return [x * 10 for x in batch]


def unpicklable_at_two(x):
    """An outcome that cannot cross the wire back for task 2."""
    return threading.Lock() if x == 2 else x


def die_once(arg):
    """Kill this worker process the first time the marker is absent.

    The marker is created exclusively, so of two workers that start a
    unit at the same moment only one dies; were both to die, no worker
    would be left to finish the requeued units and the run would hang.
    """
    x, marker = arg
    try:
        os.close(os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
    except FileExistsError:
        return x + 100
    os._exit(17)


def _worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC_DIR), str(REPO_ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


@contextmanager
def loopback_workers(address, count, node_prefix="w", extra_env=None):
    """Launch ``count`` repro-worker subprocesses against ``address``."""
    env = _worker_env()
    if extra_env:
        env.update(extra_env)
    procs = [
        subprocess.Popen(
            [
                sys.executable, "-m", "repro.parallel.worker", "connect",
                address, "--node", f"{node_prefix}{i}", "--retry", "10",
                "--quiet",
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


@contextmanager
def socket_pool(workers=2, node_prefix="w", **pool_kwargs):
    """A ParallelMap over a loopback socket executor with live workers."""
    executor = SocketExecutor()
    try:
        with loopback_workers(
            executor.address, workers, node_prefix=node_prefix
        ):
            executor.wait_for_workers(workers, timeout=30)
            yield ParallelMap(executor=executor, **pool_kwargs)
    finally:
        executor.close()


class TestWire:
    def test_roundtrip(self):
        a, b = _socket.socketpair()
        try:
            send_msg(a, {"kind": "hello", "n": [1, 2, 3]})
            assert recv_msg(b) == {"kind": "hello", "n": [1, 2, 3]}
        finally:
            a.close()
            b.close()

    def test_clean_eof_is_none(self):
        a, b = _socket.socketpair()
        a.close()
        try:
            assert recv_msg(b) is None
        finally:
            b.close()

    def test_bad_magic_raises(self):
        a, b = _socket.socketpair()
        try:
            a.sendall(b"NOPE" + b"\x00" * 8 + b"x")
            with pytest.raises(WireError):
                recv_msg(b)
        finally:
            a.close()
            b.close()

    def test_mid_frame_eof_raises(self):
        a, b = _socket.socketpair()
        try:
            a.sendall(b"REPX")  # header cut short
            a.close()
            with pytest.raises(WireError):
                recv_msg(b)
        finally:
            b.close()

    def test_oversize_frame_refused(self):
        a, b = _socket.socketpair()
        try:
            import struct

            a.sendall(struct.pack(">4sQ", b"REPX", MAX_FRAME_BYTES + 1))
            with pytest.raises(WireError):
                recv_msg(b)
        finally:
            a.close()
            b.close()


class TestFactory:
    def test_known_names(self):
        assert EXECUTOR_NAMES == ("serial", "process", "socket")
        assert isinstance(make_executor("serial"), SerialExecutor)
        assert isinstance(make_executor("process", workers=2),
                          ProcessExecutor)
        sock = make_executor("socket")
        try:
            assert isinstance(sock, SocketExecutor)
        finally:
            sock.close()

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown executor"):
            make_executor("carrier-pigeon")
        with pytest.raises(ValueError, match="unknown executor"):
            make_executor("thread")

    def test_parse_bind(self):
        assert parse_bind("0.0.0.0:7071") == ("0.0.0.0", 7071)
        with pytest.raises(ValueError):
            parse_bind("7071")


class TestCrossBackendParity:
    """One task list, three transports, identical outcomes."""

    TASKS = list(range(13))

    def _outcomes(self, pool):
        seen = []
        outcomes = pool.run(square, self.TASKS, on_outcome=seen.append)
        return outcomes, seen

    def _key(self, outcomes):
        return [(o.index, o.task, o.result, o.ok) for o in outcomes]

    def test_all_backends_agree(self):
        reference, ref_seen = self._outcomes(
            ParallelMap(executor=SerialExecutor())
        )
        assert [o.index for o in ref_seen] == list(range(len(self.TASKS)))
        outcomes, seen = self._outcomes(
            ParallelMap(workers=2, executor="process")
        )
        assert self._key(outcomes) == self._key(reference)
        # hooks fire in input order on every backend
        assert [o.index for o in seen] == [o.index for o in ref_seen]
        with socket_pool(workers=2) as pool:
            outcomes, seen = self._outcomes(pool)
            assert self._key(outcomes) == self._key(reference)
            assert [o.index for o in seen] == [o.index for o in ref_seen]

    def test_grouped_backends_agree(self):
        def run(pool):
            return pool.run_grouped(
                square, tenfold_batch, self.TASKS,
                group_key=lambda x: x % 3,
            )

        reference = run(ParallelMap(executor=SerialExecutor()))
        for workers in (2, 3):
            pool = ParallelMap(workers=workers, executor="process")
            assert self._key(run(pool)) == self._key(reference)

    def test_grouped_socket_agrees(self):
        reference = ParallelMap(executor=SerialExecutor()).run_grouped(
            square, tenfold_batch, self.TASKS,
            group_key=_mod3,
        )
        with socket_pool(workers=2) as pool:
            outcomes = pool.run_grouped(
                square, tenfold_batch, self.TASKS,
                group_key=_mod3,
            )
        assert self._key(outcomes) == self._key(reference)

    def test_fail_fast_names_exact_task_everywhere(self):
        for pool in (
            ParallelMap(executor="serial"),
            ParallelMap(workers=2, executor="process"),
        ):
            with pytest.raises(TaskError) as err:
                pool.run(failing, list(range(8)))
            assert err.value.task == 3
            # 64 one-group tasks: one batch inline, batches of 4 over
            # 2 workers; either way task 3 shares its batch.
            with pytest.raises(TaskError) as err:
                pool.run_grouped(failing, None, list(range(64)), _one)
            assert err.value.task == 3

    def test_explicit_instance_not_closed_between_dispatches(self):
        executor = ProcessExecutor(workers=2)
        pool = ParallelMap(executor=executor)
        assert _results(pool.run(square, [1, 2, 3])) == [1, 4, 9]
        assert _results(pool.run(square, [4, 5])) == [16, 25]


def _mod3(x):
    return x % 3


def _hello(executor, node, simulator_version, protocol=PROTOCOL_VERSION):
    """A hand-rolled worker connection that has sent its hello."""
    conn = _socket.create_connection(parse_bind(executor.address))
    send_msg(
        conn,
        {
            "kind": "hello",
            "protocol": protocol,
            "node": node,
            "pid": 0,
            "simulator_version": simulator_version,
        },
    )
    return conn


def _one(_x):
    return 0


def _results(outcomes):
    return [o.result for o in outcomes]


class TestSerialExecutorLaziness:
    def test_fail_fast_never_runs_later_tasks(self):
        ran = []

        def tracked(x):
            ran.append(x)
            if x == 2:
                raise RuntimeError("stop here")
            return x

        with pytest.raises(TaskError):
            ParallelMap(executor=SerialExecutor()).run(
                tracked, list(range(10))
            )
        assert ran == [0, 1, 2]

        ran.clear()
        with pytest.raises(TaskError):
            ParallelMap(executor=SerialExecutor()).run_grouped(
                tracked, None, list(range(10)), lambda x: x // 4
            )
        # The failing batch [0..3] runs to its end; [4..7] and [8, 9]
        # never start.
        assert ran == [0, 1, 2, 3]


class TestSocketExecutor:
    def test_node_attribution(self):
        with socket_pool(workers=2, node_prefix="machine") as pool:
            outcomes = pool.run(square, list(range(8)))
        nodes = {o.node for o in outcomes}
        assert nodes  # every outcome is attributed
        assert nodes <= {"machine0", "machine1"}

    def test_wait_for_workers_timeout(self):
        executor = SocketExecutor()
        try:
            with pytest.raises(TimeoutError):
                executor.wait_for_workers(1, timeout=0.2)
        finally:
            executor.close()

    def test_elastic_join_mid_submit(self):
        """Workers attaching after dispatch still pick up the queue."""
        executor = SocketExecutor()
        results = []

        def run():
            pool = ParallelMap(executor=executor)
            results.extend(_results(pool.run(square, list(range(6)))))

        thread = threading.Thread(target=run)
        thread.start()
        time.sleep(0.3)  # dispatch is already blocked on an empty fleet
        try:
            with loopback_workers(executor.address, 1):
                thread.join(timeout=60)
                assert not thread.is_alive()
                assert results == [x * x for x in range(6)]
        finally:
            executor.close()

    def test_worker_death_requeues_unit(self, tmp_path):
        marker = str(tmp_path / "died-once")
        executor = SocketExecutor()
        try:
            with loopback_workers(executor.address, 2):
                executor.wait_for_workers(2, timeout=30)
                pool = ParallelMap(executor=executor)
                outcomes = pool.run(
                    die_once, [(x, marker) for x in range(4)]
                )
            assert [o.result for o in outcomes] == [100, 101, 102, 103]
        finally:
            executor.close()

    def test_worker_death_counted(self, tmp_path):
        marker = str(tmp_path / "died-once-counted")
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        executor = SocketExecutor()
        try:
            with loopback_workers(executor.address, 2):
                executor.wait_for_workers(2, timeout=30)
                pool = ParallelMap(executor=executor, metrics=registry)
                outcomes = pool.run(
                    die_once, [(x, marker) for x in range(4)]
                )
            assert all(o.ok for o in outcomes)
            flat = registry.flat_counters()
            assert flat.get("executor_units_requeued_total", 0) >= 1
            assert flat.get("executor_workers_joined_total") == 2
        finally:
            executor.close()

    def test_unpicklable_result_becomes_error_reply(self):
        with socket_pool(workers=1, failure_policy="collect") as pool:
            outcomes = pool.run(unpicklable_at_two, list(range(4)))
        assert [o.ok for o in outcomes] == [True, True, False, True]
        assert "unpicklable result" in str(outcomes[2].error)
        assert [outcomes[i].result for i in (0, 1, 3)] == [0, 1, 3]

    @pytest.mark.parametrize("reply_id", ["missing", "unknown"])
    def test_misaddressed_reply_requeues_unit(self, reply_id):
        """A reply without the unit's id drops the worker with a
        WireError; the unit is requeued and completes elsewhere."""
        executor = SocketExecutor()
        requeued = []
        real_requeue = executor._requeue

        def record_requeue(item, exc):
            requeued.append((item[1].uid, exc))
            real_requeue(item, exc)

        executor._requeue = record_requeue

        def misbehaving_worker():
            from repro.gpu.simulator import SIMULATOR_VERSION

            conn = _hello(executor, "bad", int(SIMULATOR_VERSION))
            try:
                assert recv_msg(conn)["kind"] == "welcome"
                unit = recv_msg(conn)
                reply = {
                    "kind": "result",
                    "outcomes": _run_batch(*unit["payload"]),
                }
                if reply_id == "unknown":
                    reply["id"] = unit["id"] + 1000
                send_msg(conn, reply)
                try:
                    recv_msg(conn)  # the coordinator hangs up
                except OSError:
                    pass
            finally:
                conn.close()

        outcomes = []
        bad = threading.Thread(target=misbehaving_worker, daemon=True)
        bad.start()
        try:
            executor.wait_for_workers(1, timeout=30)
            run = threading.Thread(
                target=lambda: outcomes.extend(
                    ParallelMap(executor=executor).run(square, [0, 1, 2])
                ),
                daemon=True,
            )
            run.start()
            bad.join(timeout=30)
            assert not bad.is_alive()
            with loopback_workers(executor.address, 1):
                run.join(timeout=60)
                assert not run.is_alive()
        finally:
            executor.close()
        assert [(uid, type(exc)) for uid, exc in requeued] == [
            (0, WireError)
        ]
        assert [o.result for o in outcomes] == [0, 1, 4]
        assert {o.node for o in outcomes} == {"w0"}

    def test_simulator_version_mismatch_rejected(self):
        executor = SocketExecutor()
        try:
            conn = _hello(executor, "stale", -1)
            try:
                reply = recv_msg(conn)
                assert reply["kind"] == "reject"
                assert "simulator version" in reply["reason"]
            finally:
                conn.close()
            assert executor.worker_count() == 0
        finally:
            executor.close()

    def test_protocol_2_worker_rejected(self):
        # Version 2 units carried a pickled entry callable; a worker
        # that still expects one is refused before it gets a unit.
        from repro.gpu.simulator import SIMULATOR_VERSION

        assert PROTOCOL_VERSION == 3
        executor = SocketExecutor()
        try:
            conn = _hello(executor, "old", int(SIMULATOR_VERSION), 2)
            try:
                reply = recv_msg(conn)
                assert reply["kind"] == "reject"
                assert reply["reason"] == "protocol 2 != coordinator 3"
            finally:
                conn.close()
            assert executor.worker_count() == 0
        finally:
            executor.close()

    def test_worker_cli_rejected_handshake_exit_code(self):
        server = _socket.create_server(("127.0.0.1", 0))
        host, port = server.getsockname()[:2]

        def reject_first_client():
            conn, _ = server.accept()
            try:
                recv_msg(conn)  # the worker's hello
                send_msg(
                    conn, {"kind": "reject", "reason": "test says no"}
                )
            finally:
                conn.close()

        thread = threading.Thread(target=reject_first_client, daemon=True)
        thread.start()
        try:
            proc = subprocess.run(
                [
                    sys.executable, "-m", "repro.parallel.worker",
                    "connect", f"{host}:{port}", "--quiet",
                ],
                env=_worker_env(),
                timeout=30,
            )
        finally:
            server.close()
        assert proc.returncode == 1
