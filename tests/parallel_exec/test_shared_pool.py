"""The batch front ends' process-lifetime worker pool.

``run_many`` and every ``run_spans_report`` caller lease one shared
pool that lives as long as the process: a clean run hands its warm
workers on to the next run, any fault retires the pool, and a new
task kind or a changed environment forks a fresh one (workers only see
what existed at their fork; the metrics flag travels with each
dispatch instead).  Forked children and
interpreter exit must never strand or kill workers, and a report left
on a persistent pool's result queue must never be delivered to a later
dispatch.
"""

import glob
import hashlib
import json
import multiprocessing
import os
import signal
import socket
import subprocess
import sys
import textwrap
import threading
import time

import pytest

from repro.observability import metrics
from repro.parallel_exec import TaskError, register_task_kind
from repro.parallel_exec.pool import (
    lease_shared_pool,
    return_shared_pool,
    shared_pool,
    shutdown_shared_pool,
)
from repro.programs import run_many
from repro.serve import OK, PooledExecutor

from ._pickle_hooks import run_chunks_of

MESSAGES = [bytes([n]) * (17 + 5 * n) for n in range(24)]
EXPECTED = [hashlib.sha3_256(m).digest() for m in MESSAGES]
#: Big enough that ``transport="shm"`` is what a caller would pick anyway.
BIG = [bytes([n % 251]) * (4000 + 37 * n) for n in range(72)]
BIG_EXPECTED = [hashlib.sha3_256(m).digest() for m in BIG]
SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


def _double(payload):
    return [2 * item for item in payload]


def _fail(payload):
    raise ValueError("always fails")


def _crash_once(payload):
    flag, items = payload
    if not os.path.exists(flag):
        with open(flag, "w"):
            pass
        os.kill(os.getpid(), signal.SIGKILL)
    return [2 * item for item in items]


def _late(payload):
    return [item + 1000 for item in payload]


register_task_kind("test.sp_double", _double)
register_task_kind("test.sp_fail", _fail)
register_task_kind("test.sp_crash_once", _crash_once)


def _pids():
    pool = shared_pool()
    assert pool is not None, "no shared pool is live"
    return sorted(w.process.pid for w in pool.workers.values())


def _alive(pid):
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().split(")")[-1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def _script(body):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen([sys.executable, "-c", textwrap.dedent(body)],
                            env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)


@pytest.fixture(autouse=True)
def _disarmed():
    metrics.disarm()
    yield
    metrics.disarm()
    metrics.registry().reset()


class TestReuse:
    @pytest.mark.parametrize("transport", ["pickle", "shm"])
    def test_consecutive_runs_share_worker_pids(self, transport):
        messages, expected = ((MESSAGES, EXPECTED) if transport == "pickle"
                              else (BIG, BIG_EXPECTED))
        assert run_many(messages, workers=2, transport=transport) \
            == expected
        first = _pids()
        assert len(first) == 2
        assert run_many(messages, workers=2, transport=transport) \
            == expected
        assert _pids() == first

    def test_every_front_end_shares_one_pool(self):
        run_many(MESSAGES, workers=2)
        first = _pids()
        assert run_chunks_of("test.sp_double", [[1, 2], [3]],
                             workers=2).flat() == [2, 4, 6]
        assert _pids() == first

    def test_other_worker_count_replaces_the_pool(self):
        run_many(MESSAGES, workers=2)
        two = _pids()
        assert run_many(MESSAGES, workers=3) == EXPECTED
        three = _pids()
        assert len(three) == 3
        assert not set(two) & set(three)
        for pid in two:  # the old pool was shut down, not leaked
            assert not _alive(pid)

    def test_busy_lease_gives_a_concurrent_caller_a_private_pool(self):
        run_many(MESSAGES, workers=2)
        first = _pids()
        pool = lease_shared_pool(2)  # as another thread mid-run would
        try:
            assert pool is not None
            assert lease_shared_pool(2) is None
            assert run_many(MESSAGES, workers=2) == EXPECTED
        finally:
            return_shared_pool(keep=True)
        assert _pids() == first

    def test_concurrent_callers_all_get_correct_digests(self):
        run_many(MESSAGES, workers=2)
        children = {p.pid for p in multiprocessing.active_children()}
        results = []

        def call():
            for _ in range(2):
                results.append(run_many(MESSAGES, workers=2) == EXPECTED)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=call) for _ in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [True] * 6
        # Every private pool was shut down; the shared one was kept.
        assert {p.pid for p in multiprocessing.active_children()} \
            == children
        assert set(_pids()) <= children


class TestFaultedRunsRetireThePool:
    def test_task_error_retires_the_pool(self):
        run_many(MESSAGES, workers=2)
        with pytest.raises(TaskError):
            run_chunks_of("test.sp_fail", [[1], [2]], workers=2)
        assert shared_pool() is None
        assert run_many(MESSAGES, workers=2) == EXPECTED

    def test_injected_crash_retires_the_pool(self, tmp_path):
        flag = str(tmp_path / "crashed")
        report = run_chunks_of(
            "test.sp_crash_once", [[1, 2], [3]], workers=2,
            wrap=lambda start, items: (flag, items))
        assert os.path.exists(flag)  # the first attempt really died
        assert report.stats.crashes >= 1
        assert report.ok and report.flat() == [2, 4, 6]
        assert shared_pool() is None
        assert run_many(MESSAGES, workers=2) == EXPECTED

    def test_clean_run_keeps_the_pool(self):
        report = run_chunks_of("test.sp_double", [[1], [2], [3]],
                               workers=2)
        assert report.stats.clean
        assert shared_pool() is not None


class TestForkTimeState:
    def test_kind_registered_after_the_fork_runs(self):
        run_many(MESSAGES, workers=2)
        before = _pids()
        register_task_kind("test.sp_late", _late)
        assert run_chunks_of("test.sp_late", [[1, 2], [3]],
                             workers=2).flat() == [1001, 1002, 1003]
        assert not set(before) & set(_pids())

    def test_arming_keeps_the_pool_and_runs_merge_only_their_deltas(self):
        # Workers adopt the armed flag sent with each dispatch, so a pool
        # forked disarmed meters armed runs without forking again.
        run_chunks_of("test.sp_double", [[0]], workers=2)
        pids = _pids()
        registry = metrics.registry()
        for armed, count in ((True, 4), (True, 6), (False, 5), (True, 3)):
            if armed:
                metrics.arm()
            else:
                metrics.disarm()
            before = registry.snapshot()
            assert run_chunks_of("test.sp_double",
                                 [[n] for n in range(count)],
                                 workers=2).flat() \
                == [2 * n for n in range(count)]
            change = metrics.delta(before, registry.snapshot())
            series = change.get("pool_worker_task_seconds",
                                {"series": []})["series"]
            # Only this run's tasks: none merged twice, none recorded
            # while disarmed.
            assert sum(s["value"]["count"] for s in series) \
                == (count if armed else 0)
        assert _pids() == pids

    def test_environment_change_forks_a_new_pool(self, monkeypatch):
        run_many(MESSAGES, workers=2)
        before = _pids()
        monkeypatch.setenv("REPRO_SHARED_POOL_TEST", "1")
        assert run_many(MESSAGES, workers=2) == EXPECTED
        assert not set(before) & set(_pids())


class TestStrayReports:
    """A report already on the result queue must not answer a new
    dispatch: only the worker a span went to may deliver it."""

    def test_pooled_executor_ignores_a_stray_report(self):
        executor = PooledExecutor(1, transport="pickle")
        try:
            queue = executor._pool.result_queue
            queue.put((999, 0, True, [b"\0" * 32]))
            while queue.empty():  # the stray is first in line
                time.sleep(0.01)
            assert executor.hash_batch("sha3_256", 32, [(b"abc", None)]) \
                == [(OK, hashlib.sha3_256(b"abc").digest())]
        finally:
            executor.close()

    def test_shared_pool_ignores_stray_and_stale_reports(self):
        run_many(MESSAGES, workers=2, transport="pickle")
        pool = shared_pool()
        junk = [b"\0" * 32] * len(MESSAGES)
        for sid in range(64):
            pool.result_queue.put((999, sid, True, junk))
        for worker_id in pool.workers:  # ids its earlier run used
            pool.result_queue.put((worker_id, 0, True, junk))
        while pool.result_queue.empty():
            time.sleep(0.01)
        assert run_many(MESSAGES, workers=2, transport="pickle") \
            == EXPECTED


class TestForkAndExit:
    def test_forked_child_runs_its_own_pool(self):
        proc = _script("""
            import hashlib, json, os, sys
            from repro.parallel_exec.pool import shared_pool
            from repro.programs import run_many

            messages = [bytes([n]) * (30 + n) for n in range(20)]
            expected = [hashlib.sha3_256(m).digest() for m in messages]

            def pids():
                return sorted(w.process.pid
                              for w in shared_pool().workers.values())

            assert run_many(messages, workers=2) == expected
            before = pids()
            child = os.fork()
            if child == 0:
                # Exits through the interpreter's normal exit path.
                ok = shared_pool() is None \\
                    and run_many(messages, workers=2) == expected \\
                    and not set(pids()) & set(before)
                sys.exit(0 if ok else 3)
            _, status = os.waitpid(child, 0)
            after = pids()
            alive = all(w.process.is_alive()
                        for w in shared_pool().workers.values())
            again = run_many(messages, workers=2) == expected
            print(json.dumps({"child": os.waitstatus_to_exitcode(status),
                              "alive": alive,
                              "same": before == after == pids(),
                              "again": again}))
        """)
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        assert json.loads(out.splitlines()[-1]) \
            == {"child": 0, "alive": True, "same": True, "again": True}

    def test_exit_leaves_no_worker_or_segment(self):
        proc = _script("""
            import atexit, json

            procs = []
            # Registered first, so it runs last: after every exit hook
            # the program registers, it reports how the workers ended.
            atexit.register(lambda: print(json.dumps(
                [p.exitcode for p in procs]), flush=True))

            import hashlib
            from repro.parallel_exec.pool import shared_pool
            from repro.programs import run_many

            messages = [bytes([n % 251]) * (4000 + 37 * n)
                        for n in range(72)]
            for transport in ("shm", "pickle", "shm"):
                assert run_many(messages, workers=2,
                                transport=transport) \\
                    == [hashlib.sha3_256(m).digest() for m in messages]
            procs.extend(w.process for w in shared_pool().workers.values())
            print(json.dumps([p.pid for p in procs]), flush=True)
        """)
        line = proc.stdout.readline()
        assert line, proc.stderr.read()
        workers = json.loads(line)
        assert len(workers) == 2
        proc.wait(timeout=5)
        out, err = proc.communicate()
        assert proc.returncode == 0, err
        assert "Traceback" not in err, err
        # Drained through the sentinel, not terminated by a signal.
        assert json.loads(out.splitlines()[-1]) == [0, 0]
        for pid in workers:
            assert not _alive(pid)
        assert not glob.glob(f"/dev/shm/repro_shm_{proc.pid}_*")


class TestInheritedDescriptors:
    """Workers outlive the call that forked them, so they must not keep
    the parent's descriptors open behind its back."""

    def test_a_pipe_opened_before_the_fork_reaches_eof(self):
        shutdown_shared_pool()
        cat = subprocess.Popen(["cat"], stdin=subprocess.PIPE,
                               stdout=subprocess.DEVNULL)
        try:
            assert run_many(MESSAGES, workers=2) == EXPECTED
            pids = _pids()
            cat.stdin.close()
            assert cat.wait(timeout=5) == 0
            assert _pids() == pids and all(map(_alive, pids))
        finally:
            cat.kill()
            cat.wait()
        assert run_many(MESSAGES, workers=2) == EXPECTED
        assert _pids() == pids

    def test_a_closed_listening_socket_is_released(self):
        shutdown_shared_pool()
        server = socket.create_server(("127.0.0.1", 0))
        address = server.getsockname()
        assert run_many(MESSAGES, workers=2) == EXPECTED
        server.close()
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(address, timeout=2).close()
        assert shared_pool() is not None


def teardown_module(module):
    shutdown_shared_pool()
