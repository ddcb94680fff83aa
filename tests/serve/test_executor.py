"""Serving executors: correctness, deadline shedding, rolling restarts.

The inline and pooled executors must agree with ``hashlib`` bit for
bit, shed exactly the items whose deadlines expired before dispatch,
and survive a rolling restart without losing the pool.
"""

import hashlib
import os
import time

import pytest

from repro.observability import metrics
from repro.parallel_exec import register_task_kind
from repro.programs import batch_driver
from repro.serve import DEADLINE_EXCEEDED, ERROR, OK, InlineExecutor, \
    PooledExecutor
from repro.serve import executor as executor_module
from repro.serve.executor import _plan_groups, _split_expired

MESSAGES = [bytes([i]) * (40 + i) for i in range(70)]
SHA3 = [hashlib.sha3_256(m).digest() for m in MESSAGES]
SHAKE16 = [hashlib.shake_128(m).digest(16) for m in MESSAGES]


def _items(messages, deadline=None):
    return [(m, deadline) for m in messages]


#: Flag and attempt-log files for the fault task kinds below.  Tests
#: point these at a tmp path *before* the executor forks its workers,
#: so every worker (and every replacement) sees the same paths.
_FLAG = ""
_ATTEMPTS = ""

#: Marks the one poisoned message: no other test message has this length.
_POISON_LENGTH = 99


def _crash_once(payload):
    if not os.path.exists(_FLAG):
        with open(_FLAG, "w"):
            pass
        os._exit(17)  # hard crash: no result, no exception report
    return batch_driver._hash_chunk(payload)


def _hang_once(payload):
    if not os.path.exists(_FLAG):
        with open(_FLAG, "w"):
            pass
        time.sleep(600)
    return batch_driver._hash_chunk(payload)


def _fail_poisoned(payload):
    if any(len(message) == _POISON_LENGTH for message in payload[3]):
        with open(_ATTEMPTS, "a") as handle:
            handle.write("x\n")
        raise ValueError("poisoned group")
    return batch_driver._hash_chunk(payload)


register_task_kind("test.serve_crash_once", _crash_once)
register_task_kind("test.serve_hang_once", _hang_once)
register_task_kind("test.serve_fail_poisoned", _fail_poisoned)


class TestPlanning:
    def test_groups_cover_every_index_once(self):
        items = _items(MESSAGES)
        groups = _plan_groups(items, 16)
        flat = sorted(i for g in groups for i in g)
        assert flat == list(range(len(items)))
        assert all(len(g) <= 16 for g in groups)

    def test_urgent_deadlines_dispatch_first(self):
        now = time.monotonic()
        items = [(b"a", now + 9.0), (b"b", now + 1.0), (b"c", None),
                 (b"d", now + 5.0)]
        groups = _plan_groups(items, 2)
        assert groups[0] == [1, 3]  # soonest deadlines lead
        assert groups[1] == [0, 2]  # undated items go last

    def test_split_expired(self):
        now = time.monotonic()
        items = [(b"a", now - 1.0), (b"b", now + 60.0), (b"c", None)]
        live, expired = _split_expired(items, [0, 1, 2], now)
        assert (live, expired) == ([1, 2], [0])


class TestInlineExecutor:
    def test_sha3_matches_hashlib(self):
        ex = InlineExecutor(engine="reference")
        results = ex.hash_batch("sha3_256", 32, _items(MESSAGES))
        assert [r for r in results] == [(OK, d) for d in SHA3]

    def test_shake_matches_hashlib(self):
        ex = InlineExecutor(engine="reference")
        results = ex.hash_batch("shake128", 16, _items(MESSAGES))
        assert results == [(OK, d) for d in SHAKE16]

    def test_expired_items_are_shed_not_hashed(self):
        ex = InlineExecutor(engine="reference")
        past = time.monotonic() - 1.0
        items = [(m, past if i % 2 else None)
                 for i, m in enumerate(MESSAGES)]
        results = ex.hash_batch("sha3_256", 32, items)
        for i, (outcome, digest) in enumerate(results):
            if i % 2:
                assert (outcome, digest) == (DEADLINE_EXCEEDED, None)
            else:
                assert (outcome, digest) == (OK, SHA3[i])

    def test_bad_algorithm_is_error_not_raise(self):
        ex = InlineExecutor(engine="reference")
        results = ex.hash_batch("md5", 16, _items(MESSAGES[:3]))
        assert results == [(ERROR, None)] * 3

    def test_empty_batch(self):
        assert InlineExecutor(engine="reference").hash_batch(
            "sha3_256", 32, []) == []

    def test_restart_is_a_noop(self):
        assert InlineExecutor(engine="reference").restart_workers() == 0


class TestPooledExecutor:
    @pytest.fixture(scope="class")
    def pooled(self):
        ex = PooledExecutor(2, engine="reference")
        yield ex
        ex.close()

    def test_matches_hashlib_in_input_order(self, pooled):
        results = pooled.hash_batch("sha3_256", 32, _items(MESSAGES))
        assert results == [(OK, d) for d in SHA3]

    def test_shake_matches_hashlib(self, pooled):
        results = pooled.hash_batch("shake128", 16, _items(MESSAGES))
        assert results == [(OK, d) for d in SHAKE16]

    def test_expired_work_shed_before_workers(self, pooled):
        past = time.monotonic() - 1.0
        items = [(m, past) for m in MESSAGES]
        results = pooled.hash_batch("sha3_256", 32, items)
        assert results == [(DEADLINE_EXCEEDED, None)] * len(MESSAGES)

    def test_mixed_deadlines_shed_only_expired(self, pooled):
        past = time.monotonic() - 1.0
        items = [(m, past if i % 3 == 0 else None)
                 for i, m in enumerate(MESSAGES)]
        results = pooled.hash_batch("sha3_256", 32, items)
        for i, (outcome, digest) in enumerate(results):
            if i % 3 == 0:
                assert outcome == DEADLINE_EXCEEDED
            else:
                assert (outcome, digest) == (OK, SHA3[i])

    def test_rolling_restart_replaces_every_worker(self, pooled):
        before = {w.process.pid for w in pooled._pool.workers.values()}
        assert pooled.restart_workers() == 2
        after = {w.process.pid for w in pooled._pool.workers.values()}
        assert not before & after
        assert len(after) == 2  # pool size never dips
        results = pooled.hash_batch("sha3_256", 32, _items(MESSAGES[:8]))
        assert results == [(OK, d) for d in SHA3[:8]]

    def test_shm_transport_agrees(self):
        ex = PooledExecutor(2, engine="reference", transport="shm")
        try:
            big = [bytes([i % 251]) * 2048 for i in range(80)]
            results = ex.hash_batch("sha3_256", 32, _items(big))
            assert results == [
                (OK, hashlib.sha3_256(m).digest()) for m in big]
        finally:
            ex.close()

    def test_closed_executor_rejects_work(self):
        ex = PooledExecutor(1, engine="reference")
        ex.close()
        with pytest.raises(RuntimeError, match="closed"):
            ex.hash_batch("sha3_256", 32, _items(MESSAGES[:1]))
        assert ex.restart_workers() == 0  # idempotent after close

    def test_needs_at_least_one_worker(self):
        with pytest.raises(ValueError, match="worker"):
            PooledExecutor(0, engine="reference")


class TestPooledExecutorFaults:
    """Crash, timeout, breaker and exhaustion recovery of the pooled
    executor: every group resolves to an explicit per-item outcome."""

    @pytest.fixture
    def faulty(self, monkeypatch, tmp_path):
        module = globals()
        monkeypatch.setitem(module, "_FLAG", str(tmp_path / "flag"))
        monkeypatch.setitem(module, "_ATTEMPTS", str(tmp_path / "attempts"))
        metrics.arm()
        executors = []

        def make(kind, workers=2, **kwargs):
            monkeypatch.setattr(executor_module, "_HASH_TASK_KIND", kind)
            ex = PooledExecutor(workers, engine="reference",
                                transport="pickle", **kwargs)
            executors.append(ex)
            return ex

        yield make
        for ex in executors:
            ex.close()
        metrics.disarm()

    @staticmethod
    def _restarts(reason):
        return metrics.registry().get("serve_worker_restarts_total") \
            .value(reason=reason)

    def test_crash_once_then_every_result_ok(self, faulty):
        ex = faulty("test.serve_crash_once")
        before = self._restarts("crashed")
        results = ex.hash_batch("sha3_256", 32, _items(MESSAGES))
        assert results == [(OK, d) for d in SHA3]
        assert os.path.exists(_FLAG)  # the first attempt really died
        assert self._restarts("crashed") - before >= 1
        assert ex.restarts >= 1

    def test_always_failing_group_errors_alone_after_all_attempts(
            self, faulty):
        ex = faulty("test.serve_fail_poisoned", max_retries=2)
        messages = list(MESSAGES)
        messages[40] = b"p" * _POISON_LENGTH  # in the second 32-group
        results = ex.hash_batch("sha3_256", 32, _items(messages))
        with open(_ATTEMPTS) as handle:
            assert len(handle.readlines()) == ex.max_retries + 1
        for i, (outcome, digest) in enumerate(results):
            if 32 <= i < 64:
                assert (outcome, digest) == (ERROR, None)
            else:
                assert (outcome, digest) == (
                    OK, hashlib.sha3_256(messages[i]).digest())

    def test_breaker_trip_counted(self, faulty):
        ex = faulty("test.serve_fail_poisoned", workers=1, max_retries=3,
                    breaker_threshold=2)
        before = self._restarts("breaker")
        items = _items([b"p" * _POISON_LENGTH] + MESSAGES[:3])
        results = ex.hash_batch("sha3_256", 32, items)
        assert results == [(ERROR, None)] * 4  # one group, all attempts
        assert self._restarts("breaker") - before >= 1

    def test_group_timeout_replaces_the_worker(self, faulty):
        ex = faulty("test.serve_hang_once", group_timeout=0.3)
        before = self._restarts("timeout")
        start = time.monotonic()
        results = ex.hash_batch("sha3_256", 32, _items(MESSAGES[:8]))
        assert time.monotonic() - start < 60  # killed, not waited out
        assert results == [(OK, d) for d in SHA3[:8]]
        assert self._restarts("timeout") - before >= 1


class TestTreeAlgorithms:
    """The tree-hashing XOFs ride the same executor surface."""

    def test_inline_k12_matches_reference(self):
        from repro.keccak.kangarootwelve import kangarootwelve

        ex = InlineExecutor(engine="reference")
        results = ex.hash_batch("k12", 32, _items(MESSAGES[:8]))
        assert results == [
            (OK, kangarootwelve(m, 32, engine="reference"))
            for m in MESSAGES[:8]
        ]

    def test_inline_parallelhash_matches_reference(self):
        from repro.keccak import parallelhash128, parallelhash256

        ex = InlineExecutor(engine="reference")
        assert ex.hash_batch("parallelhash128", 32,
                             _items(MESSAGES[:6])) == [
            (OK, parallelhash128(m, 32, engine="reference"))
            for m in MESSAGES[:6]
        ]
        assert ex.hash_batch("parallelhash256", 64,
                             _items(MESSAGES[:6])) == [
            (OK, parallelhash256(m, 64, engine="reference"))
            for m in MESSAGES[:6]
        ]

    def test_pooled_k12_matches_inline(self):
        ex = PooledExecutor(2, engine="reference")
        try:
            pooled = ex.hash_batch("k12", 32, _items(MESSAGES[:12]))
        finally:
            ex.close()
        inline = InlineExecutor(engine="reference") \
            .hash_batch("k12", 32, _items(MESSAGES[:12]))
        assert pooled == inline

    def test_lane_width_for_tree_algorithms_is_grouped(self):
        from repro.serve.executor import _DIGEST_BATCH_GROUP, _lane_width

        assert _lane_width((64, 8, 30), "reference", "k12") == \
            _DIGEST_BATCH_GROUP
        assert _lane_width((64, 8, 30), "reference",
                           "parallelhash128") == _DIGEST_BATCH_GROUP
