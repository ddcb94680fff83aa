"""Zero-copy shm transport: arena lifecycle, stealing, fault recovery.

The transport's two safety claims are pinned here rather than in the
benchmark: (1) digests that travel through a shared-memory arena are
bit-identical to the serial pickle path and to ``hashlib``, under
crashes and resume included; (2) segments never leak — not on clean
shutdown, not when a worker holding an attachment is SIGKILLed
mid-chunk, and never as ``resource_tracker`` warnings (the worker-side
attach is untracked by design, see ``shm._attach_untracked``).

Crash tasks signal attempt state through flag files because they run in
child processes; ``fork`` inherits the registry, so kinds registered at
this module's import are visible in workers.
"""

import glob
import hashlib
import os
import pickle
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from repro.parallel_exec import (
    ChunkView,
    SpanAssembler,
    SpanDeque,
    chunked,
    plan_spans,
    register_task_kind,
    run_spans_report,
)
from repro.parallel_exec import shm
from repro.parallel_exec.results import ParallelExecError
from repro.programs import run_many
from repro.programs.batch_driver import run_many_report

needs_shm = pytest.mark.skipif(not shm.HAVE_SHM,
                               reason="no multiprocessing.shared_memory")

MESSAGES = [bytes([n % 251]) * (13 + n % 89) for n in range(96)]
EXPECTED = [hashlib.sha3_256(m).digest() for m in MESSAGES]


def _shm_hash_crash_once(payload):
    """Hash a span via the arena — SIGKILL ourselves on first attempt."""
    flag, segment, start, stop = payload
    arena = shm.attach_arena(segment)  # hold the segment before dying
    if not os.path.exists(flag):
        with open(flag, "w"):
            pass
        os.kill(os.getpid(), signal.SIGKILL)
    digests = [hashlib.sha3_256(m).digest()
               for m in arena.read_messages(start, stop)]
    arena.write_digests(start, digests)
    return (start, stop)


register_task_kind("test.shm_crash_once", _shm_hash_crash_once)


@needs_shm
class TestArena:
    def test_pack_read_write_round_trip(self):
        pool = shm.ArenaPool(prefix="repro_shm_test")
        try:
            sizes = [len(m) for m in MESSAGES]
            arena = pool.acquire(shm.required_size(sizes, 32))
            arena.pack(MESSAGES, 32)
            assert arena.message_count == len(MESSAGES)
            assert arena.read_messages(0, len(MESSAGES)) == MESSAGES
            assert arena.read_messages(10, 13) == MESSAGES[10:13]
            arena.write_digests(0, EXPECTED)
            assert arena.read_digests(0, len(MESSAGES)) == EXPECTED
            assert arena.read_digests(5, 7) == EXPECTED[5:7]
        finally:
            pool.close_all()
        assert pool.live_segments == 0

    def test_pack_overflow_and_bad_ranges_rejected(self):
        pool = shm.ArenaPool(prefix="repro_shm_test")
        try:
            arena = pool.acquire(1)  # one size quantum
            with pytest.raises(ValueError, match="needs"):
                arena.pack([b"x" * arena.capacity], 32)
            arena.pack([b"abc"], 32)
            with pytest.raises(IndexError):
                arena.read_messages(0, 2)
            with pytest.raises(IndexError):
                arena.read_digests(-1, 1)
            with pytest.raises(ValueError, match="slot"):
                arena.write_digests(0, [b"short"])
        finally:
            pool.close_all()

    def test_segments_are_reused_across_leases(self):
        pool = shm.ArenaPool(prefix="repro_shm_test")
        try:
            first = pool.acquire(1024)
            name = first.name
            pool.release(first)
            second = pool.acquire(1024)
            assert second.name == name  # free-list hit, no new segment
            assert pool.live_segments == 1
        finally:
            pool.close_all()

    def test_retain_keeps_the_lease_alive(self):
        pool = shm.ArenaPool(prefix="repro_shm_test")
        try:
            arena = pool.acquire(1024)
            pool.retain(arena)
            pool.release(arena)  # one of two references dropped
            other = pool.acquire(1024)
            assert other.name != arena.name  # still leased: not reusable
            pool.release(arena)
            pool.release(other)
        finally:
            pool.close_all()


class TestTransportSelection:
    def test_explicit_pickle_always_wins(self):
        assert shm.choose_transport("pickle", 1 << 30, 8) == "pickle"

    def test_auto_falls_back_for_small_or_serial_batches(self):
        assert shm.choose_transport("auto", shm.MIN_SHM_BYTES - 1, 4) \
            == "pickle"
        assert shm.choose_transport("auto", 1 << 30, 1) == "pickle"

    @needs_shm
    def test_auto_picks_shm_for_large_parallel_batches(self):
        assert shm.choose_transport("auto", shm.MIN_SHM_BYTES, 2) == "shm"
        assert shm.choose_transport("shm", 1, 1) == "shm"

    def test_unknown_transport_rejected(self):
        with pytest.raises(ValueError, match="unknown transport"):
            shm.choose_transport("carrier-pigeon", 0, 1)


class TestChunkViews:
    """Satellite: ``chunked()`` must not copy payload slices."""

    def test_views_share_the_backing_list(self):
        items = [b"a", b"b", b"c", b"d"]
        views = chunked(items, 3)
        assert all(isinstance(v, ChunkView) for v in views)
        items[0] = b"mutated"
        assert views[0][0] == b"mutated"  # a view, not a copy

    def test_pickling_a_view_carries_only_its_slice(self):
        big = [os.urandom(512) for _ in range(200)]
        view = chunked(big, 4)[0]
        wire = pickle.dumps(view)
        assert len(wire) < len(pickle.dumps(big)) / 10
        assert pickle.loads(wire) == big[:4]  # lands as a plain list

    def test_views_compare_like_lists(self):
        view = chunked([1, 2, 3, 4, 5], 2)[1]
        assert view == [3, 4]
        assert view == (3, 4)
        assert list(view) == [3, 4]
        assert repr(view) == repr([3, 4])


class TestSpanPlanning:
    def test_plan_covers_contiguously_on_lane_boundaries(self):
        sizes = [11 + n % 67 for n in range(1000)]
        spans = plan_spans(sizes, workers=4, lane_width=64)
        assert spans[0][0] == 0 and spans[-1][1] == len(sizes)
        for (_, stop), (start, _) in zip(spans, spans[1:]):
            assert stop == start
        for start, stop in spans[:-1]:
            assert stop % 64 == 0

    def test_degenerate_inputs(self):
        assert plan_spans([], workers=4) == []
        with pytest.raises(ValueError):
            plan_spans([1], workers=1, lane_width=0)

    def test_deque_pops_leftmost_when_spans_are_plentiful(self):
        dq = SpanDeque([(0, 4), (4, 8)], lane_width=1)
        assert dq.take(idle_workers=2) == (0, 4)
        assert dq.steals == 0

    def test_deque_steals_half_the_largest_span_under_scarcity(self):
        dq = SpanDeque([(0, 640)], lane_width=64)
        assert dq.take(idle_workers=2) == (0, 320)  # 10 lanes -> 5 + 5
        assert dq.take(idle_workers=2) == (320, 448)  # 5 lanes -> 2 + 3
        assert dq.steals == 2
        assert dq.take(idle_workers=1) == (448, 640)  # enough spans again
        assert dq.take() is None

    def test_single_lane_group_cannot_split(self):
        dq = SpanDeque([(0, 64)], lane_width=64)
        assert dq.take(idle_workers=3) == (0, 64)
        assert dq.steals == 0


class TestSpanAssembler:
    def test_arbitrary_disjoint_ranges_complete_the_run(self):
        assembler = SpanAssembler(6)
        assert assembler.add(4, 6, ["e", "f"])
        assert assembler.add(0, 1, ["a"])
        assert assembler.uncovered_runs() == [(1, 4)]
        assert not assembler.complete
        assert assembler.add(1, 4, ["b", "c", "d"])
        assert assembler.values() == ["a", "b", "c", "d", "e", "f"]

    def test_duplicate_delivery_refused_whole(self):
        assembler = SpanAssembler(4)
        assembler.add(0, 2, ["a", "b"])
        assert not assembler.add(1, 3, ["B", "C"])  # overlaps a slot
        assembler.add(2, 4, ["c", "d"])
        assert assembler.values() == ["a", "b", "c", "d"]

    def test_failed_span_resolves_to_none(self):
        assembler = SpanAssembler(3)
        assembler.add(0, 1, ["a"])
        assembler.add_failed(1, 3)
        assert assembler.failed_spans == [(1, 3)]
        assert assembler.values() == ["a", None, None]

    def test_incomplete_values_raise(self):
        assembler = SpanAssembler(2)
        assembler.add(0, 1, ["a"])
        with pytest.raises(ParallelExecError):
            assembler.values()
        with pytest.raises(ValueError):
            assembler.add(1, 2, ["too", "many"])
        with pytest.raises(IndexError):
            assembler.add(1, 3, ["a", "b"])


@needs_shm
class TestShmRunMany:
    def test_shm_digests_match_serial_and_hashlib(self):
        via_shm = run_many(MESSAGES, workers=2, engine="reference",
                           transport="shm")
        serial = run_many(MESSAGES, workers=1, engine="reference",
                          transport="pickle")
        assert via_shm == serial == EXPECTED

    def test_shm_shake128_round_trip(self):
        digests = run_many(MESSAGES[:24], algorithm="shake128", length=48,
                           workers=2, engine="reference", transport="shm")
        assert digests == [hashlib.shake_128(m).digest(48)
                           for m in MESSAGES[:24]]

    def test_empty_batch_over_shm(self):
        assert run_many([], workers=2, transport="shm") == []

    def test_checkpoint_resume_over_shm(self, tmp_path):
        manifest = str(tmp_path / "shm-manifest.json")
        first = run_many_report(MESSAGES, workers=2, engine="reference",
                                transport="shm", checkpoint=manifest)
        assert first.digests == EXPECTED
        second = run_many_report(MESSAGES, workers=2, engine="reference",
                                 transport="shm", checkpoint=manifest)
        assert second.digests == EXPECTED
        assert second.stats.checkpoint_hits > 0

    def test_run_leaves_no_leased_segments(self):
        run_many(MESSAGES, workers=2, engine="reference", transport="shm")
        pool = shm.arena_pool()
        # The lease was released back to the free list: acquiring the
        # same size class must not create a new segment.
        before = pool.live_segments
        arena = pool.acquire(1024)
        assert pool.live_segments == before
        pool.release(arena)


@needs_shm
class TestCrashLifecycle:
    def test_sigkill_mid_chunk_retries_on_same_arena(self, tmp_path):
        """A worker dies holding an attachment; the span is retried on a
        fresh worker against the *same* segment and completes exactly."""
        flag = str(tmp_path / "crashed")
        pool = shm.arena_pool()
        sizes = [len(m) for m in MESSAGES]
        arena = pool.acquire(shm.required_size(sizes, 32))
        try:
            arena.pack(MESSAGES, 32)
            segment = arena.name

            def payload(start, stop):
                return (flag, segment, start, stop)

            def collect(start, stop, _ack):
                return arena.read_digests(start, stop)

            report = run_spans_report(
                "test.shm_crash_once", len(MESSAGES), workers=2,
                payload=payload, collect=collect,
                spans=[(0, 48), (48, 96)])
        finally:
            pool.release(arena)
        assert os.path.exists(flag)  # the first attempt really died
        assert report.ok
        assert report.stats.crashes >= 1
        assert report.results == EXPECTED

    def test_no_segment_or_tracker_leaks_after_sigkill(self, tmp_path):
        """End-to-end leak check in a fresh interpreter: SIGKILL a worker
        mid-chunk, finish the batch, shut down — the child must exit
        clean with zero resource_tracker warnings and zero segments
        left in /dev/shm."""
        flag = tmp_path / "crashed"
        script = textwrap.dedent(f"""
            import hashlib, os, signal
            from repro.parallel_exec import (register_task_kind,
                                             run_spans_report)
            from repro.parallel_exec import shm

            def crash_once(payload):
                flag, segment, start, stop = payload
                arena = shm.attach_arena(segment)
                if not os.path.exists(flag):
                    with open(flag, "w"):
                        pass
                    os.kill(os.getpid(), signal.SIGKILL)
                digests = [hashlib.sha3_256(m).digest()
                           for m in arena.read_messages(start, stop)]
                arena.write_digests(start, digests)
                return (start, stop)

            register_task_kind("leaktest.crash", crash_once)
            messages = [bytes([n % 251]) * (50 + n % 100)
                        for n in range(64)]
            pool = shm.arena_pool()
            arena = pool.acquire(
                shm.required_size([len(m) for m in messages], 32))
            arena.pack(messages, 32)
            name = arena.name
            report = run_spans_report(
                "leaktest.crash", len(messages), workers=2,
                payload=lambda s, e: ({str(flag)!r}, name, s, e),
                collect=lambda s, e, ack: arena.read_digests(s, e),
                spans=[(0, 32), (32, 64)])
            assert report.ok and report.stats.crashes >= 1
            assert report.results == [hashlib.sha3_256(m).digest()
                                      for m in messages]
            pool.release(arena)
            shm.close_all()
            assert pool.live_segments == 0
            print("LEAKTEST-OK")
        """)
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(shm.__file__))))
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        before = set(glob.glob("/dev/shm/repro_shm_*"))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "LEAKTEST-OK" in proc.stdout
        assert "resource_tracker" not in proc.stderr, proc.stderr
        assert "leaked" not in proc.stderr, proc.stderr
        leaked = set(glob.glob("/dev/shm/repro_shm_*")) - before
        assert not leaked, f"segments left behind: {sorted(leaked)}"

    def test_forked_child_exit_keeps_the_parents_segments(self):
        """A child made by ``os.fork()`` inherits the arena pool; its
        normal exit must not unlink the parent's live segments, and the
        parent's next shm run must still hash correctly."""
        script = textwrap.dedent("""
            import glob, hashlib, os, sys
            from repro.parallel_exec import shm
            from repro.programs import run_many

            messages = [bytes([n % 251]) * (13 + n % 89)
                        for n in range(96)]
            expected = [hashlib.sha3_256(m).digest() for m in messages]
            assert run_many(messages, workers=2, engine="reference",
                            transport="shm") == expected
            pattern = f"/dev/shm/repro_shm_{os.getpid()}_*"
            segments = sorted(glob.glob(pattern))
            assert segments, "the shm run left no pooled segment"
            pid = os.fork()
            if pid == 0:
                sys.exit(0)
            _, status = os.waitpid(pid, 0)
            assert os.waitstatus_to_exitcode(status) == 0
            assert sorted(glob.glob(pattern)) == segments, \\
                "the child's exit unlinked the parent's segments"
            assert run_many(messages, workers=2, engine="reference",
                            transport="shm") == expected
            shm.close_all()
            assert not glob.glob(pattern)
            print("FORKTEST-OK")
        """)
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(shm.__file__))))
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "FORKTEST-OK" in proc.stdout
