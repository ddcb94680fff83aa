"""Checkpoint/resume: manifest round-trips, fingerprint guards, and a
real kill-and-resume of a batch run.

The kill test launches ``repro batch --resume`` in its own process
group, SIGKILLs the whole group once the manifest shows progress, and
then resumes in-process — the resumed digests must be byte-identical to
``hashlib`` in the original message order, with at least one chunk
served from the manifest instead of recomputed.
"""

import hashlib
import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.parallel_exec import (
    BatchCheckpoint,
    ManifestVersionError,
    chunk_fingerprint,
    register_task_kind,
    run_chunks,
    run_chunks_report,
    run_spans_report,
)
from repro.parallel_exec.checkpoint import SpanCheckpoint
from repro.programs import run_many, run_many_report


def _triple(payload):
    return [3 * item for item in payload]


def _span_pids(payload):
    start, stop = payload
    return [os.getpid()] * (stop - start)


register_task_kind("test.cp_triple", _triple)
register_task_kind("test.cp_span_pids", _span_pids)


class TestManifest:
    def test_begin_creates_and_resume_returns_completed(self, tmp_path):
        path = str(tmp_path / "manifest.json")
        chunks = [[1, 2], [3]]
        manifest = BatchCheckpoint(path)
        assert manifest.begin("test.cp_triple", chunks) == {}
        manifest.record(1, [b"\x00\xff", 9])

        resumed = BatchCheckpoint(path)
        completed = resumed.begin("test.cp_triple", chunks)
        assert completed == {1: [b"\x00\xff", 9]}  # bytes survive exactly

    def test_fingerprint_mismatch_starts_fresh(self, tmp_path):
        path = str(tmp_path / "manifest.json")
        manifest = BatchCheckpoint(path)
        manifest.begin("test.cp_triple", [[1, 2]])
        manifest.record(0, [3, 6])

        other = BatchCheckpoint(path)
        assert other.begin("test.cp_triple", [[9, 9]]) == {}
        # ... and the stale completion was dropped from disk.
        fresh = BatchCheckpoint(path)
        assert fresh.begin("test.cp_triple", [[9, 9]]) == {}

    def test_kind_mismatch_starts_fresh(self, tmp_path):
        path = str(tmp_path / "manifest.json")
        manifest = BatchCheckpoint(path)
        manifest.begin("test.cp_triple", [[1]])
        manifest.record(0, [3])
        assert BatchCheckpoint(path).begin("other.kind", [[1]]) == {}

    def test_corrupt_manifest_starts_fresh(self, tmp_path):
        path = str(tmp_path / "manifest.json")
        with open(path, "w") as handle:
            handle.write("{ torn write")
        assert BatchCheckpoint(path).begin("test.cp_triple", [[1]]) == {}

    def test_record_before_begin_rejected(self, tmp_path):
        with pytest.raises(RuntimeError, match="begin"):
            BatchCheckpoint(str(tmp_path / "m.json")).record(0, [])

    def test_fingerprint_is_content_sensitive(self):
        assert chunk_fingerprint([1, 2]) != chunk_fingerprint([2, 1])
        assert chunk_fingerprint([1, 2]) == chunk_fingerprint([1, 2])


class TestManifestVersion:
    """Version mismatches refuse to run rather than discard real work."""

    def test_span_manifest_rejected_by_chunk_run(self, tmp_path):
        path = str(tmp_path / "manifest.json")
        spans = SpanCheckpoint(path)
        spans.begin("test.cp_triple", "fp", 4)
        spans.record(0, 2, [3, 6])

        with pytest.raises(ManifestVersionError) as excinfo:
            BatchCheckpoint(path).begin("test.cp_triple", [[1, 2]])
        message = str(excinfo.value)
        assert "span-keyed" in message
        assert "\n" not in message  # one-line CLI diagnostic

    def test_chunk_manifest_rejected_by_span_run(self, tmp_path):
        path = str(tmp_path / "manifest.json")
        BatchCheckpoint(path).begin("test.cp_triple", [[1, 2]])
        with pytest.raises(ManifestVersionError, match="chunk-keyed"):
            SpanCheckpoint(path).begin("test.cp_triple", "fp", 4)

    def test_unknown_future_version_rejected(self, tmp_path):
        path = str(tmp_path / "manifest.json")
        with open(path, "w") as handle:
            json.dump({"version": 99, "kind": "test.cp_triple"}, handle)
        with pytest.raises(ManifestVersionError, match="version 99"):
            BatchCheckpoint(path).begin("test.cp_triple", [[1]])

    def test_mismatch_leaves_manifest_untouched(self, tmp_path):
        path = str(tmp_path / "manifest.json")
        spans = SpanCheckpoint(path)
        spans.begin("test.cp_triple", "fp", 4)
        spans.record(0, 2, [3, 6])
        with open(path) as handle:
            before = handle.read()

        with pytest.raises(ManifestVersionError):
            BatchCheckpoint(path).begin("test.cp_triple", [[1]])
        with open(path) as handle:
            assert handle.read() == before  # completed work preserved

    def test_versionless_manifest_still_starts_fresh(self, tmp_path):
        # Pre-versioning garbage has no int version field: keep the old
        # lenient behavior instead of inventing an incompatibility.
        path = str(tmp_path / "manifest.json")
        with open(path, "w") as handle:
            json.dump({"kind": "test.cp_triple"}, handle)
        assert BatchCheckpoint(path).begin("test.cp_triple", [[1]]) == {}


class TestSchedulerCheckpointing:
    def test_serial_run_records_and_resumes(self, tmp_path):
        path = str(tmp_path / "manifest.json")
        chunks = [[1], [2], [3]]
        assert run_chunks("test.cp_triple", chunks, workers=1,
                          checkpoint=path) == [3, 6, 9]
        with open(path) as handle:
            saved = json.load(handle)
        assert len(saved["completed"]) == 3

        report = run_chunks_report("test.cp_triple", chunks, workers=1,
                                   checkpoint=path)
        assert report.flat() == [3, 6, 9]
        assert report.stats.checkpoint_hits == 3  # nothing recomputed

    def test_parallel_resume_skips_completed_chunks(self, tmp_path):
        path = str(tmp_path / "manifest.json")
        chunks = [[i] for i in range(6)]
        manifest = BatchCheckpoint(path)
        manifest.begin("test.cp_triple", chunks)
        manifest.record(0, [999])  # pretend chunk 0 already finished

        report = run_chunks_report("test.cp_triple", chunks, workers=2,
                                   checkpoint=path)
        # The checkpointed (deliberately wrong) value is trusted, which
        # proves chunk 0 was not re-executed.
        assert report.flat() == [999, 3, 6, 9, 12, 15]
        assert report.stats.checkpoint_hits == 1

    def test_resumed_span_gap_spreads_over_every_worker(self, tmp_path):
        # A resume replans the one contiguous gap as a single span; the
        # pool must still get both workers so stealing can split it.
        path = str(tmp_path / "manifest.json")
        manifest = SpanCheckpoint(path)
        manifest.begin("test.cp_span_pids", "fp", 64)
        manifest.record(0, 32, [0] * 32)

        report = run_spans_report(
            "test.cp_span_pids", 64, workers=2,
            payload=lambda start, stop: (start, stop),
            collect=lambda start, stop, pids: pids,
            spans=[(0, 32), (32, 64)], checkpoint=path, fingerprint="fp",
            transport="pickle")
        assert report.stats.checkpoint_hits == 1
        assert report.results[:32] == [0] * 32  # served, not recomputed
        assert report.stats.steals >= 1
        assert len(set(report.results[32:])) == 2

    def test_run_many_checkpoint_round_trip(self, tmp_path):
        path = str(tmp_path / "manifest.json")
        messages = [bytes([i]) * 25 for i in range(10)]
        expected = [hashlib.sha3_256(m).digest() for m in messages]
        assert run_many(messages, workers=1, chunk_size=3,
                        checkpoint=path) == expected
        outcome = run_many_report(messages, workers=1, chunk_size=3,
                                  checkpoint=path)
        assert outcome.digests == expected
        assert outcome.stats.checkpoint_hits == 4


class TestKillAndResume:
    COUNT, SIZE, SEED, CHUNK = 96, 48, 11, 8

    def _batch_argv(self, manifest):
        return [sys.executable, "-m", "repro", "batch",
                "--count", str(self.COUNT), "--size", str(self.SIZE),
                "--seed", str(self.SEED), "--chunk-size", str(self.CHUNK),
                "--workers", "2", "--verify", "--resume", manifest]

    def test_killed_batch_resumes_byte_identical(self, tmp_path):
        manifest = str(tmp_path / "batch.json")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [os.path.join(os.path.dirname(__file__),
                                       "..", "..", "src"),
                          env.get("PYTHONPATH", "")]))
        child = subprocess.Popen(self._batch_argv(manifest), env=env,
                                 stdout=subprocess.DEVNULL,
                                 stderr=subprocess.DEVNULL,
                                 start_new_session=True)
        try:
            deadline = time.monotonic() + 60
            progressed = False
            while time.monotonic() < deadline:
                if child.poll() is not None:
                    break  # finished before we could kill it
                try:
                    with open(manifest) as handle:
                        saved = json.load(handle)
                    if len(saved.get("completed", {})) >= 2:
                        progressed = True
                        break
                except (OSError, json.JSONDecodeError):
                    pass  # not written yet / mid-replace
                time.sleep(0.01)
            if progressed:
                os.killpg(child.pid, signal.SIGKILL)
            child.wait(timeout=30)
        finally:
            if child.poll() is None:  # pragma: no cover - cleanup path
                os.killpg(child.pid, signal.SIGKILL)
                child.wait(timeout=30)

        with open(manifest) as handle:
            saved = json.load(handle)
        completed_before_resume = len(saved["completed"])
        assert completed_before_resume >= 1

        # Resume in-process with the identical batch (same seed/shape →
        # same chunk fingerprints as the CLI run).
        import random
        rng = random.Random(self.SEED)
        messages = [rng.randbytes(self.SIZE) for _ in range(self.COUNT)]
        outcome = run_many_report(messages, workers=2,
                                  chunk_size=self.CHUNK,
                                  checkpoint=manifest)
        assert outcome.ok
        assert outcome.stats.checkpoint_hits == completed_before_resume
        assert outcome.digests == [hashlib.sha3_256(m).digest()
                                   for m in messages]

    def test_sigterm_exits_130_and_leaves_resumable_manifest(
            self, tmp_path):
        # SIGTERM (systemd stop, ^C via the terminal) must not leave a
        # torn manifest or a traceback: exit 130, a one-line pointer at
        # --resume, and a manifest the next run can pick up.
        manifest = str(tmp_path / "batch.json")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [os.path.join(os.path.dirname(__file__),
                                       "..", "..", "src"),
                          env.get("PYTHONPATH", "")]))
        child = subprocess.Popen(self._batch_argv(manifest), env=env,
                                 stdout=subprocess.DEVNULL,
                                 stderr=subprocess.PIPE, text=True,
                                 start_new_session=True)
        interrupted = False
        try:
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if child.poll() is not None:
                    break  # finished before the signal could land
                try:
                    with open(manifest) as handle:
                        saved = json.load(handle)
                    if len(saved.get("completed", {})) >= 2:
                        os.kill(child.pid, signal.SIGTERM)
                        interrupted = True
                        break
                except (OSError, json.JSONDecodeError):
                    pass
                time.sleep(0.01)
            _, stderr = child.communicate(timeout=30)
        finally:
            if child.poll() is None:  # pragma: no cover - cleanup path
                os.killpg(child.pid, signal.SIGKILL)
                child.wait(timeout=30)
        if not interrupted:  # pragma: no cover - tiny-machine fallback
            pytest.skip("batch finished before SIGTERM could land")

        assert child.returncode == 130
        assert "interrupted" in stderr
        assert "--resume" in stderr
        assert "Traceback" not in stderr

        with open(manifest) as handle:
            saved = json.load(handle)  # consistent, not torn
        completed_before_resume = len(saved["completed"])
        assert completed_before_resume >= 2

        import random
        rng = random.Random(self.SEED)
        messages = [rng.randbytes(self.SIZE) for _ in range(self.COUNT)]
        outcome = run_many_report(messages, workers=2,
                                  chunk_size=self.CHUNK,
                                  checkpoint=manifest)
        assert outcome.ok
        assert outcome.stats.checkpoint_hits >= completed_before_resume
        assert outcome.digests == [hashlib.sha3_256(m).digest()
                                   for m in messages]
