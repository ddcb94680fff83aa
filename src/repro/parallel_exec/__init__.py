"""Process-parallel batch execution for the simulator.

The simulator is pure Python, so one process is pinned to one core by the
GIL; production-scale batch hashing (the ROADMAP north star) needs the
other cores.  This package shards large work lists across a pool of
persistent worker processes:

* :mod:`~repro.parallel_exec.pool` — worker lifecycle, task-kind
  registry, per-worker task queues, shared result queue, heartbeat
  pings.
* :mod:`~repro.parallel_exec.dispatch` — the one dispatch core every
  pool caller runs on: one span in flight per worker, crash/timeout
  retry with exponential backoff + jitter, per-worker circuit breaker,
  poisoned-span quarantine, task errors fail fast by default.
* :mod:`~repro.parallel_exec.scheduler` — the batch front ends over
  that core: fixed chunks, and cost-planned work-stealing spans.
* :mod:`~repro.parallel_exec.hardening` — the :class:`RetryPolicy`
  knobs, quarantine log and pool statistics backing the above.
* :mod:`~repro.parallel_exec.checkpoint` — JSON manifest
  checkpoint/resume so a killed batch run continues where it stopped.
* :mod:`~repro.parallel_exec.results` — deterministic reassembly in
  submission order, and the structured error taxonomy
  (:class:`ParallelExecError` and subclasses).

Workers are *persistent*: each keeps its warm
:class:`~repro.programs.session.Session` (predecoded programs and fused
superblocks survive across chunks), so the per-chunk cost is the
simulation itself, not setup.  The high-level front ends live in
:func:`repro.run_many` and ``batch_sha3_256(..., workers=N)``.
"""

from .checkpoint import (
    BatchCheckpoint,
    ManifestVersionError,
    SpanCheckpoint,
    chunk_fingerprint,
)
from .dispatch import Hooks, SpanDeque, drive
from .hardening import (
    PoolStats,
    QuarantinedChunk,
    QuarantineLog,
    RetryPolicy,
)
from .pool import WorkerPool, default_worker_count, register_task_kind
from .results import (
    ChunkQuarantinedError,
    ChunkTimeoutError,
    ParallelExecError,
    SpanAssembler,
    TaskError,
    WorkerCrashError,
)
from .scheduler import (
    ChunkRunReport,
    ChunkView,
    SpanRunReport,
    chunked,
    plan_spans,
    run_chunked,
    run_chunks,
    run_chunks_report,
    run_spans_report,
)
from .shm import ArenaPool, ShmArena, arena_pool, choose_transport

__all__ = [
    "WorkerPool",
    "default_worker_count",
    "register_task_kind",
    "drive",
    "Hooks",
    "SpanAssembler",
    "ParallelExecError",
    "TaskError",
    "WorkerCrashError",
    "ChunkTimeoutError",
    "ChunkQuarantinedError",
    "RetryPolicy",
    "PoolStats",
    "QuarantineLog",
    "QuarantinedChunk",
    "BatchCheckpoint",
    "ManifestVersionError",
    "SpanCheckpoint",
    "chunk_fingerprint",
    "ChunkRunReport",
    "ChunkView",
    "SpanDeque",
    "SpanRunReport",
    "chunked",
    "plan_spans",
    "run_chunked",
    "run_chunks",
    "run_chunks_report",
    "run_spans_report",
    "ArenaPool",
    "ShmArena",
    "arena_pool",
    "choose_transport",
]
