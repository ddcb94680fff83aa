"""The multiprocessing worker pool: process lifecycle and task transport.

Each worker is a long-lived child process with its *own* task queue (so
the scheduler always knows which chunk a worker holds, and a kill only
ever loses that one chunk) and a result queue shared by the pool.  Tasks
are named *kinds* resolved through a registry: the parent registers a
callable under a string key, the child inherits the registry through
``fork`` (or re-imports it via the module import on other start methods),
and the queue only ever carries ``(chunk_index, kind, payload)`` — never
code objects.

Workers deliberately hold mutable per-process caches (the batch-hashing
task keeps a warm :class:`~repro.programs.session.Session` per
architecture), which is the whole point of a persistent pool: predecode
and superblock construction happen once per process, not once per chunk.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from typing import Any, Callable, Dict, Optional, Tuple

from ..observability import metrics as _metrics
from .hardening import RetryPolicy, WorkerLedger

#: kind -> callable(payload) -> list of results.  Populated at import
#: time by task-owning modules (and by tests before they start a pool).
_TASK_KINDS: Dict[str, Callable[[Any], Any]] = {}

#: Reserved task kind for worker health checks: the worker answers
#: immediately with ``_PONG`` instead of consulting the registry.
#: Heartbeat messages use this chunk index, which no real chunk can have.
PING_TASK_KIND = "parallel_exec.ping"
PING_CHUNK_INDEX = -1
_PONG = "pong"

#: Reserved task kind for metrics collection: the worker answers with a
#: snapshot of its (process-local) metrics registry, which the scheduler
#: merges into the parent's.  Same transport pattern as the ping.
METRICS_TASK_KIND = "parallel_exec.metrics"
METRICS_CHUNK_INDEX = -2

# Worker-side instrumentation (coarse: once per task, never inside a
# task).  Labeled per worker so merged parent totals stay attributable.
_QUEUE_WAIT = _metrics.registry().histogram(
    "pool_worker_queue_wait_seconds",
    "Time a worker sat idle waiting for its next task", ("worker",))
_TASK_SECONDS = _metrics.registry().histogram(
    "pool_worker_task_seconds",
    "Worker-side task execution time", ("worker", "kind"))


def register_task_kind(kind: str, fn: Callable[[Any], Any]) -> None:
    """Register ``fn`` to run in workers for tasks named ``kind``.

    Registration must happen at import time (or before the pool starts):
    forked workers inherit the registry as of the fork.
    """
    _TASK_KINDS[kind] = fn


def _mp_context():
    """Prefer ``fork``: it inherits the task registry and warm caches."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


def _worker_main(worker_id: int, task_queue, result_queue) -> None:
    """Worker loop: run tasks until the ``None`` sentinel arrives.

    Results are ``(worker_id, chunk_index, ok, payload)``; a task
    exception is reported (not raised) so the worker survives for the
    next chunk — the scheduler decides whether to abort the run.

    The metrics registry (inherited populated through ``fork``) is reset
    on entry so a later :data:`METRICS_TASK_KIND` snapshot contains only
    *this worker's* activity — the parent merges pure deltas and never
    double-counts its own series.
    """
    _metrics.registry().reset()
    try:
        _worker_loop(worker_id, task_queue, result_queue)
    finally:
        # Close any shared-memory arenas this worker attached for the
        # zero-copy transport.  The parent owns (and unlinks) the
        # segments; this just drops the worker's mappings on clean exit.
        from . import shm as _shm

        _shm.detach_all()


def _worker_loop(worker_id: int, task_queue, result_queue) -> None:
    while True:
        if _metrics.ARMED:
            idle_from = time.monotonic()
            item = task_queue.get()
            _QUEUE_WAIT.observe(time.monotonic() - idle_from,
                                worker=worker_id)
        else:
            item = task_queue.get()
        if item is None:
            return
        chunk_index, kind, payload = item
        if kind == PING_TASK_KIND:
            result_queue.put((worker_id, PING_CHUNK_INDEX, True, _PONG))
            continue
        if kind == METRICS_TASK_KIND:
            result_queue.put((worker_id, METRICS_CHUNK_INDEX, True,
                              _metrics.registry().snapshot()))
            continue
        try:
            fn = _TASK_KINDS[kind]
            if _metrics.ARMED:
                started = time.monotonic()
                result = fn(payload)
                _TASK_SECONDS.observe(time.monotonic() - started,
                                      worker=worker_id, kind=kind)
            else:
                result = fn(payload)
        except BaseException as exc:  # noqa: BLE001 - reported, not raised
            result_queue.put(
                (worker_id, chunk_index, False,
                 f"{type(exc).__name__}: {exc}")
            )
        else:
            result_queue.put((worker_id, chunk_index, True, result))


class _Worker:
    """One pool slot: a process, its private task queue, and its task."""

    def __init__(self, worker_id: int, ctx, result_queue) -> None:
        self.worker_id = worker_id
        self.task_queue = ctx.Queue()
        self.process = ctx.Process(
            target=_worker_main,
            args=(worker_id, self.task_queue, result_queue),
            daemon=True,
        )
        self.process.start()
        #: (chunk_index, kind, payload, attempts) currently dispatched.
        self.task: Optional[Tuple[int, str, Any, int]] = None
        self.deadline: Optional[float] = None
        #: When the current task was dispatched (chunk-latency metrics
        #: and timeline spans measure dispatch → result).
        self.dispatched_at: Optional[float] = None
        #: Last time this worker was heard from (spawn counts as a sign
        #: of life); feeds the scheduler's heartbeat checks.
        self.last_seen = time.monotonic()
        #: When the outstanding ping was sent, or None.
        self.ping_sent: Optional[float] = None

    @property
    def busy(self) -> bool:
        return self.task is not None

    @property
    def alive(self) -> bool:
        return self.process.is_alive()

    def dispatch(self, chunk_index: int, kind: str, payload: Any,
                 attempts: int, timeout: Optional[float]) -> None:
        self.task = (chunk_index, kind, payload, attempts)
        self.deadline = (time.monotonic() + timeout) if timeout else None
        self.dispatched_at = time.monotonic()
        self.task_queue.put((chunk_index, kind, payload))

    def finish(self) -> None:
        self.task = None
        self.deadline = None
        self.dispatched_at = None

    def timed_out(self, now: float) -> bool:
        return self.deadline is not None and now > self.deadline

    def send_ping(self, now: float) -> None:
        """Queue a heartbeat; the worker answers when it drains to it."""
        self.ping_sent = now
        self.task_queue.put((PING_CHUNK_INDEX, PING_TASK_KIND, None))

    def request_metrics(self) -> None:
        """Queue a metrics-snapshot request (answered like a ping)."""
        self.task_queue.put((METRICS_CHUNK_INDEX, METRICS_TASK_KIND, None))

    def heard_from(self, now: float) -> None:
        self.last_seen = now
        self.ping_sent = None

    def kill(self) -> None:
        if self.process.is_alive():
            self.process.kill()
        self.process.join(timeout=5.0)
        self.task_queue.close()

    def stop(self) -> None:
        """Graceful shutdown: sentinel, short join, then force."""
        if self.process.is_alive():
            try:
                self.task_queue.put(None)
            except (OSError, ValueError):  # pragma: no cover - closed queue
                pass
            self.process.join(timeout=2.0)
        self.kill()


class WorkerPool:
    """A fixed-size pool of persistent workers with crash recovery."""

    def __init__(self, num_workers: int) -> None:
        if num_workers < 1:
            raise ValueError(f"need at least one worker: {num_workers}")
        self._ctx = _mp_context()
        self.result_queue = self._ctx.Queue()
        self._next_id = 0
        self.workers: Dict[int, _Worker] = {}
        #: Consecutive failures per worker, behind the circuit breaker.
        #: They live with the pool, so a persistent pool keeps counting
        #: across runs; each run's policy sets the trip threshold.
        self.ledger = WorkerLedger(RetryPolicy.breaker_threshold)
        for _ in range(num_workers):
            self._spawn()

    def _spawn(self) -> _Worker:
        worker = _Worker(self._next_id, self._ctx, self.result_queue)
        self.workers[self._next_id] = worker
        self._next_id += 1
        return worker

    def idle_workers(self):
        return [w for w in self.workers.values() if not w.busy and w.alive]

    def busy_workers(self):
        return [w for w in self.workers.values() if w.busy]

    def replace(self, worker: _Worker,
                graceful: bool = False) -> Tuple[Optional[Tuple], "_Worker"]:
        """Retire ``worker``, spawn a fresh one; returns its lost task.

        ``graceful`` retires via the sentinel + join instead of SIGKILL.
        This matters because the result queue's write lock is shared
        across processes: killing a worker in the instant between its
        result write and the lock release would leave the lock held
        forever and deadlock every other worker's ``put``.  Use graceful
        for workers that are alive and idle (circuit breaker); a kill is
        only for workers that are already dead or provably stuck.
        """
        task = worker.task
        if graceful:
            worker.stop()
        else:
            worker.kill()
        del self.workers[worker.worker_id]
        self.ledger.forget(worker.worker_id)
        return task, self._spawn()

    def rolling_restart(self) -> int:
        """Gracefully replace every non-busy worker, one at a time.

        The pool never shrinks: each worker is drained via the sentinel
        and a fresh process takes its slot before the next one retires.
        Busy workers are skipped (their in-flight task would be lost);
        callers wanting a full cycle restart between batches.  Returns
        the number of workers replaced.
        """
        replaced = 0
        for worker in list(self.workers.values()):
            if worker.busy:
                continue
            self.replace(worker, graceful=True)
            replaced += 1
        return replaced

    def poll_result(self, timeout: float) -> Optional[Tuple]:
        """Next ``(worker_id, chunk_index, ok, payload)`` or None."""
        try:
            return self.result_queue.get(timeout=timeout)
        except Exception:  # queue.Empty (type depends on context)
            return None

    def shutdown(self, deadline: float = 10.0) -> None:
        """Stop every worker and release the queues, drain-then-close.

        The naive ordering — ``stop()`` each worker serially, then close
        the result queue — can stall for the whole per-worker join
        budget: a worker whose last result is still sitting in its
        feeder thread cannot exit until the parent *reads* the shared
        result queue, and with nobody draining, each ``stop()`` burns
        its join timeout and then SIGKILLs the worker mid-write (which
        can leave the queue's cross-process write lock held and wedge
        every other worker's put).  So: send every sentinel first, keep
        draining the result queue while workers flush and exit, and only
        force-kill whoever is still alive once ``deadline`` expires.
        """
        end = time.monotonic() + deadline
        for worker in self.workers.values():
            if worker.process.is_alive():
                try:
                    worker.task_queue.put(None)
                except (OSError, ValueError):  # pragma: no cover - closed
                    pass
        while (any(w.process.is_alive() for w in self.workers.values())
               and time.monotonic() < end):
            self.poll_result(0.05)
        for worker in self.workers.values():
            # Dead workers: join + close the task queue.  Survivors past
            # the deadline are provably stuck and eat the SIGKILL.
            worker.kill()
        self.workers.clear()
        self.result_queue.close()
        # Anything still buffered is intentionally dropped — the run is
        # over.  cancel_join_thread() keeps close from blocking behind a
        # feeder whose reader no longer exists.
        self.result_queue.cancel_join_thread()


def default_worker_count() -> int:
    """A sensible worker count for this machine (at least 1)."""
    return max(1, os.cpu_count() or 1)
