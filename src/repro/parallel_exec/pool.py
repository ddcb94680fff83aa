"""The multiprocessing worker pool: process lifecycle and task transport.

Each worker is a long-lived child process with its *own* task queue (so
the scheduler always knows which chunk a worker holds, and a kill only
ever loses that one chunk) and a result queue shared by the pool.  Tasks
are named *kinds* resolved through a registry: the parent registers a
callable under a string key, the child inherits the registry through
``fork`` (or re-imports it via the module import on other start methods),
and the queue only ever carries ``(dispatch_id, kind, payload, armed)``
— never code objects.  In a pool built with ``follow_armed``, ``armed``
is the parent's metrics flag at dispatch and the worker adopts it, so
arming needs no new fork; otherwise it is None and the worker keeps the
flag it was forked with.

Workers deliberately hold mutable per-process caches (the batch-hashing
task keeps a warm :class:`~repro.programs.session.Session` per
architecture, compiled SoA kernels and attached shared-memory arenas),
which is the whole point of a persistent pool: predecode and superblock
construction happen once per process, not once per chunk.

The batch front ends share one such pool for the life of the process
(:func:`lease_shared_pool`): it is forked on the first pooled run, kept
by every clean run and retired by any faulted one.  The serving daemon
builds a :class:`WorkerPool` of its own.
"""

from __future__ import annotations

import atexit
import multiprocessing
# Imported before the exit hook below is registered, so that hook runs
# first (atexit is LIFO): the shared pool drains before util's handler
# terminates whatever daemonic children are left.
import multiprocessing.util  # noqa: F401
from multiprocessing import process as _mp_process
import os
import threading
import time
from itertools import count
from typing import Any, Callable, Dict, Optional, Tuple

from ..observability import metrics as _metrics
from .hardening import RetryPolicy, WorkerLedger

#: kind -> callable(payload) -> list of results.  Populated at import
#: time by task-owning modules (and by tests before they start a pool).
_TASK_KINDS: Dict[str, Callable[[Any], Any]] = {}
#: Bumped by every registration: a pool forked at an older generation
#: lacks the newer kinds, so the shared pool is rebuilt.
_TASK_GENERATION = 0

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

    Forked workers inherit the registry as of the fork, so a
    registration retires the shared pool before its next run.
    """
    global _TASK_GENERATION
    _TASK_KINDS[kind] = fn
    _TASK_GENERATION += 1


def _mp_context():
    """Prefer ``fork``: it inherits the task registry and warm caches."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


def _inherited_fds(ctx, task_queue, result_queue) -> Dict[int, Tuple]:
    """The parent's open descriptors a worker about to fork should drop.

    Maps each descriptor to its ``(st_dev, st_ino)``, so the worker can
    tell a descriptor it inherited from one that reuses the number.
    Standard streams, the task queue's read end and the result queue's
    write end are what the worker uses and are left out; so is the
    process sentinel, which ``start()`` opens after this snapshot.
    Empty, so nothing is released, unless workers fork and both
    ``/proc/self/fd`` and the queues' ``_reader``/``_writer``
    connections (CPython's private attributes) exist.
    """
    if ctx.get_start_method() != "fork":
        return {}
    try:
        keep = {task_queue._reader.fileno(), result_queue._writer.fileno()}
        names = os.listdir("/proc/self/fd")
    except (AttributeError, OSError):  # pragma: no cover
        return {}
    fds = {}
    for fd in map(int, names):
        if fd > 2 and fd not in keep:
            try:
                stat = os.fstat(fd)
            except OSError:  # the listing's own descriptor, now closed
                continue
            fds[fd] = (stat.st_dev, stat.st_ino)
    return fds


def _release_fds(fds: Dict[int, Tuple]) -> None:
    """Point each inherited descriptor of ``fds`` at ``/dev/null``.

    A fork child holds every descriptor its parent had open, and a
    worker lives as long as its pool: a pipe whose write end it kept
    would never reach EOF, and a listening socket would stay bound.
    The numbers stay taken, so a finaliser of an inherited object that
    closes "its" descriptor can never close one the worker opened.
    """
    null = os.open(os.devnull, os.O_RDWR)
    try:
        for fd, ident in fds.items():
            try:
                stat = os.fstat(fd)
            except OSError:
                continue
            if fd != null and (stat.st_dev, stat.st_ino) == ident:
                os.dup2(null, fd)
    finally:
        os.close(null)


def _worker_main(worker_id: int, task_queue, result_queue,
                 inherited_fds: Dict[int, Tuple]) -> None:
    """Worker loop: run tasks until the ``None`` sentinel arrives.

    Results are ``(worker_id, dispatch_id, ok, payload)``; a task
    exception is reported (not raised) so the worker survives for the
    next chunk — the scheduler decides whether to abort the run.

    The metrics registry (inherited populated through ``fork``) is reset
    on entry, and again after every :data:`METRICS_TASK_KIND` snapshot,
    so each snapshot contains only *this worker's* activity since the
    last one — the parent merges pure deltas and never double-counts.
    Descriptors inherited from the parent are released first.
    """
    _release_fds(inherited_fds)
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
    # A snapshot ends a run; the wait after it is the gap between runs,
    # not a queue wait, so it goes unobserved.
    between_runs = False
    while True:
        if _metrics.ARMED and not between_runs:
            idle_from = time.monotonic()
            item = task_queue.get()
            _QUEUE_WAIT.observe(time.monotonic() - idle_from,
                                worker=worker_id)
        else:
            item = task_queue.get()
        between_runs = False
        if item is None:
            return
        dispatch_id, kind, payload, armed = item
        if armed is not None:
            if armed:
                _metrics.arm()
            else:
                _metrics.disarm()
        if kind == PING_TASK_KIND:
            result_queue.put((worker_id, PING_CHUNK_INDEX, True, _PONG))
            continue
        if kind == METRICS_TASK_KIND:
            result_queue.put((worker_id, METRICS_CHUNK_INDEX, True,
                              _metrics.registry().snapshot()))
            _metrics.registry().reset()
            between_runs = True
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
                (worker_id, dispatch_id, False,
                 f"{type(exc).__name__}: {exc}")
            )
        else:
            result_queue.put((worker_id, dispatch_id, True, result))


class _Worker:
    """One pool slot: a process, its private task queue, and its task."""

    def __init__(self, worker_id: int, ctx, result_queue,
                 follow_armed: bool) -> None:
        self.worker_id = worker_id
        self.follow_armed = follow_armed
        self.task_queue = ctx.Queue()
        self.process = ctx.Process(
            target=_worker_main,
            args=(worker_id, self.task_queue, result_queue,
                  _inherited_fds(ctx, self.task_queue, result_queue)),
            daemon=True,
        )
        self.process.start()
        #: (dispatch_id, kind, payload, attempts) currently dispatched.
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

    def dispatch(self, dispatch_id: int, kind: str, payload: Any,
                 attempts: int, timeout: Optional[float]) -> None:
        self.task = (dispatch_id, kind, payload, attempts)
        self.deadline = (time.monotonic() + timeout) if timeout else None
        self.dispatched_at = time.monotonic()
        self._send(dispatch_id, kind, payload)

    def _send(self, dispatch_id: int, kind: str, payload: Any) -> None:
        armed = _metrics.ARMED if self.follow_armed else None
        self.task_queue.put((dispatch_id, kind, payload, armed))

    def finish(self) -> None:
        self.task = None
        self.deadline = None
        self.dispatched_at = None

    def timed_out(self, now: float) -> bool:
        return self.deadline is not None and now > self.deadline

    def send_ping(self, now: float) -> None:
        """Queue a heartbeat; the worker answers when it drains to it."""
        self.ping_sent = now
        self._send(PING_CHUNK_INDEX, PING_TASK_KIND, None)

    def request_metrics(self) -> None:
        """Queue a metrics-snapshot request (answered like a ping)."""
        self._send(METRICS_CHUNK_INDEX, METRICS_TASK_KIND, None)

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
    """A fixed-size pool of persistent workers with crash recovery.

    With ``follow_armed`` every worker adopts the parent's metrics armed
    flag at each dispatch; without it a worker keeps the flag it was
    forked with.
    """

    def __init__(self, num_workers: int, follow_armed: bool = False) -> None:
        if num_workers < 1:
            raise ValueError(f"need at least one worker: {num_workers}")
        self.follow_armed = follow_armed
        self._ctx = _mp_context()
        self.result_queue = self._ctx.Queue()
        self._next_id = 0
        self._dispatch_ids = count()
        self.workers: Dict[int, _Worker] = {}
        #: Consecutive failures per worker, behind the circuit breaker.
        #: They live with the pool, so a persistent pool keeps counting
        #: across runs; each run's policy sets the trip threshold.
        self.ledger = WorkerLedger(RetryPolicy.breaker_threshold)
        for _ in range(num_workers):
            self._spawn()

    def _spawn(self) -> _Worker:
        worker = _Worker(self._next_id, self._ctx, self.result_queue,
                         self.follow_armed)
        self.workers[self._next_id] = worker
        self._next_id += 1
        return worker

    def next_dispatch_id(self) -> int:
        """An id no other dispatch of this pool's lifetime carries, so a
        report left over from an earlier run can never match a new one."""
        return next(self._dispatch_ids)

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
        """Next ``(worker_id, dispatch_id, ok, payload)`` or None."""
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


# -- the batch front ends' process-lifetime pool --------------------------------

_shared: Optional[WorkerPool] = None
#: What the shared pool was forked with — (workers, task-registry
#: generation, environment) — since its workers see only these as of
#: the fork.  A lease under another key rebuilds the pool.
_shared_key: Optional[Tuple] = None
#: Held for the length of one run on the shared pool.
_shared_lock = threading.Lock()


def lease_shared_pool(workers: int) -> Optional[WorkerPool]:
    """Lease the shared pool of ``workers`` workers for one run.

    Returns None when another thread holds the lease; that caller runs
    on a private pool instead.  A pool forked under another key is shut
    down before the new one starts, so at most one exists.  Every lease
    must end in :func:`return_shared_pool`.
    """
    global _shared, _shared_key
    if not _shared_lock.acquire(blocking=False):
        return None
    try:
        key = (workers, _TASK_GENERATION, dict(os.environ))
        if _shared is not None and _shared_key != key:
            shutdown_shared_pool()
        if _shared is None:
            _shared = WorkerPool(workers, follow_armed=True)
            _shared_key = key
    except BaseException:
        _shared_lock.release()
        raise
    return _shared


def return_shared_pool(keep: bool) -> None:
    """End a lease; ``keep=False`` (a faulted run) retires the pool."""
    try:
        if not keep:
            shutdown_shared_pool()
    finally:
        _shared_lock.release()


def shared_pool() -> Optional[WorkerPool]:
    """The live shared pool, or None."""
    return _shared


def shutdown_shared_pool() -> None:
    """Drain and close the shared pool, if one is live."""
    global _shared, _shared_key
    pool, _shared, _shared_key = _shared, None, None
    if pool is not None:
        pool.shutdown()


def _forget_shared_pool() -> None:
    """In a forked child the shared pool's workers are the parent's."""
    global _shared, _shared_key, _shared_lock
    # Otherwise multiprocessing's exit handler would take them for this
    # process's children and terminate them.  ``_children`` is CPython's
    # private set of a process's live children: if a later version
    # drops it, the fork test sees the parent's workers killed.
    children = getattr(_mp_process, "_children", None)
    if _shared is not None and isinstance(children, set):
        for worker in _shared.workers.values():
            children.discard(worker.process)
    _shared = _shared_key = None
    _shared_lock = threading.Lock()


atexit.register(shutdown_shared_pool)
os.register_at_fork(after_in_child=_forget_shared_pool)
