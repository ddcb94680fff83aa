"""Batch executors: coalesced requests → lock-step simulator groups.

The daemon's batcher hands an executor one coalesced batch of
``(message, deadline)`` items per algorithm.  The executor owns the
step from *requests* to *multi-state simulator work*:

* Items are sorted by deadline and cut into lock-step groups of the
  engine's width (SN states for the cycle-accurate engines, the SoA
  batch width for ``soa``, a fixed group for whole-message engines) so
  the most urgent work dispatches first.
* **Deadlines propagate into dispatch**: a group whose items have all
  expired is shed before it reaches a worker, and already-expired
  items are dropped from a group at the moment it dispatches — a
  saturated pool therefore sheds exactly the work that can no longer
  meet its SLO instead of burning workers on it.
* Both executors run a batch through the pool's one dispatch core
  (:func:`~repro.parallel_exec.dispatch.drive`): in process, or on the
  :class:`PooledExecutor`'s *persistent* worker pool with many groups
  in flight.  Crashes, timeouts and task errors retry a group on
  another worker, and a worker that keeps failing is
  **rolling-restarted** instead of collapsing the pool.  Large batches
  ride the zero-copy shm arenas; small ones take the pickle queues.

Results are ``(outcome, digest)`` pairs aligned with the input items:
``("ok", digest)``, ``("deadline_exceeded", None)`` for shed work, or
``("error", None)`` when retries are exhausted.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

from ..observability import metrics as _metrics
from ..parallel_exec import shm as _shm
from ..parallel_exec.dispatch import (
    POLL_INTERVAL,
    Hooks,
    Span,
    SpanDeque,
    collect_worker_metrics,
    drive,
)
from ..parallel_exec.hardening import PoolStats, QuarantineLog, RetryPolicy
from ..parallel_exec.pool import WorkerPool
from ..programs.batch_driver import (
    _HASH_SHM_TASK_KIND,
    _HASH_TASK_KIND,
    _TREE_ALGORITHMS,
    _cached_permutation,
    digest_size as _digest_size,
)
from ..sim import engines as _engines

#: Per-item outcomes (mirrored by the daemon's HTTP status mapping).
OK = "ok"
DEADLINE_EXCEEDED = "deadline_exceeded"
ERROR = "error"

#: One batch item: the message and its absolute monotonic deadline
#: (None = no deadline).
Item = Tuple[bytes, Optional[float]]

#: One per-item result: (outcome, digest-or-None).
ItemResult = Tuple[str, Optional[bytes]]

#: Lock-step group size for whole-message engines (``reference``): they
#: have no architectural width, so groups just amortize dispatch IPC.
_DIGEST_BATCH_GROUP = 32

_RESTARTS = _metrics.registry().counter(
    "serve_worker_restarts_total",
    "Pool workers replaced by the serving executor", ("reason",))
_SHED = _metrics.registry().counter(
    "serve_shed_items_total",
    "Items shed before dispatch because their deadline expired")


def _lane_width(arch: Tuple[int, int, int], engine: str,
                algorithm: str = "sha3_256") -> int:
    """The engine's lock-step group size for this architecture.

    Tree algorithms (``k12``, ``parallelhash128/256``) are whole-message
    work units — their leaf batching happens inside the worker — so
    their groups only amortize dispatch IPC, like digest-batch engines.
    """
    if algorithm in _TREE_ALGORITHMS:
        return _DIGEST_BATCH_GROUP
    spec = _engines.maybe_get(engine)
    if spec is not None and spec.digest_batch is not None:
        return _DIGEST_BATCH_GROUP
    return _cached_permutation(arch, engine).max_states


def _plan_groups(items: Sequence[Item], width: int) -> List[List[int]]:
    """Item indices cut into lock-step groups, most urgent first."""
    order = sorted(
        range(len(items)),
        key=lambda i: (items[i][1] is None,
                       items[i][1] if items[i][1] is not None else 0.0, i))
    return [order[k:k + width] for k in range(0, len(order), width)]


def _split_expired(items: Sequence[Item], group: Sequence[int],
                   now: float) -> Tuple[List[int], List[int]]:
    """Partition a group into (live, expired) at dispatch time."""
    live: List[int] = []
    expired: List[int] = []
    for index in group:
        deadline = items[index][1]
        (expired if deadline is not None and deadline <= now
         else live).append(index)
    return live, expired


class _GroupExecutor:
    """Runs one coalesced batch through the dispatch core.

    Positions are deadline order, so each lock-step group is one
    contiguous lane-width span of positions that never splits, and the
    shm arena packs the messages in that order.  The hooks shed expired
    items at every dispatch, cap a group's timeout at its latest
    deadline, and error a group out of attempts for its items alone.
    """

    restarts = 0
    #: No pool: :func:`drive` runs every group in this process, where a
    #: failing group errors at once (a retry could not change it).
    _pool: Optional[WorkerPool] = None
    _policy = RetryPolicy()
    group_timeout = float("inf")

    def __init__(self, engine: str = "auto",
                 arch: Tuple[int, int, int] = (64, 8, 30)) -> None:
        self.engine = _engines.validate(engine)
        self.arch = tuple(arch)
        self.workers = 0
        _lane_width(self.arch, self.engine)  # warm the permutation cache

    def _run_batch(self, algorithm: str, length: int,
                   items: Sequence[Item], mode: str) -> List[ItemResult]:
        width = _lane_width(self.arch, self.engine, algorithm)
        order = [index for group in _plan_groups(items, width)
                 for index in group]
        spans = [(start, min(start + width, len(order)))
                 for start in range(0, len(order), width)]
        arena = None
        if mode == "shm":
            digest_size = _digest_size(algorithm, length)
            sizes = [len(items[i][0]) for i in order]
            arena = _shm.arena_pool().acquire(
                _shm.required_size(sizes, digest_size))
            arena.pack([items[i][0] for i in order], digest_size)
        results: List[Optional[ItemResult]] = [None] * len(items)
        #: span -> the item indices its latest dispatch carried.
        live_of: Dict[Span, List[int]] = {}

        def payload(span: Span):
            now = time.monotonic()
            live, expired = _split_expired(
                items, [i for i in order[span[0]:span[1]]
                        if results[i] is None], now)
            for index in expired:
                results[index] = (DEADLINE_EXCEEDED, None)
            if expired and _metrics.ARMED:
                _SHED.inc(len(expired))
            if not live:
                return None  # fully shed before reaching a worker
            live_of[span] = live
            deadlines = [items[i][1] for i in live
                         if items[i][1] is not None]
            timeout = self.group_timeout
            if deadlines:
                timeout = min(timeout, max(deadlines) - now)
            timeout = max(timeout, POLL_INTERVAL)
            if arena is not None:
                return (_HASH_SHM_TASK_KIND,
                        (arena.name, span[0], span[1], algorithm, length,
                         self.arch, self.engine), timeout)
            # Pickle transport dispatches only the still-live messages.
            return (_HASH_TASK_KIND,
                    (algorithm, length, self.arch,
                     [items[i][0] for i in live], self.engine), timeout)

        def deliver(span: Span, result, *_) -> None:
            live = live_of[span]
            digests = result
            if arena is not None:
                by_index = dict(zip(order[span[0]:span[1]],
                                    arena.read_digests(*span)))
                digests = [by_index[i] for i in live]
            for index, digest in zip(live, digests):
                results[index] = (OK, digest)

        def give_up(span: Span, _error) -> None:
            for index in live_of[span]:
                results[index] = (ERROR, None)

        stats = PoolStats()
        try:
            drive(self._pool, SpanDeque(spans, width), self._policy,
                  Hooks(payload, deliver, give_up), stats,
                  QuarantineLog(self._policy.quarantine_threshold))
        finally:
            if arena is not None:
                _shm.arena_pool().release(arena)
            self._count_restarts(crashed=stats.crashes,
                                 timeout=stats.timeouts,
                                 breaker=stats.workers_retired)
        return [r if r is not None else (ERROR, None) for r in results]

    def _count_restarts(self, **replaced_by_reason: int) -> None:
        for reason, replaced in replaced_by_reason.items():
            if replaced:
                self.restarts += replaced
                if _metrics.ARMED:
                    _RESTARTS.inc(replaced, reason=reason)


class InlineExecutor(_GroupExecutor):
    """Serial in-process execution: the same groups and hooks as the
    pooled executor with no pool — the right choice for single-core
    deployments."""

    def hash_batch(self, algorithm: str, length: int,
                   items: Sequence[Item]) -> List[ItemResult]:
        return self._run_batch(algorithm, length, items, "pickle")

    def restart_workers(self, reason: str = "rolling") -> int:
        return 0

    def close(self) -> None:
        pass


class PooledExecutor(_GroupExecutor):
    """Batch execution over a *persistent* worker pool.

    Unlike :func:`repro.run_many` (which builds a pool per call), the
    serving executor keeps its workers alive across batches — warm
    Sessions, predecoded programs and compiled kernels survive — and
    recovers in place: crashes/timeouts retry on another worker,
    breaker trips rolling-restart the offending worker, and
    :meth:`restart_workers` cycles the whole pool one worker at a time
    without dropping a batch (the batch lock serializes with it).
    """

    def __init__(self, workers: int, engine: str = "auto",
                 arch: Tuple[int, int, int] = (64, 8, 30),
                 max_retries: int = 2,
                 breaker_threshold: int = 3,
                 group_timeout: float = 30.0,
                 transport: str = "auto") -> None:
        if workers < 1:
            raise ValueError(f"need at least one worker: {workers}")
        if transport not in ("auto", "shm", "pickle"):
            raise ValueError(f"unknown transport: {transport!r}")
        super().__init__(engine, arch)
        self.workers = workers
        self.max_retries = max_retries
        self.group_timeout = group_timeout
        self.transport = transport
        # Task errors are retried (a group is many requests, not one
        # deterministic input); no backoff, no heartbeat, and a group
        # only ever ends in an error once its attempts are used up.
        self._policy = RetryPolicy(max_retries=max_retries,
                                   retry_task_errors=True,
                                   breaker_threshold=breaker_threshold,
                                   quarantine_threshold=max_retries + 1)
        # Pre-compile in the parent so forked workers warm-start from
        # the shared on-disk kernel cache (same as run_many's parents).
        spec = _engines.maybe_get(self.engine)
        if spec is None or spec.digest_batch is None:
            _cached_permutation(self.arch, self.engine).precompile()
        self._lock = threading.Lock()
        self._pool: Optional[WorkerPool] = WorkerPool(workers)

    # -- lifecycle -----------------------------------------------------------

    def restart_workers(self, reason: str = "rolling") -> int:
        """Gracefully replace every worker, one at a time.

        Serialized against :meth:`hash_batch`, so a restart never races
        a dispatch loop; each replacement drains the worker via the
        sentinel before a fresh one takes its slot (pool size is
        constant throughout — no collapse window).
        """
        with self._lock:
            if self._pool is None:
                return 0
            replaced = self._pool.rolling_restart()
            self._count_restarts(**{reason: replaced})
            return replaced

    def close(self) -> None:
        with self._lock:
            if self._pool is None:
                return
            if _metrics.ARMED:
                collect_worker_metrics(self._pool)
            self._pool.shutdown()
            self._pool = None

    # -- batch execution -----------------------------------------------------

    def hash_batch(self, algorithm: str, length: int,
                   items: Sequence[Item]) -> List[ItemResult]:
        with self._lock:
            if self._pool is None:
                raise RuntimeError("executor is closed")
            mode = _shm.choose_transport(
                self.transport, sum(len(message) for message, _ in items),
                self.workers)
            return self._run_batch(algorithm, length, items, mode)
