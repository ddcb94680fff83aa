"""The one dispatch core every caller of the worker pool runs on.

Work-stealing batch spans and the serving executor's lock-step groups
all reach a :class:`~repro.parallel_exec.pool.WorkerPool`
through :func:`drive`.  Every work unit is a ``(start, stop)`` span on a
:class:`SpanDeque`; what differs between callers is data, not control
flow — a :class:`~repro.parallel_exec.hardening.RetryPolicy` (retries,
backoff, breaker, quarantine, heartbeats) and three :class:`Hooks`.

* A **task exception** raises :class:`TaskError` at once unless the
  policy sets ``retry_task_errors``; then the span is retried.
* A **worker crash** or a **timeout** kills and replaces the worker
  and retries its span after the policy's backoff delay.
* A span that failed on ``quarantine_threshold`` *distinct* workers, or
  used up ``max_retries`` extra attempts, goes to ``give_up``.
* A worker that fails ``breaker_threshold`` spans in a row trips its
  **circuit breaker** and is retired gracefully though alive.  The
  ledger lives on the pool, so a persistent pool counts across runs.
* With ``heartbeat_interval`` set, an idle worker silent past
  ``heartbeat_timeout`` is declared wedged and replaced.

One span is in flight per worker, so a timeout clock starts at
dispatch.  Every dispatch gets an id unique for the pool's lifetime, a
report counts only when it comes from the worker the span went to, and
a span leaves the in-flight table exactly once.  So a late report — from
a replaced worker, or left on the queue by an earlier run of a
persistent pool — is dropped, never delivered twice or to the wrong
span.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..observability import metrics as _metrics
from .hardening import PoolStats, QuarantineLog, RetryPolicy
from .pool import (
    METRICS_CHUNK_INDEX,
    PING_CHUNK_INDEX,
    WorkerPool,
    _TASK_KINDS,
)
from .results import (
    ChunkTimeoutError,
    ParallelExecError,
    TaskError,
    WorkerCrashError,
)

#: How long one poll of the result queue blocks while work is in
#: flight; bounds how stale a timeout, crash or heartbeat check can be.
POLL_INTERVAL = 0.02

#: How long the end-of-run metrics collection waits for workers to
#: answer (a wedged worker must not hang a run for observability).
_METRICS_COLLECT_TIMEOUT = 5.0

_STEALS = _metrics.registry().counter(
    "pool_steal_total",
    "Spans split because idle workers outnumbered remaining spans")

#: One work unit: the half-open item range ``[start, stop)``.
Span = Tuple[int, int]

#: What ``Hooks.payload`` returns: task kind, task payload, and the
#: dispatch timeout in seconds (None: no timeout).
Task = Tuple[str, Any, Optional[float]]


class SpanDeque:
    """The parent-owned deque of undispatched spans, with steal-half.

    Dispatch normally pops the leftmost span (keeping items roughly in
    order, which keeps checkpoint manifests compact).  When idle workers
    outnumber the remaining spans — the tail of a ragged batch — the
    *largest* remaining span is split in half on a lane-group boundary:
    the caller gets the left half, the right half stays stealable.  One
    straggler span therefore keeps getting halved until every worker is
    busy or spans reach one lane group.
    """

    def __init__(self, spans: Sequence[Span], lane_width: int = 1) -> None:
        self._spans = deque(spans)
        self.lane_width = max(1, lane_width)
        self.steals = 0

    def __len__(self) -> int:
        return len(self._spans)

    def take(self, idle_workers: int = 1) -> Optional[Span]:
        """The next span to dispatch, splitting under scarcity."""
        if not self._spans:
            return None
        if len(self._spans) >= max(1, idle_workers):
            return self._spans.popleft()
        index = max(range(len(self._spans)),
                    key=lambda i: self._spans[i][1] - self._spans[i][0])
        start, stop = self._spans[index]
        lanes = -(-(stop - start) // self.lane_width)
        if lanes <= 1:  # one lane group cannot split further
            del self._spans[index]
            return (start, stop)
        mid = start + (lanes // 2) * self.lane_width
        self._spans[index] = (mid, stop)
        self.steals += 1
        if _metrics.ARMED:
            _STEALS.inc()
        return (start, mid)


@dataclass(frozen=True)
class Hooks:
    """How one caller turns spans into tasks and results into values."""

    #: ``payload(span)`` -> ``(kind, payload, timeout)``, or None when
    #: the span needs no dispatch (serve sheds an expired group here).
    #: Called again for every retry.
    payload: Callable[[Span], Optional[Task]]
    #: ``deliver(span, result, worker_id, seconds, attempts)`` stores a
    #: span's result; ``worker_id`` and ``seconds`` (dispatch to result)
    #: are None when the span ran in this process.
    deliver: Callable[[Span, Any, Optional[int], Optional[float], int],
                      None]
    #: ``give_up(span, error)``: the span is poisoned or exhausted.
    #: Raise ``error`` to abort the run, or return to resolve the span
    #: without a result.
    give_up: Callable[[Span, ParallelExecError], None]


def drive(pool: Optional[WorkerPool], work: SpanDeque, policy: RetryPolicy,
          hooks: Hooks, stats: PoolStats, quarantine: QuarantineLog) -> None:
    """Run every span of ``work`` on ``pool``, or in this process if None.

    Returns once every span was delivered or given up; ``stats`` and
    ``quarantine`` record what happened on the way.
    """
    if pool is None:
        _run_inline(work, hooks, stats, quarantine)
    else:
        _run_pooled(pool, work, policy, hooks, stats, quarantine)
    stats.steals += work.steals
    stats.chunks += work.steals  # every split adds one span to the run


def _run_inline(work: SpanDeque, hooks: Hooks, stats: PoolStats,
                quarantine: QuarantineLog) -> None:
    """The serial path: same hooks, no pool.

    Retrying in the same process cannot change a deterministic task's
    outcome, so a failing span is given up at once.
    """
    for span in iter(work.take, None):
        task = hooks.payload(span)
        if task is None:
            continue
        kind, payload, _ = task
        try:
            result = _TASK_KINDS[kind](payload)
        except Exception as exc:
            stats.task_failures += 1
            message = f"{type(exc).__name__}: {exc}"
            quarantine.force(span, 0, message)
            error = TaskError(span, message)
            error.__cause__ = exc
            hooks.give_up(span, error)
            continue
        stats.completed += 1
        hooks.deliver(span, result, None, None, 1)


def _run_pooled(pool: WorkerPool, work: SpanDeque, policy: RetryPolicy,
                hooks: Hooks, stats: PoolStats,
                quarantine: QuarantineLog) -> None:
    rng = policy.make_rng()
    ledger = pool.ledger
    ledger.threshold = policy.breaker_threshold
    #: dispatch id -> (span, attempts, timeout) of every span on a worker.
    in_flight: Dict[int, Tuple[Span, int, Optional[float]]] = {}
    #: (ready_at, span, attempts) awaiting re-dispatch; ready_at
    #: implements the backoff delay between attempts.
    retries: List[Tuple[float, Span, int]] = []

    def next_task(idle: int) -> Optional[Tuple[Span, int, Task]]:
        """The next span to dispatch (retries first), with its task."""
        now = time.monotonic()
        while True:
            ready = [entry for entry in retries if entry[0] <= now]
            if ready:
                entry = min(ready)
                retries.remove(entry)
                _, span, attempts = entry
            else:
                span = work.take(idle)
                if span is None:
                    return None
                attempts = 1
            task = hooks.payload(span)
            if task is not None:
                return span, attempts, task

    def fail(span: Span, attempts: int, worker_id: int, reason: str,
             error: ParallelExecError, now: float) -> None:
        """One failed attempt: requeue the span or give it up."""
        poisoned = quarantine.record(span, worker_id, reason)
        if poisoned or attempts > policy.max_retries:
            quarantine.force(span)
            hooks.give_up(span, error)
            return
        delay = policy.delay(attempts + 1, rng)
        stats.retries += 1
        stats.backoff_seconds += delay
        retries.append((now + delay, span, attempts + 1))

    while work or retries or in_flight:
        for worker in list(pool.workers.values()):
            if not worker.busy and not worker.alive:
                # Died between spans (e.g. OOM-killed while idle):
                # replace it so the pool keeps its size.
                stats.crashes += 1
                pool.replace(worker)

        idle = pool.idle_workers()
        for slot, worker in enumerate(idle):
            picked = next_task(len(idle) - slot)
            if picked is None:
                break
            span, attempts, (kind, payload, timeout) = picked
            sid = pool.next_dispatch_id()
            in_flight[sid] = (span, attempts, timeout)
            worker.dispatch(sid, kind, payload, attempts, timeout)

        if policy.heartbeat_interval is not None:
            _heartbeat(pool, policy, stats, time.monotonic())

        message = pool.poll_result(POLL_INTERVAL)
        if message is not None:
            worker_id, sid, ok, result = message
            now = time.monotonic()
            worker = pool.workers.get(worker_id)
            if worker is not None:
                worker.heard_from(now)
            if sid == PING_CHUNK_INDEX:
                stats.pongs_received += 1
            elif sid == METRICS_CHUNK_INDEX:
                if ok:
                    _metrics.registry().merge(result)
            elif worker is not None and worker.task is not None \
                    and worker.task[0] == sid:
                # Only the worker holding dispatch ``sid`` answers it.
                seconds = now - worker.dispatched_at
                worker.finish()
                span, attempts, _ = in_flight.pop(sid)
                if ok:
                    ledger.record_success(worker_id)
                    stats.completed += 1
                    hooks.deliver(span, result, worker_id, seconds,
                                  attempts)
                    continue
                # A task exception, reported by a surviving worker.
                stats.task_failures += 1
                error = TaskError(span, result)
                if not policy.retry_task_errors:
                    raise error
                if ledger.record_failure(worker_id):
                    # Breaker trip: the worker is alive and idle (we just
                    # took its report), so retire it gracefully — a
                    # SIGKILL here can catch its queue feeder thread
                    # still holding the shared result queue's write lock
                    # and deadlock every other worker's put().
                    stats.workers_retired += 1
                    pool.replace(worker, graceful=True)
                fail(span, attempts, worker_id, result, error, now)
            # Anything else is a late report: from a replaced worker
            # whose span was already requeued or given up, or from a
            # worker this span was never dispatched to.
            continue

        now = time.monotonic()
        for worker in pool.busy_workers():
            crashed = not worker.alive
            if not crashed and not worker.timed_out(now):
                continue
            span, attempts, timeout = in_flight.pop(worker.task[0])
            if crashed:
                stats.crashes += 1
                reason = "worker crashed"
                error = WorkerCrashError(span, attempts)
            else:
                stats.timeouts += 1
                reason = f"timed out after {timeout:g}s"
                error = ChunkTimeoutError(span, timeout, attempts)
            worker_id = worker.worker_id
            pool.replace(worker)
            fail(span, attempts, worker_id, reason, error, now)


def _heartbeat(pool: WorkerPool, policy: RetryPolicy, stats: PoolStats,
               now: float) -> None:
    """Ping idle workers; replace any that stay silent too long.

    Busy workers are intentionally exempt: their liveness is covered by
    the crash check and the timeout, and a ping would sit behind the
    running span in the task queue anyway.
    """
    for worker in list(pool.workers.values()):
        if worker.busy or not worker.alive:
            continue
        if worker.ping_sent is not None:
            if now - worker.ping_sent > policy.heartbeat_timeout:
                # Graceful first: if the silence was a false positive
                # the sentinel lets it exit cleanly instead of risking
                # a kill mid-write on the shared result queue.
                stats.workers_retired += 1
                pool.replace(worker, graceful=True)
        elif now - worker.last_seen >= policy.heartbeat_interval:
            worker.send_ping(now)
            stats.pings_sent += 1


def collect_worker_metrics(pool: WorkerPool) -> bool:
    """Merge every idle worker's metrics snapshot into the parent.

    Callers run this once a run (or a persistent pool) is finished,
    never per dispatch.  Workers reset their registry at startup and
    after every snapshot, so each snapshot is a pure per-worker delta
    and the commutative merge rules make the parent totals independent
    of arrival order.  A worker that does not answer within
    :data:`_METRICS_COLLECT_TIMEOUT` just drops its snapshot; the return
    value says whether every snapshot arrived.
    """
    expected = 0
    for worker in pool.workers.values():
        if worker.alive and not worker.busy:
            worker.request_metrics()
            expected += 1
    registry = _metrics.registry()
    deadline = time.monotonic() + _METRICS_COLLECT_TIMEOUT
    while expected > 0 and time.monotonic() < deadline:
        message = pool.poll_result(POLL_INTERVAL)
        if message is None:
            continue
        _, index, ok, payload = message
        if index == METRICS_CHUNK_INDEX and ok:
            registry.merge(payload)
            expected -= 1
    return expected == 0
