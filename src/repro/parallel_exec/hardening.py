"""Pool-hardening policy objects: backoff, breakers, quarantine, health.

The scheduler's original recovery story was binary — retry a crashed
chunk up to ``max_retries`` times, abort on anything else.  This module
holds the pieces that turn it into a production-shaped failure model:

* :class:`RetryPolicy` — *how* to retry: exponential backoff with
  jitter between re-dispatches, whether deterministic task errors are
  retried at all, and when to stop trying.
* circuit breaking (:class:`WorkerLedger`, one per
  :class:`~repro.parallel_exec.pool.WorkerPool`) — a worker that fails
  ``K`` chunks *consecutively* is retired and respawned even if its
  process is still alive; one success resets the count.
* :class:`QuarantineLog` — a chunk that fails on ``N`` distinct workers
  is *poisoned*: the input, not the worker, is the problem.  Quarantined
  chunks are reported (with every failure reason) instead of being
  retried forever or taking the whole batch down.
* :class:`PoolStats` — counters for everything the scheduler did, so a
  run can be audited after the fact (`repro batch --quarantine-report`).

All of this is plain bookkeeping: the dispatch core
(:mod:`~repro.parallel_exec.dispatch`) drives it, the policy never
touches processes itself.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

#: Work-unit key in quarantine records: a chunk index (the chunk
#: scheduler) or a ``(start, stop)`` item span (the work-stealing span
#: scheduler).  Both are hashable and sortable within one run.
WorkKey = Union[int, Tuple[int, int]]


@dataclass(frozen=True)
class RetryPolicy:
    """Retry/recovery policy for one chunked run.

    The default policy reproduces the seed scheduler's behaviour (no
    backoff, task errors fail fast, failures raise).  ``hardened()``
    returns the recommended production shape.
    """

    #: Extra attempts per chunk after the first (crash/timeout, and task
    #: errors when ``retry_task_errors`` is set).
    max_retries: int = 2
    #: First re-dispatch delay in seconds; 0 disables backoff entirely.
    backoff_base: float = 0.0
    #: Multiplier applied per additional attempt.
    backoff_factor: float = 2.0
    #: Cap on the un-jittered delay.
    backoff_max: float = 2.0
    #: Up to this *fraction* of the delay is added uniformly at random,
    #: decorrelating retry storms across chunks.
    jitter: float = 0.5
    #: Retry task exceptions on another worker instead of failing fast.
    #: Off by default: deterministic tasks fail deterministically.
    retry_task_errors: bool = False
    #: Circuit breaker: retire a worker after this many *consecutive*
    #: failures attributed to it.
    breaker_threshold: int = 3
    #: Quarantine a chunk once this many *distinct* workers failed on it.
    quarantine_threshold: int = 3
    #: Report quarantined/exhausted chunks instead of raising; the run
    #: completes and the report names every poisoned chunk.
    quarantine: bool = False
    #: Ping idle workers this often (seconds); None disables heartbeats.
    heartbeat_interval: Optional[float] = None
    #: An idle worker that has not answered a ping for this long is
    #: declared wedged and replaced.
    heartbeat_timeout: float = 10.0
    #: Seed for the jitter RNG (None draws from the global RNG).
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0: {self.max_retries}")
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise ValueError("backoff delays cannot be negative")
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1: {self.backoff_factor}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1]: {self.jitter}")
        if self.breaker_threshold < 1:
            raise ValueError(
                f"breaker_threshold must be >= 1: {self.breaker_threshold}")
        if self.quarantine_threshold < 1:
            raise ValueError(
                f"quarantine_threshold must be >= 1: "
                f"{self.quarantine_threshold}")
        if self.heartbeat_interval is not None \
                and self.heartbeat_interval <= 0:
            raise ValueError(
                f"heartbeat_interval must be positive: "
                f"{self.heartbeat_interval}")

    @classmethod
    def hardened(cls, **overrides) -> "RetryPolicy":
        """The recommended production policy: backoff, retries with
        quarantine, and idle-worker heartbeats."""
        defaults = dict(max_retries=3, backoff_base=0.05,
                        retry_task_errors=True, quarantine=True,
                        heartbeat_interval=0.5, heartbeat_timeout=10.0)
        defaults.update(overrides)
        return cls(**defaults)

    def delay(self, attempt: int, rng: random.Random) -> float:
        """Backoff before re-dispatching attempt ``attempt`` (2, 3, ...)."""
        if self.backoff_base <= 0:
            return 0.0
        exponent = max(0, attempt - 2)
        base = min(self.backoff_max,
                   self.backoff_base * self.backoff_factor ** exponent)
        return base * (1.0 + self.jitter * rng.random())

    def make_rng(self) -> random.Random:
        return random.Random(self.seed)


@dataclass(frozen=True)
class QuarantinedChunk:
    """One poisoned work unit: where it failed and why, per attempt.

    ``chunk_index`` is the unit's key — an ``int`` chunk index for the
    chunk scheduler, a ``(start, stop)`` span for the span scheduler.
    """

    chunk_index: WorkKey
    #: Worker ids that failed on this chunk, in failure order.
    workers: Tuple[int, ...]
    #: One reason string per recorded failure, aligned with ``workers``.
    reasons: Tuple[str, ...]

    def __str__(self) -> str:
        return (f"chunk {self.chunk_index}: failed on "
                f"{len(set(self.workers))} worker(s) "
                f"[{', '.join(map(str, self.workers))}] — "
                f"{'; '.join(self.reasons)}")


class QuarantineLog:
    """Tracks per-chunk failures across distinct workers.

    :meth:`record` returns True exactly when the chunk crosses the
    distinct-worker threshold (the moment it becomes quarantined);
    :meth:`force` quarantines regardless (retries exhausted).
    """

    def __init__(self, threshold: int) -> None:
        self.threshold = threshold
        self._failures: Dict[WorkKey, List[Tuple[int, str]]] = {}
        self._quarantined: List[WorkKey] = []

    def record(self, chunk_index: WorkKey, worker_id: int,
               reason: str) -> bool:
        failures = self._failures.setdefault(chunk_index, [])
        failures.append((worker_id, reason))
        distinct = len({w for w, _ in failures})
        if distinct >= self.threshold \
                and chunk_index not in self._quarantined:
            self._quarantined.append(chunk_index)
            return True
        return False

    def force(self, chunk_index: WorkKey, worker_id: Optional[int] = None,
              reason: Optional[str] = None) -> None:
        """Quarantine unconditionally (e.g. retries exhausted); pass a
        worker/reason pair to log one more failure while doing so."""
        failures = self._failures.setdefault(chunk_index, [])
        if reason is not None:
            failures.append((worker_id if worker_id is not None else -1,
                             reason))
        if chunk_index not in self._quarantined:
            self._quarantined.append(chunk_index)

    @property
    def quarantined_indices(self) -> List[WorkKey]:
        return sorted(self._quarantined)

    def quarantined(self) -> List[QuarantinedChunk]:
        out = []
        for index in self.quarantined_indices:
            failures = self._failures[index]
            out.append(QuarantinedChunk(
                chunk_index=index,
                workers=tuple(w for w, _ in failures),
                reasons=tuple(r for _, r in failures),
            ))
        return out

    def summary(self) -> str:
        chunks = self.quarantined()
        if not chunks:
            return "quarantine: no chunks quarantined"
        lines = [f"quarantine: {len(chunks)} chunk(s) quarantined"]
        lines.extend(f"  {chunk}" for chunk in chunks)
        return "\n".join(lines)


class WorkerLedger:
    """Circuit breaker: consecutive-failure counts per live worker."""

    def __init__(self, threshold: int) -> None:
        self.threshold = threshold
        self._consecutive: Dict[int, int] = {}

    def record_success(self, worker_id: int) -> None:
        self._consecutive[worker_id] = 0

    def record_failure(self, worker_id: int) -> bool:
        """Count one failure; True when the breaker trips (retire it)."""
        count = self._consecutive.get(worker_id, 0) + 1
        self._consecutive[worker_id] = count
        return count >= self.threshold

    def forget(self, worker_id: int) -> None:
        """The worker was replaced; its lineage's count dies with it."""
        self._consecutive.pop(worker_id, None)


@dataclass
class PoolStats:
    """What one chunked run actually did, for post-hoc auditing."""

    chunks: int = 0
    completed: int = 0
    retries: int = 0
    task_failures: int = 0
    crashes: int = 0
    timeouts: int = 0
    workers_retired: int = 0
    pings_sent: int = 0
    pongs_received: int = 0
    checkpoint_hits: int = 0
    backoff_seconds: float = 0.0
    #: Spans split in half because idle workers outnumbered remaining
    #: spans (work-stealing runs only; always 0 on the chunk scheduler).
    steals: int = 0

    def summary(self) -> str:
        return (f"{self.completed}/{self.chunks} chunk(s) completed "
                f"({self.checkpoint_hits} from checkpoint), "
                f"{self.retries} retrie(s), {self.crashes} crash(es), "
                f"{self.timeouts} timeout(s), "
                f"{self.task_failures} task failure(s), "
                f"{self.workers_retired} worker(s) retired, "
                f"{self.steals} span steal(s), "
                f"{self.pongs_received}/{self.pings_sent} "
                f"heartbeat(s) answered")
