"""The batch front end of the dispatch core: cost-planned item spans.

Every batch caller — :func:`repro.run_many`, ``repro explore`` and any
registered task kind — cuts its items into spans with :func:`plan_spans`
and runs them through :func:`run_spans_report`, which hands them to
:func:`~repro.parallel_exec.dispatch.drive`, the owner of every
recovery rule.  Idle workers steal halves of the largest remaining span
(:class:`~repro.parallel_exec.dispatch.SpanDeque`), so the tail of a
ragged batch self-balances.

The scheduler never touches item payloads; the transport is a hook
pair.  ``payload(start, stop)`` builds the task one span dispatches —
the item slice itself for the pickle transport, or a small descriptor
naming the range in a shared-memory arena
(:mod:`repro.parallel_exec.shm`) — and ``collect(start, stop, result)``
turns the worker's reply into per-item values.  Results land in a
:class:`~repro.parallel_exec.results.SpanAssembler`, which restores
submission order regardless of completion order, and are checkpointed
as they land when a manifest path is given.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence

from ..observability import metrics as _metrics
from ..observability import timeline as _timeline
from .checkpoint import BatchCheckpoint
from .dispatch import (
    Hooks,
    Span,
    SpanDeque,
    collect_worker_metrics,
    drive,
)
from .hardening import (
    PoolStats,
    QuarantineLog,
    QuarantinedChunk,
    RetryPolicy,
)
from .pool import (
    WorkerPool,
    _TASK_KINDS,
    lease_shared_pool,
    return_shared_pool,
)
from .results import ChunkQuarantinedError, SpanAssembler

# Parent-side pool metrics.  Chunk latency is dispatch → result as the
# scheduler sees it; pool_events_total mirrors PoolStats so one armed
# run lands retries/quarantines/heartbeats in the shared registry.
_CHUNK_LATENCY = _metrics.registry().histogram(
    "pool_chunk_latency_seconds",
    "Chunk latency from dispatch to result (parent view)",
    ("kind", "transport"))
_POOL_EVENTS = _metrics.registry().counter(
    "pool_events_total", "Pool lifecycle events, mirroring PoolStats",
    ("event",))


def plan_spans(sizes: Sequence[int], workers: int, *,
               lane_width: int = 1,
               base_cost: int = 4096,
               spans_per_worker: int = 4,
               max_items: Optional[int] = None) -> List[Span]:
    """Cut ``len(sizes)`` items into cost-balanced initial spans.

    Each item's cost is estimated as ``base_cost + sizes[i]`` (a fixed
    per-message overhead plus its payload bytes); spans aim for
    ``workers * spans_per_worker`` roughly equal cost shares, and a span
    ends early only on a multiple of ``lane_width`` items, so it
    dispatches whole lock-step lane groups (the SoA engine's
    ``soa_width()`` batch, or SN states for per-call engines).
    ``max_items`` caps every span's item count; the cap wins over lane
    alignment.
    """
    total = len(sizes)
    if total == 0:
        return []
    if lane_width < 1:
        raise ValueError(f"lane width must be positive: {lane_width}")
    target_cost = (sum(sizes) + base_cost * total) \
        / max(1, workers * spans_per_worker)
    spans: List[Span] = []
    start = 0
    acc = 0
    for i, size in enumerate(sizes):
        acc += base_cost + size
        count = i + 1 - start
        if count == max_items or (acc >= target_cost and (
                count % lane_width == 0 or i + 1 == total)):
            spans.append((start, i + 1))
            start = i + 1
            acc = 0
    if start < total:
        spans.append((start, total))
    return spans


@dataclass
class SpanRunReport:
    """Everything one span-scheduled run produced, failures included."""

    #: Per-*item* results in submission order; None where the covering
    #: span was quarantined.
    results: List[Optional[Any]]
    #: Quarantine records whose ``chunk_index`` is the span tuple.
    quarantined: List[QuarantinedChunk] = field(default_factory=list)
    stats: PoolStats = field(default_factory=PoolStats)

    @property
    def ok(self) -> bool:
        return not self.quarantined

    def flat(self) -> List[Any]:
        """All item results; raises if any span was quarantined."""
        if self.quarantined:
            raise ChunkQuarantinedError(
                [q.chunk_index for q in self.quarantined])
        return list(self.results)

    def summary(self) -> str:
        lines = [self.stats.summary()]
        if self.quarantined:
            lines.append(f"{len(self.quarantined)} chunk(s) quarantined:")
            lines.extend(f"  {q}" for q in self.quarantined)
        else:
            lines.append("no chunks quarantined")
        return "\n".join(lines)


def run_spans_report(kind: str, total: int, *,
                     workers: int,
                     payload: Callable[[int, int], Any],
                     collect: Callable[[int, int, Any], List[Any]],
                     spans: Sequence[Span],
                     lane_width: int = 1,
                     timeout: Optional[float] = None,
                     max_retries: int = 2,
                     policy: Optional[RetryPolicy] = None,
                     checkpoint: Optional[str] = None,
                     fingerprint: str = "",
                     transport: str = "shm") -> SpanRunReport:
    """Run ``total`` items as work-stealing spans through task ``kind``.

    ``payload(start, stop)`` builds the task a worker receives for one
    span and ``collect(start, stop, result)`` turns its reply into the
    span's per-item values.  ``workers=1`` runs every span in this
    process (no multiprocessing, no IPC) — the serial reference the
    pooled path is tested against; pooled runs lease the process-wide
    shared pool.  Task errors raise unless ``policy`` retries them;
    crashes and timeouts are retried up to ``max_retries`` extra
    attempts (or per ``policy``), and a span that exhausts them raises
    or, with ``policy.quarantine``, resolves to None items plus a
    :class:`~repro.parallel_exec.hardening.QuarantinedChunk` record.
    ``checkpoint`` names a span-keyed manifest that completed spans are
    recorded in; ``fingerprint`` guards a resume against a different
    batch.  ``transport`` only labels metrics and timeline spans.
    """
    if kind not in _TASK_KINDS:
        raise KeyError(f"unknown task kind: {kind!r}")
    if policy is None:
        # Legacy-compatible policy: no backoff, fail fast, and never let
        # the quarantine threshold cut a caller's retry budget short.
        policy = RetryPolicy(max_retries=max_retries,
                             quarantine_threshold=max(3, max_retries + 1))
    spans = list(spans)
    stats = PoolStats(chunks=len(spans))
    if total == 0:
        return SpanRunReport(results=[], stats=stats)

    assembler = SpanAssembler(total)
    manifest = None
    if checkpoint is not None:
        manifest = BatchCheckpoint(checkpoint)
        for start, stop, values in manifest.begin(kind, fingerprint, total):
            if assembler.add(start, stop, values):
                stats.checkpoint_hits += 1
                stats.completed += 1
        if stats.checkpoint_hits:
            # Dispatch only what is left of each planned span; stealing
            # still re-splits these as workers go idle.
            spans = [run for span in spans
                     for run in assembler.uncovered_runs(*span)]
            stats.chunks = stats.checkpoint_hits + len(spans)

    quarantine = QuarantineLog(policy.quarantine_threshold)
    labeled_lanes: set = set()

    def deliver(span: Span, result: Any, worker_id: Optional[int],
                seconds: Optional[float], attempts: int) -> None:
        if seconds is not None:
            if _metrics.ARMED:
                _CHUNK_LATENCY.observe(seconds, kind=kind,
                                       transport=transport)
            tl = _timeline.ACTIVE
            if tl is not None:
                tid = 1 + worker_id
                if tid not in labeled_lanes:
                    labeled_lanes.add(tid)
                    tl.label_lane(tid, f"worker {worker_id}")
                tl.complete(f"span {span[0]}:{span[1]}", tl.now() - seconds,
                            seconds, tid=tid,
                            args={"kind": kind, "transport": transport,
                                  "attempts": attempts})
        values = collect(*span, result)
        assembler.add(*span, values)
        if manifest is not None:
            manifest.record(*span, values)

    def give_up(span: Span, error: Exception) -> None:
        if not policy.quarantine:
            raise error
        assembler.add_failed(*span)

    hooks = Hooks(payload=lambda span: (kind, payload(*span), timeout),
                  deliver=deliver, give_up=give_up)
    work = SpanDeque(spans, lane_width)
    if workers <= 1:
        drive(None, work, policy, hooks, stats, quarantine)
    elif work:
        # Only a clean run hands the shared pool on to the next one.  Any
        # fault, raise or interrupt shuts it down, so recovery state
        # (ledger, worker ids, requeues) never outlives the run that
        # produced it.
        pool = lease_shared_pool(workers)
        shared = pool is not None
        if not shared:
            # Another thread is running on the shared pool: this run
            # forks a private one.
            pool = WorkerPool(workers, follow_armed=True)
        keep = False
        try:
            drive(pool, work, policy, hooks, stats, quarantine)
            answered = not _metrics.ARMED or collect_worker_metrics(pool)
            keep = answered and stats.clean
        finally:
            if shared:
                return_shared_pool(keep)
            else:
                pool.shutdown()
    if _metrics.ARMED:
        for event, value in vars(stats).items():
            if value:
                _POOL_EVENTS.inc(value, event=event)
    return SpanRunReport(results=assembler.values(),
                         quarantined=quarantine.quarantined(), stats=stats)
