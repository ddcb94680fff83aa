"""Batch front ends of the dispatch core: chunk runs and span runs.

Both hand their work to :func:`~repro.parallel_exec.dispatch.drive`,
which owns every recovery rule, and differ only in how work is cut and
named.  :func:`run_chunks_report` runs pre-sliced chunks as 1-item spans
over chunk indices (never split, named by index, chunk-keyed
manifests); :func:`run_spans_report` runs cost-planned item spans that
idle workers steal halves of (named by ``(start, stop)``, span-keyed
manifests).  Results land in a
:class:`~repro.parallel_exec.results.SpanAssembler`, which restores
submission order regardless of completion order, and are checkpointed
as they land when a manifest path is given.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence

from ..observability import metrics as _metrics
from ..observability import timeline as _timeline
from .checkpoint import BatchCheckpoint, SpanCheckpoint
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
    WorkKey,
)
from .pool import WorkerPool, _TASK_KINDS
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


class ChunkView(Sequence):
    """A zero-copy view of one chunk: ``items[start:stop]`` by reference.

    ``chunked()`` used to materialize every chunk with
    ``list(items[i:i+n])``, duplicating the whole batch in the parent
    before a single byte was dispatched.  A view only holds indices into
    the original sequence.  It still *looks* like the list it replaces:
    equality, ``repr`` (checkpoint fingerprints hash ``repr(payload)``)
    and pickling (``__reduce__`` sends just the slice, so a queue never
    serializes the backing sequence) all match the eager list exactly.
    """

    __slots__ = ("_items", "_start", "_stop")

    def __init__(self, items: Sequence[Any], start: int, stop: int) -> None:
        self._items = items
        self._start = start
        self._stop = stop

    def __len__(self) -> int:
        return self._stop - self._start

    def __getitem__(self, index):
        if isinstance(index, slice):
            start, stop, step = index.indices(len(self))
            if step == 1:
                return ChunkView(self._items, self._start + start,
                                 self._start + stop)
            return [self._items[self._start + i]
                    for i in range(start, stop, step)]
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError(f"chunk index out of range: {index}")
        return self._items[self._start + index]

    def __iter__(self):
        for i in range(self._start, self._stop):
            yield self._items[i]

    def __eq__(self, other) -> bool:
        if isinstance(other, (list, tuple, ChunkView)):
            return len(self) == len(other) \
                and all(a == b for a, b in zip(self, other))
        return NotImplemented

    def __repr__(self) -> str:
        return repr(list(self))

    def __reduce__(self):
        # Pickle as the plain list of just this chunk's items — a naive
        # pickle of the view would drag the entire backing sequence
        # through the queue for every chunk.
        return (list, (list(self),))


def chunked(items: Sequence[Any], chunk_size: int) -> List[ChunkView]:
    """Split ``items`` into consecutive chunks of at most ``chunk_size``.

    Chunks are :class:`ChunkView` index ranges over ``items`` — no item
    is copied until a chunk crosses a process boundary (where pickling a
    view sends only that chunk's slice).
    """
    if chunk_size < 1:
        raise ValueError(f"chunk size must be positive: {chunk_size}")
    return [ChunkView(items, i, min(i + chunk_size, len(items)))
            for i in range(0, len(items), chunk_size)]


class _RunSummary:
    """``ok`` and ``summary()`` of a run report."""

    unit = "chunk"
    quarantined: List[QuarantinedChunk]
    stats: PoolStats

    @property
    def ok(self) -> bool:
        return not self.quarantined

    def summary(self) -> str:
        lines = [self.stats.summary()]
        if self.quarantined:
            lines.append(
                f"{len(self.quarantined)} {self.unit}(s) quarantined:")
            lines.extend(f"  {q}" for q in self.quarantined)
        else:
            lines.append(f"no {self.unit}s quarantined")
        return "\n".join(lines)


@dataclass
class ChunkRunReport(_RunSummary):
    """Everything one chunked run produced, including its failures."""

    #: Per-chunk results in submission order; None where quarantined.
    chunk_results: List[Optional[List[Any]]]
    quarantined: List[QuarantinedChunk] = field(default_factory=list)
    stats: PoolStats = field(default_factory=PoolStats)

    def flat(self) -> List[Any]:
        """All item results concatenated; raises if any chunk failed."""
        if self.quarantined:
            raise ChunkQuarantinedError(
                [q.chunk_index for q in self.quarantined])
        out: List[Any] = []
        for values in self.chunk_results:
            out.extend(values)  # type: ignore[arg-type]
        return out


def run_chunks(kind: str, chunks: Sequence[Any], *,
               workers: int,
               timeout: Optional[float] = None,
               max_retries: int = 2,
               policy: Optional[RetryPolicy] = None,
               checkpoint: Optional[str] = None) -> List[Any]:
    """Run every chunk payload through task ``kind``; flat ordered results.

    Each chunk's task must return a list; the returned list is the
    concatenation in chunk order.  ``workers=1`` runs everything in this
    process (no multiprocessing, no IPC) — the serial reference the
    parallel path is tested against.  Quarantined chunks (only possible
    with ``policy.quarantine``) raise :class:`ChunkQuarantinedError`
    here; use :func:`run_chunks_report` to get partial results instead.
    """
    report = run_chunks_report(kind, chunks, workers=workers,
                               timeout=timeout, max_retries=max_retries,
                               policy=policy, checkpoint=checkpoint)
    return report.flat()


def run_chunks_report(kind: str, chunks: Sequence[Any], *,
                      workers: int,
                      timeout: Optional[float] = None,
                      max_retries: int = 2,
                      policy: Optional[RetryPolicy] = None,
                      checkpoint: Optional[str] = None) -> ChunkRunReport:
    """Like :func:`run_chunks` but returns the full
    :class:`ChunkRunReport` (per-chunk results, quarantine log, pool
    stats) instead of a flat list."""
    policy = _checked_policy(kind, policy, max_retries)
    stats = PoolStats(chunks=len(chunks))
    if not chunks:
        return ChunkRunReport(chunk_results=[], stats=stats)

    # One assembler slot per chunk, holding that chunk's result list.
    assembler = SpanAssembler(len(chunks))
    record = None
    if checkpoint is not None:
        manifest = BatchCheckpoint(checkpoint)
        for index, values in manifest.begin(kind, chunks).items():
            assembler.add(index, index + 1, [values])
            stats.checkpoint_hits += 1
            stats.completed += 1

        def record(span: Span, values: List[Any]) -> None:
            manifest.record(span[0], values[0])

    work = SpanDeque([(i, i + 1) for i in range(len(chunks))
                      if not assembler.covered(i, i + 1)])
    quarantined = _run(kind, work, workers, timeout, policy, stats,
                       assembler,
                       task=lambda span: chunks[span[0]],
                       values=lambda span, result: [result],
                       record=record, key=lambda span: span[0],
                       transport="pickle")
    return ChunkRunReport(chunk_results=assembler.values(),
                          quarantined=quarantined, stats=stats)


def _checked_policy(kind: str, policy: Optional[RetryPolicy],
                    max_retries: int) -> RetryPolicy:
    if kind not in _TASK_KINDS:
        raise KeyError(f"unknown task kind: {kind!r}")
    if policy is None:
        # Legacy-compatible policy: no backoff, fail fast, and never let
        # the quarantine threshold cut a caller's retry budget short.
        policy = RetryPolicy(max_retries=max_retries,
                             quarantine_threshold=max(3, max_retries + 1))
    return policy


def _run(kind: str, work: SpanDeque, workers: int,
         timeout: Optional[float], policy: RetryPolicy, stats: PoolStats,
         assembler: SpanAssembler, *,
         task: Callable[[Span], Any],
         values: Callable[[Span, Any], List[Any]],
         record: Optional[Callable[[Span, List[Any]], None]],
         key: Callable[[Span], WorkKey],
         transport: str) -> List[QuarantinedChunk]:
    """Drive ``work`` in process or on a pool of its own; fill
    ``assembler`` and return the quarantined units."""
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
                unit = key(span)
                name = (f"chunk {unit}" if isinstance(unit, int)
                        else f"span {span[0]}:{span[1]}")
                tl.complete(name, tl.now() - seconds, seconds, tid=tid,
                            args={"kind": kind, "transport": transport,
                                  "attempts": attempts})
        span_values = values(span, result)
        assembler.add(*span, span_values)
        if record is not None:
            record(span, span_values)

    def give_up(span: Span, error: Exception) -> None:
        if not policy.quarantine:
            raise error
        assembler.add_failed(*span)

    hooks = Hooks(payload=lambda span: (kind, task(span), timeout),
                  deliver=deliver, give_up=give_up, key=key)
    if workers <= 1:
        drive(None, work, policy, hooks, stats, quarantine)
    elif work:
        # Size by the lane groups left, not by the planned spans: a
        # resumed run's one contiguous gap is one span, and stealing
        # splits it across every worker the pool has.
        pool = WorkerPool(min(workers, work.lane_groups()))
        try:
            drive(pool, work, policy, hooks, stats, quarantine)
            if _metrics.ARMED:
                collect_worker_metrics(pool)
        finally:
            pool.shutdown()
    if _metrics.ARMED:
        for event, value in vars(stats).items():
            if value:
                _POOL_EVENTS.inc(value, event=event)
    return quarantine.quarantined()


def run_chunked(kind: str, items: Sequence[Any], *,
                workers: int,
                chunk_size: int,
                timeout: Optional[float] = None,
                max_retries: int = 2,
                policy: Optional[RetryPolicy] = None,
                checkpoint: Optional[str] = None) -> List[Any]:
    """Chunk ``items`` and run them; results stay in item order."""
    return run_chunks(kind, chunked(items, chunk_size), workers=workers,
                      timeout=timeout, max_retries=max_retries,
                      policy=policy, checkpoint=checkpoint)


# -- adaptive spans + work stealing ------------------------------------------------
#
# Fixed chunks are cut before the first dispatch; on ragged batches the
# run then serializes behind whichever worker drew the most expensive
# chunk.  The span path plans *coarse* item ranges from a cost estimate
# and lets idle workers steal half of the largest remaining span
# (:class:`~repro.parallel_exec.dispatch.SpanDeque`), so the tail of a
# batch self-balances.  Spans carry no payload of their own — the
# zero-copy transport (repro.parallel_exec.shm) keeps the bytes in a
# shared-memory arena and a span names an item range inside it.


def plan_spans(sizes: Sequence[int], workers: int, *,
               lane_width: int = 1,
               base_cost: int = 4096,
               spans_per_worker: int = 4) -> List[Span]:
    """Cut ``len(sizes)`` items into cost-balanced initial spans.

    Each item's cost is estimated as ``base_cost + sizes[i]`` (a fixed
    per-message overhead plus its payload bytes); spans aim for
    ``workers * spans_per_worker`` roughly equal cost shares, and every
    boundary except the last lands on a multiple of ``lane_width`` so a
    span always dispatches whole lock-step lane groups (the SoA engine's
    ``soa_width()`` batch, or SN states for per-call engines).
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
        at_lane = (i + 1) % lane_width == 0
        if acc >= target_cost and (at_lane or i + 1 == total):
            spans.append((start, i + 1))
            start = i + 1
            acc = 0
    if start < total:
        spans.append((start, total))
    return spans


@dataclass
class SpanRunReport(_RunSummary):
    """Everything one span-scheduled run produced."""

    unit = "span"

    #: Per-*item* results in submission order; None where the covering
    #: span was quarantined.
    results: List[Optional[Any]]
    #: Quarantine records whose ``chunk_index`` is the span tuple.
    quarantined: List[QuarantinedChunk] = field(default_factory=list)
    stats: PoolStats = field(default_factory=PoolStats)

    def flat(self) -> List[Any]:
        """All item results; raises if any span was quarantined."""
        if self.quarantined:
            raise ChunkQuarantinedError(
                [q.chunk_index for q in self.quarantined])
        return list(self.results)


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

    The scheduler never touches item payloads: ``payload(start, stop)``
    builds the (small) task descriptor a worker receives for one span,
    and ``collect(start, stop, result)`` turns a worker's reply into the
    per-item values — for the shared-memory transport that means reading
    the digests the worker wrote in place.  Retry, circuit-breaker,
    quarantine, heartbeat and checkpoint semantics are those of
    :func:`run_chunks_report`, keyed on span ranges instead of chunk
    indices; ``fingerprint`` guards a resumed checkpoint against a
    different batch.
    """
    policy = _checked_policy(kind, policy, max_retries)
    spans = list(spans)
    stats = PoolStats(chunks=len(spans))
    if total == 0:
        return SpanRunReport(results=[], stats=stats)

    assembler = SpanAssembler(total)
    record = None
    if checkpoint is not None:
        manifest = SpanCheckpoint(checkpoint)
        for start, stop, values in manifest.begin(kind, fingerprint, total):
            if assembler.add(start, stop, values):
                stats.checkpoint_hits += 1
                stats.completed += 1
        if stats.checkpoint_hits:
            # Replan over what is actually left; the deque's stealing
            # re-splits these coarse gaps as workers go idle.
            spans = assembler.uncovered_runs()
            stats.chunks = stats.checkpoint_hits + len(spans)

        def record(span: Span, values: List[Any]) -> None:
            manifest.record(span[0], span[1], values)

    quarantined = _run(kind, SpanDeque(spans, lane_width), workers, timeout,
                       policy, stats, assembler,
                       task=lambda span: payload(*span),
                       values=lambda span, result: collect(*span, result),
                       record=record, key=lambda span: span,
                       transport=transport)
    return SpanRunReport(results=assembler.values(),
                         quarantined=quarantined, stats=stats)
