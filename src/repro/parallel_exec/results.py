"""Deterministic result assembly for parallel work, and its errors.

Workers finish work units in whatever order the scheduler and the OS
decide; the assembler restores the submission order so a parallel run
returns exactly what the serial run would.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple


class ParallelExecError(RuntimeError):
    """Base class for worker-pool failures."""


class TaskError(ParallelExecError):
    """A task raised inside a worker.

    Task exceptions are deterministic (re-running the same chunk would
    raise again), so they propagate immediately — only worker *crashes*
    and timeouts are retried.
    """

    def __init__(self, chunk_index: int, message: str) -> None:
        super().__init__(f"chunk {chunk_index} failed: {message}")
        self.chunk_index = chunk_index


class WorkerCrashError(ParallelExecError):
    """A worker process died (signal/exit) too many times on one chunk."""

    def __init__(self, chunk_index: int, attempts: int) -> None:
        super().__init__(
            f"chunk {chunk_index} crashed its worker {attempts} time(s); "
            "giving up"
        )
        self.chunk_index = chunk_index


class ChunkTimeoutError(ParallelExecError):
    """A chunk exceeded its per-chunk timeout too many times."""

    def __init__(self, chunk_index: int, timeout: float,
                 attempts: int) -> None:
        super().__init__(
            f"chunk {chunk_index} timed out after {timeout:g}s on "
            f"{attempts} attempt(s); giving up"
        )
        self.chunk_index = chunk_index


class ChunkQuarantinedError(ParallelExecError):
    """Poisoned spans were quarantined and the caller asked for a flat
    result — the full per-item report is available via
    ``run_spans_report``."""

    def __init__(self, chunk_indices: List[int]) -> None:
        super().__init__(
            f"{len(chunk_indices)} chunk(s) quarantined: "
            f"{sorted(chunk_indices)}"
        )
        self.chunk_indices = sorted(chunk_indices)


class SpanAssembler:
    """Per-*item* result slots, filled by ``[start, stop)`` ranges.

    Work stealing splits spans while the run executes, and a checkpoint
    resume may cover arbitrary item ranges from an earlier run.  So the
    assembler tracks items, not work units — any set of disjoint ranges
    that covers every item completes it, regardless of how the ranges
    were cut.

    A range overlapping already-filled slots is refused whole:
    :meth:`add` fills a range only when *none* of its slots are filled
    yet, so the first delivery wins.
    """

    def __init__(self, total: int) -> None:
        self._values: List[Optional[Any]] = [None] * total
        self._filled = [False] * total
        self._remaining = total
        self._failed: List[Tuple[int, int]] = []

    @property
    def complete(self) -> bool:
        return self._remaining == 0

    @property
    def failed_spans(self) -> List[Tuple[int, int]]:
        """Spans resolved as quarantined (their items carry None)."""
        return list(self._failed)

    def _check_range(self, start: int, stop: int) -> None:
        if not 0 <= start <= stop <= len(self._filled):
            raise IndexError(
                f"span [{start}, {stop}) outside 0..{len(self._filled)}")

    def covered(self, start: int, stop: int) -> bool:
        """True when every item in ``[start, stop)`` is resolved."""
        self._check_range(start, stop)
        return all(self._filled[start:stop])

    def add(self, start: int, stop: int, values: List[Any]) -> bool:
        """Record one span's per-item values; False on a duplicate."""
        self._check_range(start, stop)
        if len(values) != stop - start:
            raise ValueError(
                f"span [{start}, {stop}) got {len(values)} value(s)")
        if any(self._filled[start:stop]):
            return False
        for i, value in enumerate(values, start):
            self._values[i] = value
            self._filled[i] = True
        self._remaining -= stop - start
        return True

    def add_failed(self, start: int, stop: int) -> None:
        """Resolve a span as quarantined: its items stay None."""
        self._check_range(start, stop)
        if any(self._filled[start:stop]):
            return
        for i in range(start, stop):
            self._filled[i] = True
        self._remaining -= stop - start
        self._failed.append((start, stop))

    def uncovered_runs(self, lo: int = 0,
                       hi: Optional[int] = None) -> List[Tuple[int, int]]:
        """Maximal unresolved ranges within ``[lo, hi)`` (default: all
        items), for resume replanning."""
        hi = len(self._filled) if hi is None else hi
        self._check_range(lo, hi)
        runs: List[Tuple[int, int]] = []
        start: Optional[int] = None
        for i in range(lo, hi):
            if self._filled[i]:
                if start is not None:
                    runs.append((start, i))
                    start = None
            elif start is None:
                start = i
        if start is not None:
            runs.append((start, hi))
        return runs

    def values(self) -> List[Optional[Any]]:
        """Per-item results; None where the covering span failed."""
        if self._remaining:
            raise ParallelExecError(
                f"{self._remaining} item(s) still outstanding")
        return list(self._values)
