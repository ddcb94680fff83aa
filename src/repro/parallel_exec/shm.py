"""Zero-copy shared-memory batch transport for the worker pool.

The batch scheduler runs every batch as planned spans, and the
transport is only the span hook pair it is given.  The pickle pair
sends every span's messages through a worker's task queue and pickles
every digest list back through the result queue — each payload byte
crosses two pipes and four pickle passes.  Once the SoA mega-batch kernels made per-state compute cheap,
that serialization became the dominant cost of ``run_many`` on large
batches (the same lesson the paper draws for hardware: after the hash
core is fast, throughput is decided by how data moves to and from it).

This module moves the bytes out of the queues entirely:

* A :class:`ShmArena` is one ``multiprocessing.shared_memory`` segment
  holding a *packed message table* — header, per-message
  (offset, length) entries, the payload bytes — plus a reserved digest
  region that workers fill **in place**.
* Task and result queues then carry only small control descriptors
  (segment name, item range); the parent never pickles a payload and a
  worker never pickles a digest.
* The parent-owned :class:`ArenaPool` keeps segments alive across
  batches and hands them out by capacity, so a warm ``run_many`` loop
  reuses one mapping instead of creating/unlinking segments per call.

Ownership and cleanup rules (the part that keeps crash tests leak-free):

* **The parent owns every segment.**  It creates, packs, reads digests
  from, and — on :func:`close_all` or interpreter exit — unlinks them.
  Exactly one ``resource_tracker`` registration exists per segment (the
  parent's); unlink clears it, so no tracker warnings are possible.
* **Workers only ever attach.**  Attachment happens *untracked* (the
  worker suppresses the tracker registration): a worker that is
  SIGKILLed mid-span cannot leave a tracker entry behind, and the
  parent retries the span on another worker against the *same* arena.
* Attachments are cached per worker process (bounded LRU) and closed on
  clean worker exit; a dead worker's mapping dies with its address
  space.

When segments are unavailable (no POSIX shared memory) or a batch is
too small to amortize packing, callers take the pickle hook pair over
the same span plan — :func:`choose_transport` encodes those rules.
"""

from __future__ import annotations

import atexit
import os
import struct
from typing import Dict, List, Optional, Sequence, Tuple

from ..observability import metrics as _metrics

try:  # pragma: no cover - import guard exercised only on exotic builds
    from multiprocessing import shared_memory as _shared_memory
    HAVE_SHM = True
except ImportError:  # pragma: no cover
    _shared_memory = None
    HAVE_SHM = False

__all__ = [
    "HAVE_SHM",
    "MIN_SHM_BYTES",
    "ArenaPool",
    "ShmArena",
    "ShmUnavailableError",
    "arena_pool",
    "attach_arena",
    "choose_transport",
    "close_all",
    "detach_all",
]

#: Batches whose total payload is smaller than this fall back to the
#: pickle transport under ``transport="auto"`` — packing a segment and
#: attaching it in workers costs more than pickling a few KiB.
MIN_SHM_BYTES = 256 * 1024

#: Segment header: magic, version, count, digest_size, payload_offset,
#: digest_offset, used_bytes.
_HEADER = struct.Struct("<IIIIQQQ")
_MAGIC = 0x53483341  # "SH3A"
_VERSION = 1
#: Per-message table entry: absolute offset, length.
_ENTRY = struct.Struct("<QQ")

#: Segment sizes are rounded up to this granularity so slightly
#: different batches land in the same reusable size class.
_SIZE_QUANTUM = 1 << 20

#: Free segments the pool keeps per process; extras are unlinked.
_MAX_FREE_SEGMENTS = 4

#: Cached attachments a worker keeps before closing the oldest.
_MAX_WORKER_ATTACHMENTS = 8

_SHM_BYTES = _metrics.registry().counter(
    "pool_shm_bytes_total",
    "Bytes moved through shared-memory arenas, by operation", ("op",))
_SHM_SEGMENTS = _metrics.registry().gauge(
    "pool_shm_segments_gauge",
    "Live shared-memory segments owned by this process's arena pool")


class ShmUnavailableError(RuntimeError):
    """Shared-memory segments cannot be created on this platform."""


def required_size(sizes: Sequence[int], digest_size: int) -> int:
    """Total segment bytes for a batch of message ``sizes``."""
    return (_HEADER.size + len(sizes) * _ENTRY.size + sum(sizes)
            + len(sizes) * digest_size)


class ShmArena:
    """One shared-memory segment holding a packed message batch.

    The parent constructs arenas through :class:`ArenaPool` and calls
    :meth:`pack`; workers obtain read/write views of the same segment
    through :func:`attach_arena`.  All offsets live inside the segment
    header, so an attached view needs nothing but the segment name.
    """

    def __init__(self, segment, owner: bool) -> None:
        self._segment = segment
        self._owner = owner
        self._closed = False

    @property
    def name(self) -> str:
        return self._segment.name

    @property
    def capacity(self) -> int:
        return self._segment.size

    # -- parent side ------------------------------------------------------------

    def pack(self, messages: Sequence[bytes], digest_size: int) -> None:
        """Write the message table + payloads; zero the digest region."""
        need = required_size([len(m) for m in messages], digest_size)
        if need > self.capacity:
            raise ValueError(
                f"batch needs {need} bytes, segment {self.name} holds "
                f"{self.capacity}")
        buf = self._segment.buf
        offset = _HEADER.size + len(messages) * _ENTRY.size
        table = _HEADER.size
        for message in messages:
            _ENTRY.pack_into(buf, table, offset, len(message))
            buf[offset:offset + len(message)] = message
            offset += len(message)
            table += _ENTRY.size
        digest_offset = offset
        payload_offset = _HEADER.size + len(messages) * _ENTRY.size
        _HEADER.pack_into(buf, 0, _MAGIC, _VERSION, len(messages),
                          digest_size, payload_offset, digest_offset, need)
        buf[digest_offset:need] = bytes(need - digest_offset)
        if _metrics.ARMED:
            _SHM_BYTES.inc(offset - payload_offset, op="pack")

    # -- both sides -------------------------------------------------------------

    def _header(self) -> Tuple[int, int, int, int]:
        magic, version, count, digest_size, payload_off, digest_off, used \
            = _HEADER.unpack_from(self._segment.buf, 0)
        if magic != _MAGIC or version != _VERSION:
            raise ValueError(
                f"segment {self.name} holds no packed batch "
                f"(magic {magic:#x}, version {version})")
        return count, digest_size, payload_off, digest_off

    @property
    def message_count(self) -> int:
        return self._header()[0]

    def read_messages(self, start: int, stop: int) -> List[bytes]:
        """The packed messages in ``[start, stop)`` (one copy, to hash)."""
        count, _, _, _ = self._header()
        if not 0 <= start <= stop <= count:
            raise IndexError(f"range [{start}, {stop}) outside 0..{count}")
        buf = self._segment.buf
        out: List[bytes] = []
        table = _HEADER.size + start * _ENTRY.size
        for _ in range(stop - start):
            offset, length = _ENTRY.unpack_from(buf, table)
            out.append(bytes(buf[offset:offset + length]))
            table += _ENTRY.size
        if _metrics.ARMED:
            _SHM_BYTES.inc(sum(len(m) for m in out), op="read")
        return out

    def read_message_views(self, start: int, stop: int) -> List[memoryview]:
        """Zero-copy views of the packed messages in ``[start, stop)``.

        For consumers that can hash straight from a buffer (``hashlib``
        accepts any bytes-like object) this skips the per-message copy
        of :meth:`read_messages` entirely — the returned views alias
        the shared segment, so they are only valid while the arena
        stays attached and the parent does not repack it.
        """
        count, _, _, _ = self._header()
        if not 0 <= start <= stop <= count:
            raise IndexError(f"range [{start}, {stop}) outside 0..{count}")
        buf = memoryview(self._segment.buf)
        out: List[memoryview] = []
        table = _HEADER.size + start * _ENTRY.size
        for _ in range(stop - start):
            offset, length = _ENTRY.unpack_from(buf, table)
            out.append(buf[offset:offset + length])
            table += _ENTRY.size
        if _metrics.ARMED:
            _SHM_BYTES.inc(sum(len(m) for m in out), op="read")
        return out

    def write_digests(self, start: int, digests: Sequence[bytes]) -> None:
        """Fill digest slots ``start..start+len(digests)`` in place."""
        count, digest_size, _, digest_off = self._header()
        if start < 0 or start + len(digests) > count:
            raise IndexError(
                f"digest range [{start}, {start + len(digests)}) outside "
                f"0..{count}")
        buf = self._segment.buf
        offset = digest_off + start * digest_size
        for digest in digests:
            if len(digest) != digest_size:
                raise ValueError(
                    f"digest of {len(digest)} bytes in a "
                    f"{digest_size}-byte slot")
            buf[offset:offset + digest_size] = digest
            offset += digest_size

    def read_digests(self, start: int, stop: int) -> List[bytes]:
        """The digests workers wrote for items ``[start, stop)``."""
        count, digest_size, _, digest_off = self._header()
        if not 0 <= start <= stop <= count:
            raise IndexError(f"range [{start}, {stop}) outside 0..{count}")
        buf = self._segment.buf
        offset = digest_off + start * digest_size
        out = []
        for _ in range(stop - start):
            out.append(bytes(buf[offset:offset + digest_size]))
            offset += digest_size
        return out

    def close(self) -> None:
        """Drop this process's mapping (the segment itself survives)."""
        if not self._closed:
            self._closed = True
            self._segment.close()

    def unlink(self) -> None:
        """Destroy the segment (parent/owner only)."""
        if self._owner:
            try:
                self._segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass


# -- the parent-side pool ---------------------------------------------------------


class ArenaPool:
    """Reusable, ref-counted shared-memory segments owned by the parent.

    ``acquire`` hands out the smallest free segment that fits (creating
    one if none does); ``release`` returns it for reuse.  The pool keeps
    at most :data:`_MAX_FREE_SEGMENTS` idle segments and unlinks the
    rest immediately, and :meth:`close_all` (also registered ``atexit``)
    unlinks everything — the single place segment lifetimes end.
    """

    def __init__(self, prefix: str = "repro_shm") -> None:
        self._prefix = prefix
        self._free: List[ShmArena] = []
        self._busy: Dict[str, int] = {}
        self._arenas: Dict[str, ShmArena] = {}
        self._counter = 0

    def _update_gauge(self) -> None:
        if _metrics.ARMED:
            _SHM_SEGMENTS.set(len(self._arenas))

    def _create(self, size: int) -> ShmArena:
        if not HAVE_SHM:
            raise ShmUnavailableError(
                "multiprocessing.shared_memory is unavailable")
        self._counter += 1
        name = f"{self._prefix}_{os.getpid()}_{self._counter}"
        try:
            segment = _shared_memory.SharedMemory(
                name=name, create=True, size=size)
        except OSError as exc:
            raise ShmUnavailableError(
                f"cannot create shared-memory segment: {exc}") from exc
        arena = ShmArena(segment, owner=True)
        self._arenas[arena.name] = arena
        return arena

    def acquire(self, size: int) -> ShmArena:
        """A segment of at least ``size`` bytes, leased to the caller."""
        size = max(size, 1)
        size = (size + _SIZE_QUANTUM - 1) // _SIZE_QUANTUM * _SIZE_QUANTUM
        fitting = [a for a in self._free if a.capacity >= size]
        if fitting:
            arena = min(fitting, key=lambda a: a.capacity)
            self._free.remove(arena)
        else:
            arena = self._create(size)
        self._busy[arena.name] = self._busy.get(arena.name, 0) + 1
        self._update_gauge()
        return arena

    def retain(self, arena: ShmArena) -> None:
        """Take one more reference on a leased arena."""
        self._busy[arena.name] += 1

    def release(self, arena: ShmArena) -> None:
        """Drop one reference; the last one returns it to the free list."""
        refs = self._busy.get(arena.name)
        if refs is None:
            return
        if refs > 1:
            self._busy[arena.name] = refs - 1
            return
        del self._busy[arena.name]
        if len(self._free) >= _MAX_FREE_SEGMENTS:
            arena.close()
            arena.unlink()
            del self._arenas[arena.name]
        else:
            self._free.append(arena)
        self._update_gauge()

    @property
    def live_segments(self) -> int:
        return len(self._arenas)

    def close_all(self) -> None:
        """Unlink every segment this pool ever created."""
        for arena in self._arenas.values():
            arena.close()
            arena.unlink()
        self._arenas.clear()
        self._free.clear()
        self._busy.clear()
        self._update_gauge()


_POOL: Optional[ArenaPool] = None


def arena_pool() -> ArenaPool:
    """The process-wide arena pool (created on first use)."""
    global _POOL
    if _POOL is None:
        _POOL = ArenaPool()
    return _POOL


def close_all() -> None:
    """Unlink every segment the process-wide pool owns (idempotent)."""
    if _POOL is not None:
        _POOL.close_all()


def _forget_pool() -> None:
    """In a forked child the pool's segments are the parent's.

    Drop the inherited pool without unlinking anything, so the child's
    exit hook (which reads the current ``_POOL``) leaves the parent's
    live segments alone and a shm run in the child creates its own.
    """
    global _POOL
    _POOL = None


atexit.register(close_all)
os.register_at_fork(after_in_child=_forget_pool)


# -- the worker side --------------------------------------------------------------

#: name -> attached arena, insertion-ordered for LRU eviction.
_ATTACHED: Dict[str, ShmArena] = {}


def _attach_untracked(name: str):
    """Attach to a segment without registering it with the resource
    tracker.

    The parent's creation already registered the segment once; a second
    registration from a worker is at best redundant and — if the worker
    ends up with its own tracker process and then dies by SIGKILL —
    produces spurious "leaked shared_memory" warnings for a segment the
    parent still owns.  Python 3.13 has ``track=False`` for exactly
    this; on older versions the registration call is suppressed for the
    duration of the attach.
    """
    try:
        return _shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # pragma: no cover - depends on Python version
        pass
    from multiprocessing import resource_tracker as _rt

    original = _rt.register
    _rt.register = lambda *args, **kwargs: None
    try:
        return _shared_memory.SharedMemory(name=name)
    finally:
        _rt.register = original


def attach_arena(name: str) -> ShmArena:
    """A (cached) read/write view of the parent's segment ``name``."""
    arena = _ATTACHED.get(name)
    if arena is not None:
        return arena
    if not HAVE_SHM:
        raise ShmUnavailableError(
            "multiprocessing.shared_memory is unavailable")
    arena = ShmArena(_attach_untracked(name), owner=False)
    while len(_ATTACHED) >= _MAX_WORKER_ATTACHMENTS:
        _ATTACHED.pop(next(iter(_ATTACHED))).close()
    _ATTACHED[name] = arena
    return arena


def detach_all() -> None:
    """Close every cached attachment (clean worker shutdown)."""
    for arena in _ATTACHED.values():
        arena.close()
    _ATTACHED.clear()


# -- transport selection ----------------------------------------------------------


def choose_transport(transport: str, total_bytes: int,
                     workers: int) -> str:
    """Resolve a ``--transport`` request to ``"shm"`` or ``"pickle"``.

    * an explicit ``"pickle"`` always wins;
    * an explicit ``"shm"`` wins whenever segments exist at all (it is
      an error to force it on a platform without them);
    * ``"auto"`` picks shm for multi-worker runs whose payload is big
      enough to amortize packing (:data:`MIN_SHM_BYTES`), and the
      pickle path for serial runs and tiny batches.
    """
    if transport not in ("auto", "shm", "pickle"):
        raise ValueError(
            f"unknown transport {transport!r}: expected auto, shm or "
            f"pickle")
    if transport == "pickle":
        return "pickle"
    if transport == "shm":
        if not HAVE_SHM:
            raise ShmUnavailableError(
                "transport='shm' requested but "
                "multiprocessing.shared_memory is unavailable")
        return "shm"
    if not HAVE_SHM or workers <= 1 or total_bytes < MIN_SHM_BYTES:
        return "pickle"
    return "shm"
