"""Batch hashing: N distinct messages over N parallel Keccak states.

This is the workload the multi-state vector register file exists for
(paper Section 1: Kyber generates A, s and e from *similar but distinct*
inputs, "it would be beneficial if one or more Keccak states could work
simultaneously").  Each message gets its own sponge state; all states are
absorbed/permuted together by a single program run on the simulator, so N
messages cost the same cycle count as one.

On the processor engines (SN states per program run) the batch sponge
handles messages of *different lengths* by sub-batching: once a lane's
message is exhausted it drops out of the absorb batches, and the
remaining active lanes keep permuting together — mirroring how software
would drive the hardware.  The ``soa`` engine instead runs the resident
lane scheduler :func:`repro.sim.codegen.sponge_soa`, which refills a
finished lane with the next message so no lane waits for the longest.
"""

from __future__ import annotations

import hashlib
import warnings
from typing import Dict, List, Optional, Sequence, Tuple

from ..keccak.sponge import SHA3_SUFFIX, SHAKE_SUFFIX
from ..keccak.state import KeccakState
from ..sim import codegen as _codegen
from ..sim import engines as _engines
from ..parallel_exec import register_task_kind
from ..parallel_exec import shm as _shm
from ..parallel_exec.hardening import RetryPolicy
from ..parallel_exec.scheduler import (
    SpanRunReport,
    plan_spans,
    run_spans_report,
)
from .base import KeccakProgram
from .factory import build_program
from .session import Session


class BatchPermutation:
    """Permute up to SN states simultaneously on the simulator.

    ``num_rounds`` selects the Keccak-p[1600, nr] variant when no
    explicit program is passed (12 rounds for the TurboSHAKE/K12 leaf
    permutation; the default 24 is Keccak-f[1600]).
    """

    def __init__(self, elen: int = 64, lmul: int = 8,
                 elenum: int = 30,
                 program: Optional[KeccakProgram] = None,
                 engine: str = "auto",
                 num_rounds: int = 24) -> None:
        self.program = program or build_program(elen, lmul, elenum,
                                                include_memory_io=True,
                                                num_rounds=num_rounds)
        if self.program.state_base is None:
            raise ValueError("batch permutation needs a memory-IO program")
        self.engine = engine
        self._session = Session(engine=engine)
        self.call_count = 0
        self.total_cycles = 0
        # Batching engines (the SoA mega-batch kernels) carry many
        # messages per kernel call: their registry spec's batch width —
        # not the program's SN — is the lock-step group size.
        spec = _engines.maybe_get(self.engine)
        self._batch_width: Optional[int] = None
        if spec is not None and spec.caps.batching \
                and spec.batch_width is not None:
            self._batch_width = spec.batch_width()

    def precompile(self) -> bool:
        """Warm the code-generation caches for this permutation's program.

        Called by the pool drivers in the *parent* process before workers
        fork: the compile lands in the shared on-disk cache, so each
        worker's first span loads the kernel by fingerprint instead of
        recompiling.  Returns True when a kernel exists.  Engines that
        declare a ``warm`` hook in the registry (``soa``) pre-compile
        through it; of the built-ins only ``auto``/``compiled`` reach
        the program compiler.
        """
        spec = _engines.maybe_get(self.engine)
        if spec is not None and spec.caps.functional:
            if spec.warm is None:
                return False
            return bool(spec.warm(self.program))
        if self.engine not in ("auto", "compiled"):
            return False
        return self._session.warm(self.program)

    @property
    def max_states(self) -> int:
        """States permuted per call (the engine's batch width, or SN)."""
        if self._batch_width is not None:
            return self._batch_width
        return self.program.max_states

    def __call__(self, states: Sequence[KeccakState]) -> List[KeccakState]:
        if len(states) > self.max_states:
            raise ValueError(
                f"batch of {len(states)} exceeds {self.max_states} states"
            )
        result = self._session.run(self.program, states)
        self.call_count += 1
        self.total_cycles += result.stats.cycles
        return result.states


class BatchSponge:
    """N independent sponges advanced in lock-step by batch permutations."""

    def __init__(self, num_lanes: int, capacity_bits: int, suffix: int,
                 permutation: BatchPermutation) -> None:
        if num_lanes < 1:
            raise ValueError("need at least one lane")
        if num_lanes > permutation.max_states:
            raise ValueError(
                f"{num_lanes} lanes exceed the permutation's "
                f"{permutation.max_states} states"
            )
        if capacity_bits % 8 or not 0 < capacity_bits < 1600:
            raise ValueError(f"bad capacity: {capacity_bits}")
        self.num_lanes = num_lanes
        self.rate_bytes = (1600 - capacity_bits) // 8
        self.suffix = suffix
        self._permutation = permutation
        self._states = [KeccakState() for _ in range(num_lanes)]
        self._buffers = [bytearray() for _ in range(num_lanes)]
        self._squeezing = False
        self._squeeze_offsets = [0] * num_lanes

    def absorb(self, lane: int, data: bytes) -> None:
        """Buffer message bytes for one lane (no permutation yet)."""
        if self._squeezing:
            raise RuntimeError("cannot absorb after squeezing started")
        if not 0 <= lane < self.num_lanes:
            raise IndexError(f"lane out of range: {lane}")
        self._buffers[lane].extend(data)

    def _finalize(self) -> None:
        """Pad every lane and absorb all blocks with batched permutations."""
        # Build each lane's padded message, then absorb block-by-block:
        # iteration k XORs block k of every lane that has one and permutes
        # the whole batch once.  Lanes that ran out of blocks must not
        # change, so they are absorbed with *frozen* snapshots: we permute
        # only lanes still active, in sub-batches.
        padded: List[bytes] = []
        for buffer in self._buffers:
            block = bytearray(buffer)
            pad_len = self.rate_bytes - (len(block) % self.rate_bytes)
            tail = bytearray(pad_len)
            tail[0] = self.suffix
            tail[-1] ^= 0x80  # pad_len == 1 folds suffix and final bit
            block.extend(tail)
            padded.append(bytes(block))

        max_blocks = max(len(p) // self.rate_bytes for p in padded)
        for k in range(max_blocks):
            active = [i for i in range(self.num_lanes)
                      if k < len(padded[i]) // self.rate_bytes]
            for i in active:
                block = padded[i][k * self.rate_bytes:(k + 1) * self.rate_bytes]
                self._states[i].xor_bytes(block)
            # Batch-permute the active lanes together (one program run).
            permuted = self._permutation([self._states[i] for i in active])
            for slot, i in enumerate(active):
                self._states[i] = permuted[slot]
        self._squeezing = True

    def squeeze(self, length: int) -> List[bytes]:
        """Squeeze ``length`` bytes from every lane (batched permutes)."""
        if length < 0:
            raise ValueError(f"cannot squeeze {length} bytes")
        if not self._squeezing:
            self._finalize()
        outputs = [bytearray() for _ in range(self.num_lanes)]
        while any(len(o) < length for o in outputs):
            if all(off == self.rate_bytes for off in self._squeeze_offsets):
                self._states = self._permutation(self._states)
                self._squeeze_offsets = [0] * self.num_lanes
            for i in range(self.num_lanes):
                need = length - len(outputs[i])
                if need <= 0:
                    continue
                offset = self._squeeze_offsets[i]
                take = min(self.rate_bytes - offset, need)
                outputs[i].extend(
                    self._states[i].to_bytes()[offset:offset + take]
                )
                self._squeeze_offsets[i] += take
        return [bytes(o) for o in outputs]


def _resolve_batch_engine(permutation: Optional[BatchPermutation],
                          engine: Optional[str]) -> str:
    """The effective engine for one batch call (explicit > permutation)."""
    if engine is not None:
        resolved = _engines.validate(engine)
        if permutation is not None and permutation.engine != resolved:
            raise ValueError(
                f"engine={resolved!r} conflicts with the permutation's "
                f"engine {permutation.engine!r}; pass one or the other")
        return resolved
    if permutation is not None:
        return permutation.engine
    return "auto"


def _warn_permutation_with_workers() -> None:
    warnings.warn(
        "passing permutation= together with workers= is deprecated: the "
        "permutation object is not used by the pool — only its "
        "(elen, lmul, elenum) and engine are; pass elen=/lmul=/elenum=/"
        "engine= to run_many (or this function's engine=) instead",
        DeprecationWarning, stacklevel=3)


def batch_sha3_256(messages: Sequence[bytes],
                   permutation: Optional[BatchPermutation] = None,
                   workers: Optional[int] = None,
                   engine: Optional[str] = None,
                   transport: str = "auto") -> List[bytes]:
    """SHA3-256 of ``messages`` with batched simulator permutations.

    Without ``workers`` the batch must fit the permutation's lock-step
    width (SN states — or the engine's batch width for batching engines
    like ``soa``).  With ``workers`` the batch may be any size: it is
    split into lock-step groups, and ``workers > 1`` distributes those
    groups across a process pool via :func:`run_many` — digests come
    back in message order either way.  ``engine`` selects the execution
    engine (default: the permutation's, or ``auto``); it must agree
    with an explicitly passed permutation.  ``transport`` picks the
    pool's byte transport exactly as in :func:`run_many` (shm arenas vs
    pickled queues; only meaningful together with ``workers``).
    """
    resolved = _resolve_batch_engine(permutation, engine)
    if workers is not None:
        if permutation is not None:
            _warn_permutation_with_workers()
        arch = _arch_of(permutation)
        return run_many(messages, algorithm="sha3_256", workers=workers,
                        elen=arch[0], lmul=arch[1], elenum=arch[2],
                        engine=resolved, transport=transport)
    perm = permutation or BatchPermutation(engine=resolved)
    sponge = BatchSponge(len(messages), 512, SHA3_SUFFIX, perm)
    for lane, message in enumerate(messages):
        sponge.absorb(lane, message)
    return [d[:32] for d in sponge.squeeze(32)]


def batch_shake128(messages: Sequence[bytes], length: int,
                   permutation: Optional[BatchPermutation] = None,
                   workers: Optional[int] = None,
                   engine: Optional[str] = None,
                   transport: str = "auto") -> List[bytes]:
    """SHAKE128 outputs of ``messages``, batched on the simulator.

    ``workers``, ``engine`` and ``transport`` behave as in
    :func:`batch_sha3_256`.
    """
    resolved = _resolve_batch_engine(permutation, engine)
    if workers is not None:
        if permutation is not None:
            _warn_permutation_with_workers()
        arch = _arch_of(permutation)
        return run_many(messages, algorithm="shake128", length=length,
                        workers=workers, elen=arch[0], lmul=arch[1],
                        elenum=arch[2], engine=resolved,
                        transport=transport)
    perm = permutation or BatchPermutation(engine=resolved)
    sponge = BatchSponge(len(messages), 256, SHAKE_SUFFIX, perm)
    for lane, message in enumerate(messages):
        sponge.absorb(lane, message)
    return sponge.squeeze(length)


# -- process-parallel front end ---------------------------------------------------

#: Architecture key: (ELEN, LMUL, EleNum).
_ArchKey = Tuple[int, int, int]

#: Per-process permutation cache, keyed (arch, engine, rounds).  In a
#: worker this is the warm state the pool exists for: the first span
#: predecodes the program (and, on the compiled engine, loads the
#: kernel the parent pre-compiled from the on-disk cache); every later
#: span reuses them.
_PERMUTATIONS: Dict[Tuple[_ArchKey, str, int], BatchPermutation] = {}

_HASH_TASK_KIND = "repro.batch_hash"
_HASH_SHM_TASK_KIND = "repro.batch_hash_shm"

#: Sponge shape of every flat batch algorithm:
#: (capacity bits, domain suffix, permutation rounds, fixed digest size
#: or None when the caller's ``length`` decides).  ``k12_leaf`` is the
#: KangarooTwelve leaf sponge — TurboSHAKE128 with the tree's leaf
#: domain byte, fixed 32-byte chaining values.
_SPONGE_ALGORITHMS: Dict[str, Tuple[int, int, int, Optional[int]]] = {
    "sha3_256": (512, SHA3_SUFFIX, 24, 32),
    "shake128": (256, SHAKE_SUFFIX, 24, None),
    "shake256": (512, SHAKE_SUFFIX, 24, None),
    "k12_leaf": (256, 0x0B, 12, 32),
}

#: Whole-message tree algorithms: each message is hashed by the
#: tree-hashing front end (:mod:`repro.keccak.treehash`) *inside* the
#: worker — the leaf batching happens in-process there, so pool workers
#: each run their own two-level tree.
_TREE_ALGORITHMS = ("k12", "parallelhash128", "parallelhash256")


def supported_algorithms() -> Tuple[str, ...]:
    """Every algorithm name the batch drivers accept."""
    return tuple(_SPONGE_ALGORITHMS) + _TREE_ALGORITHMS


def _validate_algorithm(algorithm: str) -> str:
    if algorithm not in _SPONGE_ALGORITHMS \
            and algorithm not in _TREE_ALGORITHMS:
        raise ValueError(f"unsupported algorithm: {algorithm!r}")
    return algorithm


def digest_size(algorithm: str, length: int) -> int:
    """Output bytes per message for one batch call.

    Fixed-output algorithms (``sha3_256``, ``k12_leaf`` chaining
    values) ignore ``length``; the XOFs and tree algorithms honor it.
    """
    _validate_algorithm(algorithm)
    fixed = _SPONGE_ALGORITHMS.get(algorithm, (0, 0, 0, None))[3]
    return fixed if fixed is not None else length


def _arch_of(permutation: Optional[BatchPermutation]) -> _ArchKey:
    if permutation is None:
        return (64, 8, 30)
    program = permutation.program
    return (program.elen, program.lmul, program.elenum)


def _cached_permutation(arch: _ArchKey, engine: str = "auto",
                        num_rounds: int = 24) -> BatchPermutation:
    key = (arch, engine, num_rounds)
    perm = _PERMUTATIONS.get(key)
    if perm is None:
        elen, lmul, elenum = arch
        perm = _PERMUTATIONS[key] = BatchPermutation(elen, lmul, elenum,
                                                     engine=engine,
                                                     num_rounds=num_rounds)
    return perm


def _batch_digest(messages: Sequence[bytes], algorithm: str, length: int,
                  perm: BatchPermutation) -> List[bytes]:
    """One lock-step group of any flat sponge algorithm on ``perm``."""
    capacity_bits, suffix, _rounds, fixed = _SPONGE_ALGORITHMS[algorithm]
    sponge = BatchSponge(len(messages), capacity_bits, suffix, perm)
    for lane, message in enumerate(messages):
        sponge.absorb(lane, message)
    return sponge.squeeze(fixed if fixed is not None else length)


def _hash_tree_messages(algorithm: str, length: int, engine: str,
                        messages: Sequence[bytes]) -> List[bytes]:
    """Whole-message tree hashing: each message is its own leaf tree."""
    from ..keccak import treehash as _treehash
    from ..keccak.kangarootwelve import kangarootwelve as _k12

    if algorithm == "k12":
        return [_k12(bytes(m), length, engine=engine)
                for m in messages]
    final = _treehash.parallelhash128 if algorithm == "parallelhash128" \
        else _treehash.parallelhash256
    return [final(bytes(m), length, engine=engine) for m in messages]


def _is_resident(spec) -> bool:
    """Whether ``spec`` hashes through the resident SoA sponge."""
    return spec is not None and spec.caps.batching and spec.caps.functional


def _hash_messages(algorithm: str, length: int, arch: _ArchKey,
                   engine: str, messages: Sequence[bytes]) -> List[bytes]:
    """Hash ``messages`` on this process's cached execution state.

    The single hashing body shared by the pickle span task, the
    shared-memory span task and the serial paths.  Tree algorithms
    (``k12``, ``parallelhash128/256``) hash whole messages through the
    tree front end; engines declaring a ``digest_batch`` hook
    (``reference``) take the whole batch at once; the batching
    functional engine (``soa``) runs the resident lane scheduler
    :func:`~repro.sim.codegen.sponge_soa`; the processor engines run in
    SN-state lock-step groups on the cached permutation, with the
    rounds the algorithm demands.
    """
    _validate_algorithm(algorithm)
    engine = _engines.validate(engine)
    if algorithm in _TREE_ALGORITHMS:
        return _hash_tree_messages(algorithm, length, engine, messages)
    spec = _engines.maybe_get(engine)
    if spec is not None and spec.digest_batch is not None:
        return spec.digest_batch(algorithm, length, messages)
    capacity_bits, suffix, num_rounds, fixed = _SPONGE_ALGORITHMS[algorithm]
    if _is_resident(spec):
        return _codegen.sponge_soa(messages, (1600 - capacity_bits) // 8,
                                   suffix,
                                   fixed if fixed is not None else length,
                                   num_rounds)
    perm = _cached_permutation(tuple(arch), engine, num_rounds)
    sn = perm.max_states
    digests: List[bytes] = []
    for start in range(0, len(messages), sn):
        digests.extend(_batch_digest(messages[start:start + sn],
                                     algorithm, length, perm))
    return digests


def hash_messages(algorithm: str, length: int, arch: _ArchKey,
                  engine: str, messages: Sequence[bytes]) -> List[bytes]:
    """Hash ``messages`` serially on this process's cached state.

    The public face of :func:`_hash_messages` for in-process callers
    that manage their own batching (the tree-hash leaf planner): same warm
    permutation cache and engine dispatch as the pool task bodies, no
    pool, no span planning.
    """
    return _hash_messages(algorithm, length, tuple(arch), engine, messages)


def _hash_chunk(payload) -> List[bytes]:
    """Pickle-transport task body (runs in workers *and* serially).

    ``payload`` is ``(algorithm, length, arch, messages, engine)``, the
    span task of :func:`run_many` and of serve's pickle executor;
    returns one digest per message, in order.
    """
    algorithm, length, arch, messages, engine = payload
    return _hash_messages(algorithm, length, tuple(arch), engine, messages)


def _hash_span_shm(payload) -> Tuple[int, int]:
    """Shared-memory transport task body: hash one span in place.

    ``payload`` is the control descriptor
    ``(segment_name, start, stop, algorithm, length, arch, engine)`` —
    no message bytes cross the queue.  The worker attaches the parent's
    arena (cached across spans), reads the packed messages, writes the
    digests into the arena's digest region and acknowledges with just
    the span range; the parent reads the digests back in place.
    """
    segment_name, start, stop, algorithm, length, arch, engine = payload
    arena = _shm.attach_arena(segment_name)
    spec = _engines.maybe_get(_engines.validate(engine))
    if spec is not None and spec.digest_batch is not None:
        # Whole-message engines hash straight from the shared buffer —
        # no per-message copy on the worker side at all.
        messages: Sequence[bytes] = arena.read_message_views(start, stop)
    else:
        messages = arena.read_messages(start, stop)
    digests = _hash_messages(algorithm, length, tuple(arch), engine,
                             messages)
    arena.write_digests(start, digests)
    return (start, stop)


register_task_kind(_HASH_TASK_KIND, _hash_chunk)
register_task_kind(_HASH_SHM_TASK_KIND, _hash_span_shm)


def _algorithm_rounds(algorithm: str) -> int:
    """Permutation rounds of the kernels ``algorithm`` runs on.

    Tree algorithms report their *leaf* rounds (12 for K12, 24 for
    ParallelHash) — that is the kernel the pool should pre-warm.
    """
    if algorithm == "k12":
        return 12
    if algorithm in _TREE_ALGORITHMS:
        return 24
    return _SPONGE_ALGORITHMS[algorithm][2]


def _warm_parent(arch: _ArchKey, engine: str,
                 workers: Optional[int], num_rounds: int = 24) -> None:
    """Pre-compile in the parent so pool workers warm-start from disk."""
    if workers and workers > 1:
        _cached_permutation(arch, engine, num_rounds).precompile()


#: One batch run's report: per-message digests (``results``, None where
#: a span was quarantined), quarantine records and pool statistics.
BatchOutcome = SpanRunReport


def _batch_fingerprint(algorithm: str, length: int, arch: _ArchKey,
                       engine: str, payloads: Sequence[bytes]) -> str:
    """One content hash for a whole span-scheduled batch.

    Spans are cut while the run executes (stealing splits them), so
    the manifest is guarded by a single digest over the run parameters
    and every message byte rather than by per-span payloads.
    """
    h = hashlib.sha256()
    h.update(repr((algorithm, length, tuple(arch), engine,
                   len(payloads))).encode())
    for message in payloads:
        h.update(len(message).to_bytes(8, "little"))
        h.update(message)
    return h.hexdigest()


def _run_many(messages: Sequence[bytes], algorithm: str, length: int,
              arch: _ArchKey, workers: int, chunk_size: Optional[int],
              timeout: Optional[float], max_retries: int,
              policy: Optional[RetryPolicy], checkpoint: Optional[str],
              engine: str, transport: str) -> BatchOutcome:
    """The one batch pipeline: planned spans over either transport.

    Spans are cost-balanced and aligned to the engine's lock-step width;
    the transport only picks the hook pair.  The pickle pair sends each
    span's message slice through the task queue and takes the worker's
    digest list back.  The shm pair packs every message into one
    shared-memory arena and dispatches only small descriptors; workers
    write digests into the arena in place and the parent reads them
    back.  The arena lease is released (back to the process-wide pool,
    for the next batch to reuse) whether the run completes, quarantines
    or raises.
    """
    _validate_algorithm(algorithm)
    engine = _engines.validate(engine)
    if chunk_size is not None and chunk_size < 1:
        raise ValueError(f"chunk size must be positive: {chunk_size}")
    payloads = [bytes(m) for m in messages]
    sizes = [len(message) for message in payloads]
    mode = _shm.choose_transport(transport, sum(sizes), workers)
    spec = _engines.maybe_get(engine)
    num_rounds = _algorithm_rounds(algorithm)
    spans_per_worker = 4
    if algorithm in _TREE_ALGORITHMS:
        # Whole-message trees: the leaf batching happens inside each
        # worker, so spans need no lock-step alignment — but the leaf
        # kernels are still worth pre-warming in the parent.
        lane_width = 1
        _warm_parent(arch, engine, workers, num_rounds)
    elif spec is not None and spec.digest_batch is not None:
        lane_width = 1  # whole-message engines have no lock-step groups
    elif _is_resident(spec):
        # The resident sponge refills finished lanes from the rest of
        # its span, so each worker gets one cost-balanced span: a span
        # of one lane group would leave nothing to refill from.
        lane_width = 1
        spans_per_worker = 1
        _warm_parent(arch, engine, workers, num_rounds)
    else:
        lane_width = _cached_permutation(arch, engine,
                                         num_rounds).max_states
        _warm_parent(arch, engine, workers, num_rounds)
    spans = plan_spans(sizes, workers, lane_width=lane_width,
                       spans_per_worker=spans_per_worker,
                       max_items=chunk_size)
    fingerprint = ""
    if checkpoint is not None:
        fingerprint = _batch_fingerprint(algorithm, length, arch, engine,
                                         payloads)
    options = dict(workers=workers, spans=spans, lane_width=lane_width,
                   timeout=timeout, max_retries=max_retries, policy=policy,
                   checkpoint=checkpoint, fingerprint=fingerprint,
                   transport=mode)
    if mode == "pickle":
        return run_spans_report(
            _HASH_TASK_KIND, len(payloads),
            payload=lambda start, stop: (algorithm, length, arch,
                                         payloads[start:stop], engine),
            collect=lambda start, stop, digests: digests, **options)
    out_size = digest_size(algorithm, length)
    pool = _shm.arena_pool()
    arena = pool.acquire(_shm.required_size(sizes, out_size))
    try:
        arena.pack(payloads, out_size)
        segment = arena.name
        return run_spans_report(
            _HASH_SHM_TASK_KIND, len(payloads),
            payload=lambda start, stop: (segment, start, stop, algorithm,
                                         length, arch, engine),
            collect=lambda start, stop, _ack: arena.read_digests(start,
                                                                 stop),
            **options)
    finally:
        pool.release(arena)


def run_many_report(messages: Sequence[bytes], *,
                    algorithm: str = "sha3_256",
                    length: int = 32,
                    workers: Optional[int] = None,
                    elen: int = 64, lmul: int = 8, elenum: int = 30,
                    chunk_size: Optional[int] = None,
                    timeout: Optional[float] = None,
                    max_retries: int = 2,
                    policy: Optional[RetryPolicy] = None,
                    checkpoint: Optional[str] = None,
                    engine: str = "auto",
                    transport: str = "auto") -> BatchOutcome:
    """:func:`run_many` with the full :class:`BatchOutcome` report.

    Unlike :func:`run_many` this never raises on quarantine: poisoned
    spans surface as ``None`` digests plus a
    :class:`~repro.parallel_exec.hardening.QuarantinedChunk` record.
    """
    return _run_many(messages, algorithm, length, (elen, lmul, elenum),
                     workers or 1, chunk_size, timeout, max_retries, policy,
                     checkpoint, engine, transport)


def run_many(messages: Sequence[bytes], *,
             algorithm: str = "sha3_256",
             length: int = 32,
             workers: Optional[int] = None,
             elen: int = 64, lmul: int = 8, elenum: int = 30,
             chunk_size: Optional[int] = None,
             timeout: Optional[float] = None,
             max_retries: int = 2,
             policy: Optional[RetryPolicy] = None,
             checkpoint: Optional[str] = None,
             engine: str = "auto",
             transport: str = "auto") -> List[bytes]:
    """Hash arbitrarily many messages on the simulator, in parallel.

    Messages are cut into cost-balanced spans of whole lock-step groups
    (SN states per program run, the paper's Table 7/8 batching), and
    spans are distributed across ``workers`` persistent processes, idle
    workers stealing halves of the largest span left.  Those workers
    belong to the process-wide shared pool: the first pooled call forks
    it, later calls with the same ``workers`` reuse its warm workers,
    and a call that hits a crash, timeout or task error shuts it down
    (see :func:`repro.parallel_exec.pool.lease_shared_pool`).  Digests
    return in message order; every digest matches
    ``hashlib`` (or, for the algorithms hashlib lacks, the pure-Python
    reference).  ``algorithm`` accepts the flat sponge algorithms
    (``sha3_256``, ``shake128``, ``shake256``, the ``k12_leaf``
    chaining-value sponge) and the whole-message tree algorithms
    (``k12``, ``parallelhash128``, ``parallelhash256``) — tree messages
    need no lock-step alignment, the leaf batching happening inside
    each worker.  ``workers=None``/``1`` runs serially in this process —
    same spans, no pool.  ``chunk_size`` caps the messages per span
    (default: no cap beyond the cost plan); ``timeout``/``max_retries``
    (or a full :class:`~repro.parallel_exec.hardening.RetryPolicy`) are
    the per-span recovery policy of
    :func:`repro.parallel_exec.run_spans_report`, and ``checkpoint``
    names a JSON manifest enabling kill-and-resume.  ``engine`` selects
    the simulator execution engine for every span (default ``auto``);
    with ``workers > 1`` the parent pre-compiles once so workers load
    the kernel from the shared on-disk cache.

    ``transport`` picks how message bytes reach the workers:
    ``"pickle"`` sends each span's messages through the task queues,
    ``"shm"`` packs the batch into a shared-memory arena that workers
    read from — and write digests into — in place.  Both run the same
    span plan, so they give the same digests and resume from the same
    manifests.  The default ``"auto"`` uses shm for multi-worker batches
    big enough to amortize packing and falls back to pickle otherwise
    (serial runs, tiny batches, platforms without POSIX shared memory).
    """
    return run_many_report(
        messages, algorithm=algorithm, length=length, workers=workers,
        elen=elen, lmul=lmul, elenum=elenum, chunk_size=chunk_size,
        timeout=timeout, max_retries=max_retries, policy=policy,
        checkpoint=checkpoint, engine=engine, transport=transport).flat()
