"""Ahead-of-time code generation: compile a program to flat Python.

The paper's instruction streams are *data independent*: every branch of
the three Keccak programs compares scalar registers whose values are
fully determined by the program text (round counters, loop bounds set up
by ``li``), and every vector instruction executes under a geometry
(VL, SEW, LMUL) established by a ``vsetvli`` whose AVL is one of those
known scalars.  This module exploits that: it *symbolically executes* an
assembled program once at compile time — constant-propagating the scalar
register file, folding every ``vsetvli`` into a static geometry, and
resolving every branch — and emits the entire execution as one flat,
specialized Python function:

* packed VLEN-bit vector registers threaded through locals (``r0..r31``)
  instead of regfile attribute lookups;
* every immediate, ρ-rotation row, round constant and shift/mask plan
  folded into the source as literals (a ``viota`` becomes a single XOR
  with a precomputed broadcast constant);
* whole registers moved at once where the geometry allows: a vector
  load or store over contiguous addresses is one memory-row slice per
  register, and a ``vpi.vi`` that overwrites its whole destination group
  is one OR of five lanes per destination register;
* cycle/instruction/mnemonic accounting reduced to constant increments
  applied once at the end, bit-identical to the fused engine's batched
  ``stats`` flushes.

Compilation *bails out* (returns None, caller falls back to the fused
engine) on anything whose semantics the flat function could not
reproduce exactly: unknown scalar values (scalar loads, CSR reads),
masked vector operations, partial register-group tails, misaligned
groups, out-of-range operands — every case where the generic handlers
would either take a masked slow path or raise.  The fallback rule keeps
fault injection, tracing and instruction limits on the reference
engines (see :meth:`~repro.sim.processor.SIMDProcessor._run_compiled`).

Compiled kernels are cached twice:

* in-process, in a bounded :class:`~repro.sim.lru.LRU` keyed by the
  program fingerprint (word snapshot + architecture + cycle model);
* on disk, as generated source under a *versioned* directory
  (``$REPRO_CODEGEN_CACHE`` or ``~/.cache/repro-codegen/v<N>/``),
  written atomically, so forked pool workers warm-start from the
  parent's compile instead of recompiling per process.  A cache entry
  whose embedded fingerprint does not match its key is discarded and
  recompiled — a corrupted or stale file can cost a recompile, never a
  wrong result.
"""

from __future__ import annotations

import hashlib
import heapq
import os
import tempfile
import time
from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from ..isa import decode_operands
from ..observability import metrics as _metrics
from ..isa.vector import decode_vtype
from ..keccak.constants import (
    NUM_ROUNDS,
    RHO_BY_ROW,
    RHO_OFFSETS,
    ROUND_CONSTANTS,
)
from ..keccak.state import KeccakState
from .lru import LRU
from .timing import TimingModel
from .scalar_core import (
    _ALU_IMM_OPS,
    _ALU_OPS,
    _BRANCHES,
    _DIV_OPS,
    _MASK32,
    _MUL_OPS,
    _SHIFT_IMM_OPS,
    _STORES,
)
from .vector_unit import RC32_TABLE, _sign_extend_to

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..assembler.program import Program
    from .processor import SIMDProcessor

#: Bump whenever the generated code or META layout changes: the on-disk
#: cache directory is versioned, so old entries are simply never seen.
#: v2: cache keys carry the TimingModel fingerprint (issue width, banks,
#: chaining, dispatch override), not just the base CycleModel fields — a
#: kernel compiled under one timing model bakes that model's cycle
#: increments into flat code and must never be served under another.
#: v3: contiguous vector loads/stores move one memory row per register,
#: and a ``vpi.vi``/``vrhopi.vi`` that overwrites its whole destination
#: group builds each register as one expression.
CODEGEN_VERSION = 3

#: Compiled kernels (or None for programs that cannot be compiled) kept
#: in this process, keyed by fingerprint.
_KERNEL_CACHE = LRU(64)

#: Unrolled instruction budget: symbolic execution giving up past this
#: point keeps compile time bounded for adversarial programs (a Keccak
#: permutation unrolls to ~2k instructions).
_MAX_UNROLL = 200_000

#: Observability counters (tests and the cold/warm CI check read these).
#: Always-on module totals; the labeled metrics mirror them when armed
#: (see repro.observability.metrics).
COMPILE_STATS = {
    "compiles": 0,
    "memory_hits": 0,
    "disk_hits": 0,
    "bailouts": 0,
}

_COMPILE_EVENTS = _metrics.registry().counter(
    "sim_codegen_total",
    "Compiled-kernel lookups by outcome "
    "(memory_hit/disk_hit/compile/bailout)", ("event",))
_COMPILE_SECONDS = _metrics.registry().histogram(
    "sim_codegen_compile_seconds",
    "Time to symbolically compile one program")

_MISS = object()

#: Memory accessors a kernel that touches memory binds, by local name.
#: Whole-row vector accesses read the memory's byte array directly and
#: write rows through ``store_bytes`` (bounds check and written-range
#: tracking included); ``_ld``/``_st`` serve scalar stores and the
#: per-element fallback for other strides.
_BINDS = {
    "_mem": "proc.memory._bytes",
    "_fb": "int.from_bytes",
    "_sb": "proc.memory.store_bytes",
    "_ld": "proc.memory.load",
    "_st": "proc.memory.store",
}

_BITWISE_OPS = {
    "vand": ("&", lambda a, b: a & b),
    "vor": ("|", lambda a, b: a | b),
    "vxor": ("^", lambda a, b: a ^ b),
}


class CompiledKernel:
    """One compiled program: the function plus its run preconditions."""

    __slots__ = ("fn", "meta", "source")

    def __init__(self, fn, meta: dict, source: str) -> None:
        self.fn = fn
        self.meta = meta
        self.source = source


class _Bail(Exception):
    """Raised internally when a program cannot be compiled exactly."""


# -- fingerprinting -------------------------------------------------------------


def program_fingerprint(processor: "SIMDProcessor",
                        program: "Program") -> str:
    """A stable key for (program words x architecture x timing model).

    Built on the same word snapshot the predecode cache validates
    against: any in-place mutation of the program re-fingerprints, so a
    compiled kernel can never be applied to words it was not built from.
    The timing-model fingerprint covers every cost-determining knob
    (base cycle costs, issue width, register banks, chaining, dispatch
    override) — compiled kernels precompute their stats increments, so
    a kernel compiled under one timing model must never be served under
    another.
    """
    payload = (
        CODEGEN_VERSION,
        processor.elen,
        processor.elenum,
        processor.vlen_bits,
        processor.memory.size,
        TimingModel.of(processor.cycle_model).fingerprint(),
        program.base_address,
        tuple(inst.word for inst in program.instructions),
    )
    return hashlib.sha256(repr(payload).encode()).hexdigest()[:40]


# -- on-disk cache --------------------------------------------------------------


def cache_dir() -> Optional[str]:
    """The versioned cache directory, or None when disk caching is off.

    ``REPRO_CODEGEN_CACHE`` overrides the default ``~/.cache`` location;
    setting it to an empty string disables the disk cache entirely.
    """
    root = os.environ.get("REPRO_CODEGEN_CACHE")
    if root is None:
        root = os.path.join(os.path.expanduser("~"), ".cache",
                            "repro-codegen")
    elif not root:
        return None
    return os.path.join(root, f"v{CODEGEN_VERSION}")


def _disk_path(fingerprint: str) -> Optional[str]:
    directory = cache_dir()
    if directory is None:
        return None
    return os.path.join(directory, f"{fingerprint}.py")


def _load_disk(fingerprint: str) -> Optional[str]:
    path = _disk_path(fingerprint)
    if path is None:
        return None
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError:
        return None


def _store_disk(fingerprint: str, source: str) -> None:
    """Atomic write: a crashed or concurrent writer never leaves a torn
    file for another process to read."""
    path = _disk_path(fingerprint)
    if path is None:
        return
    try:
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(source)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError:
        pass  # disk cache is best-effort; in-process cache still works


def _header(fingerprint: str) -> str:
    return f"# repro-codegen v{CODEGEN_VERSION} {fingerprint}"


def _kernel_from_source(source: str,
                        fingerprint: str) -> Optional[CompiledKernel]:
    """Compile cached source back into a kernel; None on *any* mismatch.

    The embedded header and META fingerprint must both match the
    requested key — a stale, truncated or corrupted cache entry fails
    here and triggers a clean recompile.
    """
    try:
        first_line = source.split("\n", 1)[0]
        if first_line != _header(fingerprint):
            return None
        namespace: dict = {}
        exec(compile(source, f"<repro-codegen {fingerprint[:12]}>", "exec"),
             namespace)
        meta = namespace["META"]
        if meta["version"] != CODEGEN_VERSION:
            return None
        if meta["fingerprint"] != fingerprint:
            return None
        for key in ("entry_pc", "final_pc", "instructions", "cycles"):
            if not isinstance(meta[key], int):
                return None
        if not isinstance(meta["sregs"], dict):
            return None
        fn = namespace["kernel"]
        if not callable(fn):
            return None
        return CompiledKernel(fn, meta, source)
    except Exception:
        return None


def clear_memory_cache() -> None:
    """Drop every in-process kernel (tests; forces disk/regenerate)."""
    _KERNEL_CACHE.clear()


# -- public entry points --------------------------------------------------------


def get_or_compile(processor: "SIMDProcessor", fingerprint: str,
                   program: "Program") -> Optional[CompiledKernel]:
    """The compiled kernel for ``program`` on ``processor``'s
    architecture, or None when the program cannot be compiled.

    Lookup order: in-process LRU, on-disk cache, fresh generation (which
    then populates both).  Negative results are cached in-process so an
    uncompilable program costs one symbolic-execution attempt, not one
    per run.
    """
    cached = _KERNEL_CACHE.get(fingerprint, _MISS)
    if cached is not _MISS:
        COMPILE_STATS["memory_hits"] += 1
        if _metrics.ARMED:
            _COMPILE_EVENTS.inc(event="memory_hit")
        return cached

    source = _load_disk(fingerprint)
    if source is not None:
        kernel = _kernel_from_source(source, fingerprint)
        if kernel is not None:
            COMPILE_STATS["disk_hits"] += 1
            if _metrics.ARMED:
                _COMPILE_EVENTS.inc(event="disk_hit")
            _KERNEL_CACHE.put(fingerprint, kernel)
            return kernel

    started = time.perf_counter() if _metrics.ARMED else 0.0
    generated = _generate(processor, program, fingerprint)
    if _metrics.ARMED:
        _COMPILE_SECONDS.observe(time.perf_counter() - started)
    if generated is None:
        COMPILE_STATS["bailouts"] += 1
        if _metrics.ARMED:
            _COMPILE_EVENTS.inc(event="bailout")
        _KERNEL_CACHE.put(fingerprint, None)
        return None
    kernel = _kernel_from_source(generated, fingerprint)
    if kernel is None:  # pragma: no cover - generator/loader mismatch
        _KERNEL_CACHE.put(fingerprint, None)
        return None
    COMPILE_STATS["compiles"] += 1
    if _metrics.ARMED:
        _COMPILE_EVENTS.inc(event="compile")
    _store_disk(fingerprint, generated)
    _KERNEL_CACHE.put(fingerprint, kernel)
    return kernel


def warm(processor: "SIMDProcessor") -> Optional[CompiledKernel]:
    """Compile the processor's loaded program without running it.

    ``parallel_exec`` drivers call this in the *parent* before starting
    the pool: the compile lands in the on-disk cache, and every forked
    worker's first run loads by fingerprint instead of recompiling.
    """
    program = processor.program
    if program is None:
        raise ValueError("no program loaded")
    fingerprint = program_fingerprint(processor, program)
    return get_or_compile(processor, fingerprint, program)


# -- code generation ------------------------------------------------------------


def _generate(processor: "SIMDProcessor", program: "Program",
              fingerprint: str) -> Optional[str]:
    """Symbolically execute ``program`` and render the kernel source.

    Returns None when any instruction (or any reachable architectural
    situation) cannot be reproduced exactly by flat code — the caller
    falls back to the fused engine, which *is* exact.
    """
    try:
        gen = _Generator(processor, program)
        gen.run()
        return gen.render(fingerprint)
    except _Bail:
        return None


class _Generator:
    """Symbolic executor + source emitter for one program."""

    def __init__(self, processor: "SIMDProcessor",
                 program: "Program") -> None:
        self.isa = processor._isa
        self.cm = processor.cycle_model
        self.vlen = processor.vlen_bits
        self.mem_size = processor.memory.size
        self.base = program.base_address
        self.decoded: List[Optional[tuple]] = []
        for inst in program.instructions:
            try:
                spec = self.isa.find(inst.word)
            except LookupError:
                self.decoded.append(None)
                continue
            self.decoded.append((spec, decode_operands(inst.word, spec)))

        # Symbolic scalar state: every value is a known constant, or we
        # bail.  Registers read before the program writes them become
        # run-time preconditions (they must still hold their reset value
        # of zero, or the kernel does not apply).
        self.sregs = [0] * 32
        self.written: set = set()
        self.pre_reads: Dict[int, int] = {}
        # Vector configuration: starts at the architectural reset values;
        # any use before the first vsetvli becomes a precondition too.
        self.vl, self.sew, self.lmul = 0, 64, 1
        self.config_virgin = True
        self.initial_config_used = False
        self.config_touched = False

        self.lines: List[str] = []
        self.cycles = 0
        self.instructions = 0
        self.counts: Counter = Counter()
        self.cyc: Counter = Counter()
        self.uses_memory = False
        self.final_pc = 0

    # -- symbolic scalar helpers ------------------------------------------------

    def _sread(self, reg: int) -> int:
        if reg == 0:
            return 0
        if reg not in self.written and reg not in self.pre_reads:
            self.pre_reads[reg] = 0
        return self.sregs[reg]

    def _swrite(self, reg: int, value: int) -> None:
        if reg != 0:
            self.sregs[reg] = value & _MASK32
            self.written.add(reg)

    def _account(self, mnemonic: str, cost: int) -> None:
        self.cycles += cost
        self.instructions += 1
        self.counts[mnemonic] += 1
        self.cyc[mnemonic] += cost

    def _emit(self, line: str) -> None:
        self.lines.append(line)

    # -- main walk ---------------------------------------------------------------

    def run(self) -> None:
        pc = self.base
        size = len(self.decoded)
        for _ in range(_MAX_UNROLL):
            offset = pc - self.base
            index = offset >> 2
            if offset & 3 or not 0 <= index < size:
                raise _Bail  # would fault: keep the exact fault on fused
            entry = self.decoded[index]
            if entry is None:
                raise _Bail  # undecodable word: fault on fused
            spec, ops = entry
            mnemonic = spec.mnemonic
            if mnemonic == "vsetvli":
                self._do_vsetvli(ops)
            elif spec.extension == "zicsr":
                raise _Bail  # CSRs observe live counters: fused only
            elif spec.extension in ("rvv", "custom"):
                self._do_vector(spec, ops)
            elif mnemonic in ("ecall", "ebreak"):
                self._account(mnemonic, self.cm.scalar_alu)
                self.final_pc = (pc + 4) & _MASK32
                return
            else:
                next_pc = self._do_scalar(spec, ops, pc)
                if next_pc is not None:
                    pc = next_pc
                    continue
            pc = (pc + 4) & _MASK32
        raise _Bail  # did not halt within the unroll budget

    # -- scalar instructions -----------------------------------------------------

    def _do_scalar(self, spec, ops, pc: int) -> Optional[int]:
        """Execute one scalar instruction symbolically.

        Returns the branch/jump target, or None for fall-through.
        """
        m = spec.mnemonic
        cm = self.cm
        if m in _ALU_OPS:
            value = _ALU_OPS[m](self._sread(ops["rs1"]),
                                self._sread(ops["rs2"]))
            self._swrite(ops["rd"], value)
            self._account(m, cm.scalar_alu)
            return None
        if m in _ALU_IMM_OPS:
            value = _ALU_IMM_OPS[m](self._sread(ops["rs1"]), ops["imm"])
            self._swrite(ops["rd"], value)
            self._account(m, cm.scalar_alu)
            return None
        if m in _SHIFT_IMM_OPS:
            value = _SHIFT_IMM_OPS[m](self._sread(ops["rs1"]), ops["shamt"])
            self._swrite(ops["rd"], value)
            self._account(m, cm.scalar_alu)
            return None
        if m in _MUL_OPS:
            value = _MUL_OPS[m](self._sread(ops["rs1"]),
                                self._sread(ops["rs2"]))
            self._swrite(ops["rd"], value)
            self._account(m, cm.scalar_mul)
            return None
        if m in _DIV_OPS:
            value = _DIV_OPS[m](self._sread(ops["rs1"]),
                                self._sread(ops["rs2"]))
            self._swrite(ops["rd"], value)
            self._account(m, cm.scalar_div)
            return None
        if m in _STORES:
            width = _STORES[m]
            address = (self._sread(ops["rs1"]) + ops["imm"]) & _MASK32
            if address + width // 8 > self.mem_size:
                raise _Bail  # would fault at run time
            value = self._sread(ops["rs2"]) & ((1 << width) - 1)
            self.uses_memory = True
            self._emit(f"_st({address}, {width}, {value})")
            self._account(m, cm.scalar_store)
            return None
        if m in _BRANCHES:
            taken = _BRANCHES[m](self._sread(ops["rs1"]),
                                 self._sread(ops["rs2"]))
            if taken:
                self._account(m, cm.branch_taken)
                return (pc + ops["offset"]) & _MASK32
            self._account(m, cm.branch_not_taken)
            return None
        if m == "lui":
            self._swrite(ops["rd"], (ops["imm"] << 12) & _MASK32)
            self._account(m, cm.scalar_alu)
            return None
        if m == "auipc":
            self._swrite(ops["rd"], (pc + (ops["imm"] << 12)) & _MASK32)
            self._account(m, cm.scalar_alu)
            return None
        if m == "jal":
            self._swrite(ops["rd"], (pc + 4) & _MASK32)
            self._account(m, cm.jump)
            return (pc + ops["offset"]) & _MASK32
        if m == "jalr":
            target = ((self._sread(ops["rs1"]) + ops["imm"]) & ~1) & _MASK32
            self._swrite(ops["rd"], (pc + 4) & _MASK32)
            self._account(m, cm.jump)
            return target
        if m == "fence":
            self._account(m, cm.scalar_alu)
            return None
        raise _Bail  # scalar loads and everything else: fused only

    # -- vsetvli -----------------------------------------------------------------

    def _do_vsetvli(self, ops) -> None:
        rd, rs1 = ops["rd"], ops["rs1"]
        if rs1 != 0:
            avl = self._sread(rs1)
        elif rd != 0:
            avl = 1 << 31
        else:
            if self.config_virgin:
                self.initial_config_used = True
            avl = self.vl
        try:
            parts = decode_vtype(ops["vtype"])
        except ValueError:
            raise _Bail  # reserved vtype faults: keep it on fused
        sew, lmul = parts["sew"], parts["lmul"]
        if sew <= 0 or self.vlen % sew:
            raise _Bail
        self.sew, self.lmul = sew, lmul
        self.vl = min(avl, (self.vlen // sew) * lmul)
        self.config_virgin = False
        self.config_touched = True
        self._swrite(rd, self.vl)
        self._account("vsetvli", self.cm.vsetvli)

    # -- vector geometry ---------------------------------------------------------

    def _geometry(self, lanes_of_five: bool):
        """(per_reg, passes) under the whole-register preconditions the
        packed emitters need; bails to the fused engine otherwise."""
        if self.config_virgin:
            self.initial_config_used = True
        vl, sew = self.vl, self.sew
        if vl <= 0 or sew <= 0 or self.vlen % sew:
            raise _Bail
        per_reg = self.vlen // sew
        if vl % per_reg or (lanes_of_five and per_reg % 5):
            raise _Bail
        return per_reg, vl // per_reg

    def _groups_ok(self, passes: int, *bases: int) -> None:
        for b in bases:
            if b + passes > 32 or (self.lmul > 1 and b % self.lmul):
                raise _Bail

    def _emask(self) -> int:
        return (1 << self.sew) - 1

    def _full_mask(self) -> int:
        return (1 << self.vlen) - 1

    def _lane_mask(self, per_reg: int, lanes, bits: Optional[int] = None
                   ) -> int:
        """Mask selecting ``bits`` low bits of every element whose lane
        index (slot mod 5) is in ``lanes``."""
        sew = self.sew
        if bits is None:
            bits = sew
        emask = (1 << bits) - 1
        mask = 0
        for slot in range(per_reg):
            if slot % 5 in lanes:
                mask |= emask << (slot * sew)
        return mask

    def _all_mask(self, per_reg: int, bits: int) -> int:
        sew = self.sew
        emask = (1 << bits) - 1
        mask = 0
        for slot in range(per_reg):
            mask |= emask << (slot * sew)
        return mask

    def _rho_rows(self, simm: int, passes: int) -> List[int]:
        if simm == -1:
            return [p % 5 for p in range(passes)]
        if 0 <= simm <= 4:
            if self.lmul != 1 and passes > 1:
                raise _Bail  # generic raises here: keep the fault exact
            return [simm] * passes
        raise _Bail  # invalid immediate faults on the generic handler

    # -- vector instructions -----------------------------------------------------

    def _do_vector(self, spec, ops) -> None:
        m = spec.mnemonic
        if ops.get("vm", 1) != 1:
            raise _Bail  # masked execution: generic handlers only
        stem = m.split(".")[0]
        if stem in _BITWISE_OPS:
            self._vec_bitwise(spec, ops, stem)
        elif m in ("vslidedownm.vi", "vslideupm.vi"):
            self._vec_slide(ops, down=(m == "vslidedownm.vi"))
        elif m == "vrotup.vi":
            self._vec_rotup(ops)
        elif m == "v64rho.vi":
            self._vec_v64rho(ops)
        elif m == "vchi.vi":
            self._vec_vchi(ops)
        elif m == "viota.vx":
            self._vec_viota(ops)
        elif m in ("vpi.vi", "vrhopi.vi"):
            self._vec_column_write(ops, with_rho=(m == "vrhopi.vi"))
        elif m in ("v32lrho.vv", "v32hrho.vv"):
            self._vec_v32pair(ops, keep_high=(m == "v32hrho.vv"),
                              is_rho=True, mnemonic=m)
        elif m in ("v32lrotup.vv", "v32hrotup.vv"):
            self._vec_v32pair(ops, keep_high=(m == "v32hrotup.vv"),
                              is_rho=False, mnemonic=m)
        elif spec.extra.get("mop") in ("unit", "strided"):
            if m.startswith("vl"):
                self._vec_load(spec, ops)
            else:
                self._vec_store(spec, ops)
        else:
            raise _Bail  # anything else executes on the fused engine

    def _vec_bitwise(self, spec, ops, stem: str) -> None:
        symbol, _ = _BITWISE_OPS[stem]
        per_reg, passes = self._geometry(False)
        vd, vs2 = ops["vd"], ops["vs2"]
        if spec.fmt == "v_vv":
            vs1 = ops["vs1"]
            self._groups_ok(passes, vd, vs2, vs1)
            for p in range(passes):
                self._emit(f"r{vd + p} = r{vs2 + p} {symbol} r{vs1 + p}")
        else:
            self._groups_ok(passes, vd, vs2)
            sew = self.sew
            if spec.fmt == "v_vx":
                scalar = _sign_extend_to(self._sread(ops["rs1"]), 32, sew)
            else:  # v_vi
                imm = ops["imm"] & 0x1F
                if spec.extra.get("signed_imm", True):
                    scalar = _sign_extend_to(imm, 5, sew)
                else:
                    scalar = imm
            packed = 0
            for _ in range(per_reg):
                packed = (packed << sew) | scalar
            for p in range(passes):
                self._emit(
                    f"r{vd + p} = r{vs2 + p} {symbol} {hex(packed)}"
                )
        self._account(spec.mnemonic, self.cm.vector_arith(passes))

    def _vec_slide(self, ops, down: bool) -> None:
        per_reg, passes = self._geometry(True)
        vd, vs2 = ops["vd"], ops["vs2"]
        self._groups_ok(passes, vd, vs2)
        offset = ops["imm"] % 5
        sew = self.sew
        mnemonic = "vslidedownm.vi" if down else "vslideupm.vi"
        if offset == 0:
            for p in range(passes):
                self._emit(f"r{vd + p} = r{vs2 + p}")
            self._account(mnemonic, self.cm.vector_arith(passes))
            return
        # Destination lane j takes source lane (j +/- offset) mod 5; lanes
        # sharing a shift delta merge into one mask term.
        deltas: Dict[int, List[int]] = {}
        for j in range(5):
            src_lane = (j + offset) % 5 if down else (j - offset) % 5
            deltas.setdefault(src_lane - j, []).append(j)
        for p in range(passes):
            src = f"r{vs2 + p}"
            terms = []
            for delta, lanes in sorted(deltas.items()):
                mask = hex(self._lane_mask(per_reg, lanes))
                if delta > 0:
                    terms.append(f"(({src} >> {delta * sew}) & {mask})")
                elif delta < 0:
                    terms.append(f"(({src} << {-delta * sew}) & {mask})")
                else:
                    terms.append(f"({src} & {mask})")
            self._emit(f"r{vd + p} = " + " | ".join(terms))
        self._account(mnemonic, self.cm.vector_arith(passes))

    def _rotate_terms(self, src: str, amount: int, mask_bits: int,
                      lanes, per_reg: int) -> str:
        """Source text rotating each selected ``mask_bits``-wide element
        of ``src`` left by ``amount``, masked to those elements."""
        lane_set = lanes if lanes is not None else range(5)
        if amount % mask_bits == 0:
            keep = hex(self._lane_mask(per_reg, lane_set, mask_bits)) \
                if lanes is not None else \
                hex(self._all_mask(per_reg, mask_bits))
            return f"({src} & {keep})"
        amount %= mask_bits
        if lanes is not None:
            stay = self._lane_mask(per_reg, lane_set, mask_bits - amount)
            wrap = self._lane_mask(per_reg, lane_set, amount)
        else:
            stay = self._all_mask(per_reg, mask_bits - amount)
            wrap = self._all_mask(per_reg, amount)
        down = mask_bits - amount
        return (f"((({src} & {hex(stay)}) << {amount}) | "
                f"(({src} >> {down}) & {hex(wrap)}))")

    def _vec_rotup(self, ops) -> None:
        if self.sew != 64:
            raise _Bail  # generic raises for SEW != 64
        per_reg, passes = self._geometry(False)
        vd, vs2 = ops["vd"], ops["vs2"]
        self._groups_ok(passes, vd, vs2)
        amount = ops["imm"] % 64
        for p in range(passes):
            expr = self._rotate_terms(f"r{vs2 + p}", amount, 64, None,
                                      per_reg)
            self._emit(f"r{vd + p} = {expr}")
        self._account("vrotup.vi", self.cm.vector_arith(passes))

    def _vec_v64rho(self, ops) -> None:
        if self.sew != 64:
            raise _Bail
        per_reg, passes = self._geometry(True)
        vd, vs2 = ops["vd"], ops["vs2"]
        self._groups_ok(passes, vd, vs2)
        rows = self._rho_rows(ops["imm"], passes)
        for p, row in enumerate(rows):
            amounts = RHO_BY_ROW[row]
            by_amount: Dict[int, List[int]] = {}
            for lane in range(5):
                by_amount.setdefault(amounts[lane], []).append(lane)
            src = f"r{vs2 + p}"
            terms = [
                self._rotate_terms(src, amount, 64, lanes, per_reg)
                for amount, lanes in sorted(by_amount.items())
            ]
            self._emit(f"r{vd + p} = " + " | ".join(terms))
        self._account("v64rho.vi", self.cm.vector_arith(passes))

    def _vec_vchi(self, ops) -> None:
        if ops["imm"] != 0:
            raise _Bail
        per_reg, passes = self._geometry(True)
        vd, vs2 = ops["vd"], ops["vs2"]
        self._groups_ok(passes, vd, vs2)
        sew = self.sew

        def shuffle(k: int):
            near = wrap = 0
            emask = self._emask()
            for slot in range(per_reg):
                if slot % 5 + k < 5:
                    near |= emask << (slot * sew)
                else:
                    wrap |= emask << (slot * sew)
            return near, wrap

        near1, wrap1 = shuffle(1)
        near2, wrap2 = shuffle(2)
        full = hex(self._full_mask())
        for p in range(passes):
            src = f"r{vs2 + p}"
            self._emit(f"_a = (({src} >> {sew}) & {hex(near1)}) | "
                       f"(({src} << {4 * sew}) & {hex(wrap1)})")
            self._emit(f"_b = (({src} >> {2 * sew}) & {hex(near2)}) | "
                       f"(({src} << {3 * sew}) & {hex(wrap2)})")
            self._emit(f"r{vd + p} = {src} ^ ((_a ^ {full}) & _b)")
        self._account("vchi.vi", self.cm.vector_arith(passes))

    def _vec_viota(self, ops) -> None:
        per_reg, passes = self._geometry(True)
        vd, vs2 = ops["vd"], ops["vs2"]
        self._groups_ok(passes, vd, vs2)
        sew = self.sew
        if sew == 64:
            table = ROUND_CONSTANTS
        elif sew == 32:
            table = RC32_TABLE
        else:
            raise _Bail
        index = self._sread(ops["rs1"])
        if not 0 <= index < len(table):
            raise _Bail  # out-of-range index faults on the generic path
        spread = sum(1 << (5 * k * sew) for k in range(per_reg // 5))
        packed_rc = table[index] * spread
        for p in range(passes):
            self._emit(f"r{vd + p} = r{vs2 + p} ^ {hex(packed_rc)}")
        self._account("viota.vx", self.cm.vector_arith(passes))

    def _vec_column_write(self, ops, with_rho: bool) -> None:
        if with_rho and self.sew != 64:
            raise _Bail
        per_reg, passes = self._geometry(True)
        vd, vs2 = ops["vd"], ops["vs2"]
        if vd + 5 > 32:
            raise _Bail
        self._groups_ok(passes, vs2)
        overlap = vs2 < vd + 5 and vd < vs2 + passes
        if overlap and passes > 1:
            raise _Bail  # write-through re-read semantics: generic only
        rows = self._rho_rows(ops["imm"], passes)
        mnemonic = "vrhopi.vi" if with_rho else "vpi.vi"

        def term(src: str, row: int, lane: int) -> str:
            # Source lane ``lane`` of row ``row``, rho-rotated if asked,
            # moved into the destination's lane slot ``row``.
            amount = RHO_BY_ROW[row][lane] if with_rho else 0
            expr = self._rotate_terms(src, amount, self.sew, (lane,),
                                      per_reg)
            delta = (row - lane) * self.sew
            if delta > 0:
                return f"({expr} << {delta})"
            if delta < 0:
                return f"({expr} >> {-delta})"
            return expr

        if not overlap and sorted(rows) == [0, 1, 2, 3, 4]:
            # The five rows overwrite every lane slot of all five
            # destination registers: build each one whole, straight
            # from the untouched sources.
            planes: Dict[int, List[str]] = {}
            for p, row in enumerate(rows):
                for lane in range(5):
                    planes.setdefault((2 * (lane - row)) % 5, []).append(
                        term(f"r{vs2 + p}", row, lane))
            for plane in range(5):
                self._emit(f"r{vd + plane} = " + " | ".join(planes[plane]))
            self._account(mnemonic, self.cm.vector_pi(passes))
            return
        full = self._full_mask()
        for p, row in enumerate(rows):
            # Snapshot the source register: with a single overlapping
            # pass the plane updates below may write into it.
            self._emit(f"_t = r{vs2 + p}")
            clear = hex(full ^ self._lane_mask(per_reg, (row,)))
            for lane in range(5):
                plane = (2 * (lane - row)) % 5
                self._emit(f"r{vd + plane} = (r{vd + plane} & {clear}) | "
                           f"{term('_t', row, lane)}")
        self._account(mnemonic, self.cm.vector_pi(passes))

    def _vec_v32pair(self, ops, keep_high: bool, is_rho: bool,
                     mnemonic: str) -> None:
        if self.sew != 32:
            raise _Bail
        per_reg, passes = self._geometry(is_rho)
        vd, vs2, vs1 = ops["vd"], ops["vs2"], ops["vs1"]
        self._groups_ok(passes, vd, vs2, vs1)
        for p in range(passes):
            hi, lo = f"r{vs2 + p}", f"r{vs1 + p}"
            if is_rho:
                amounts = RHO_BY_ROW[p % 5]
                by_amount: Dict[int, List[int]] = {}
                for lane in range(5):
                    by_amount.setdefault(amounts[lane], []).append(lane)
                groups = [(a, lanes)
                          for a, lanes in sorted(by_amount.items())]
            else:
                groups = [(1, None)]  # uniform ROT by 1 over all elements
            terms = []
            for amount, lanes in groups:
                # A 64-bit rotation of hi||lo by `amount`: the kept half
                # is built from whole-register shifts of the packed
                # 32-bit halves (amount >= 32 swaps their roles).
                if amount >= 32:
                    a, first, second = amount - 32, lo, hi
                else:
                    a, first, second = amount, hi, lo
                if not keep_high:
                    first, second = second, first
                if lanes is None:
                    stay = self._all_mask(per_reg, 32 - a) if a else \
                        self._all_mask(per_reg, 32)
                    wrap = self._all_mask(per_reg, a)
                else:
                    stay = self._lane_mask(per_reg, lanes, 32 - a) if a \
                        else self._lane_mask(per_reg, lanes, 32)
                    wrap = self._lane_mask(per_reg, lanes, a)
                if a == 0:
                    terms.append(f"({first} & {hex(stay)})")
                else:
                    terms.append(
                        f"((({first} & {hex(stay)}) << {a}) | "
                        f"(({second} >> {32 - a}) & {hex(wrap)}))"
                    )
            self._emit(f"r{vd + p} = " + " | ".join(terms))
        self._account(mnemonic, self.cm.vector_arith(passes))

    # -- vector memory -----------------------------------------------------------

    def _vec_addresses(self, spec, ops) -> List[int]:
        base = self._sread(ops["rs1"]) & _MASK32
        width_bytes = spec.extra["width"] // 8
        if spec.extra["mop"] == "unit":
            stride = width_bytes
        else:
            stride = self._sread(ops["rs2"]) & _MASK32
        addresses = [base + i * stride for i in range(self.vl)]
        for address in addresses:
            if address < 0 or address + width_bytes > self.mem_size:
                raise _Bail  # out-of-bounds access faults on fused
        return addresses

    def _vec_mem_geometry(self, width: int):
        if self.config_virgin:
            self.initial_config_used = True
        if self.vlen % width:
            raise _Bail
        per_reg = self.vlen // width
        vl = self.vl
        passes = 1 if vl == 0 else -(-vl // per_reg)
        return per_reg, passes

    def _vec_rows(self, spec, ops):
        """Register passes of one unit/strided access: ``(rows,
        contiguous, passes)``, where ``rows`` pairs each register the
        access touches with its element addresses and ``contiguous``
        says every address follows the previous one (a row of memory
        per register)."""
        width = spec.extra["width"]
        per_reg, passes = self._vec_mem_geometry(width)
        base_reg = ops["vd"]  # stores carry their data register here too
        if base_reg + passes > 32:
            raise _Bail
        addresses = self._vec_addresses(spec, ops)
        self.uses_memory = True
        contiguous = all(b - a == width // 8
                         for a, b in zip(addresses, addresses[1:]))
        rows = [(base_reg + p, addresses[p * per_reg:(p + 1) * per_reg])
                for p in range(passes) if p * per_reg < self.vl]
        return rows, contiguous, passes

    def _vec_load(self, spec, ops) -> None:
        width = spec.extra["width"]
        rows, contiguous, passes = self._vec_rows(spec, ops)
        for reg, addresses in rows:
            bits = len(addresses) * width
            if contiguous:
                start = addresses[0]
                packed = f"_fb(_mem[{start}:{start + bits // 8}], 'little')"
            else:
                packed = " | ".join(
                    f"(_ld({address}, {width}) << {i * width})" if i
                    else f"_ld({address}, {width})"
                    for i, address in enumerate(addresses))
            if bits < self.vlen:
                keep = self._full_mask() ^ ((1 << bits) - 1)
                self._emit(f"r{reg} = (r{reg} & {hex(keep)}) | ({packed})")
            else:
                self._emit(f"r{reg} = {packed}")
        self._account(spec.mnemonic, self.cm.vector_memory(passes))

    def _vec_store(self, spec, ops) -> None:
        width = spec.extra["width"]
        rows, contiguous, passes = self._vec_rows(spec, ops)
        emask = hex((1 << width) - 1)
        for reg, addresses in rows:
            bits = len(addresses) * width
            if contiguous:
                # One bounds-checked, range-tracked row write.
                value = f"r{reg}" if bits == self.vlen \
                    else f"(r{reg} & {hex((1 << bits) - 1)})"
                self._emit(f"_sb({addresses[0]}, "
                           f"{value}.to_bytes({bits // 8}, 'little'))")
                continue
            for slot, address in enumerate(addresses):
                value = f"(r{reg} >> {slot * width}) & {emask}" if slot \
                    else f"r{reg} & {emask}"
                self._emit(f"_st({address}, {width}, {value})")
        self._account(spec.mnemonic, self.cm.vector_memory(passes))

    # -- rendering ---------------------------------------------------------------

    def render(self, fingerprint: str) -> str:
        meta = {
            "version": CODEGEN_VERSION,
            "fingerprint": fingerprint,
            "entry_pc": self.base,
            "final_pc": self.final_pc,
            "instructions": self.instructions,
            "cycles": self.cycles,
            "sregs": dict(sorted(self.pre_reads.items())),
            "vconfig": [0, 64, 1] if self.initial_config_used else None,
        }
        names = ", ".join(f"r{i}" for i in range(32))
        out: List[str] = [
            _header(fingerprint),
            '"""Generated by repro.sim.codegen - do not edit."""',
            f"META = {meta!r}",
            "",
            "",
            "def kernel(proc):",
            "    _v = proc.vector",
            "    _regs = _v.regfile._regs",
            f"    {names} = _regs",
        ]
        if self.uses_memory:
            out.extend(f"    {name} = {value}"
                       for name, value in _BINDS.items())
        out.extend(f"    {line}" for line in self.lines)
        out.append(f"    _regs[:] = ({names})")
        if self.written:
            out.append("    _s = proc.scalar._regs")
            for reg in sorted(self.written):
                out.append(f"    _s[{reg}] = {self.sregs[reg]}")
        if self.config_touched:
            out.append(f"    _v.vl = {self.vl}")
            out.append(f"    _v.sew = {self.sew}")
            out.append(f"    _v.lmul = {self.lmul}")
        out.append(f"    proc.scalar.pc = {self.final_pc}")
        out.append("    proc.halted = True")
        out.append("    _stats = proc.stats")
        out.append(f"    _stats.cycles += {self.cycles}")
        out.append(f"    _stats.instructions += {self.instructions}")
        out.append(
            f"    _stats.mnemonic_counts.update({dict(self.counts)!r})"
        )
        out.append(
            f"    _stats.mnemonic_cycles.update({dict(self.cyc)!r})"
        )
        out.append("")
        return "\n".join(out)


# -- structure-of-arrays mega-batch kernels -------------------------------------
#
# The compiled engine above removes per-instruction dispatch but still
# executes one SN-sized state group per Python call, so a 1000-message
# batch pays ~170 engine invocations of interpreter overhead (reset,
# memory-image build, kernel call, read-back).  The SoA compiler removes
# *per-message* dispatch too: it emits a fully unrolled Keccak-p[1600]
# permutation over 25 packed giant-int *columns*, where column ``i``
# carries lane ``i`` of every message in the batch —
#
#     col[i] = sum(state_g.lanes[i] << (64 * g)  for g in 0..lanes-1)
#
# (the state-interleaved layout of the RVV lane-packing literature; see
# ``repro.keccak.interleave`` for the in-repo seed of the idiom).  Every
# theta/chi XOR then processes the whole batch in one Python bignum op,
# and a lane-local rotation becomes two shifts and two masks because the
# 64-bit fields are contiguous:
#
#     rot(col, r) = ((col & M[64-r]) << r) | ((col >> (64-r)) & M[r])
#
# with ``M[b]`` selecting the low ``b`` bits of every field.  The result
# is a *functional* fast path: digests only, no cycle model — the paper
# pins (2564/1892/3620 permutation cycles, 103/75/147 cycles/round) stay
# owned by the per-state engines.  Kernels are cached exactly like
# program kernels: same in-process LRU, same versioned on-disk cache
# (keyed by a distinct ``("soa", version, lanes, rounds)`` fingerprint),
# so pool parents pre-compile once and forked workers warm-start.

#: The cap on messages per SoA kernel call (the lane budget) unless
#: ``REPRO_SOA_LANES`` overrides it.  64 lanes = 4096-bit columns:
#: big enough to amortize dispatch, small enough that Python bignum
#: ops stay cheap.  The resident sponge runs narrower kernels when
#: they make no more calls (:func:`soa_sponge_plan`).
SOA_DEFAULT_LANES = 64

#: Kernel widths the resident sponge chooses from, narrowest first:
#: powers of two up to 16 lanes, then steps of 8.  A fixed ladder keeps
#: the set of kernels a batch mix compiles (and a pool parent warms)
#: small.
_SOA_LADDER = (1, 2, 4, 8, 16, 24, 32, 40, 48, 56, 64)

#: Batches of at most this many messages keep the bucket width.
_SOA_LADDER_MIN_BATCH = 16

#: Always-on SoA counters, mirrored to labeled metrics when armed
#: (same discipline as COMPILE_STATS above).
SOA_STATS = {
    "compiles": 0,
    "memory_hits": 0,
    "disk_hits": 0,
    "kernel_calls": 0,
    "lanes_hashed": 0,
    "lanes_padded": 0,
}

_SOA_EVENTS = _metrics.registry().counter(
    "sim_soa_codegen_total",
    "SoA batch-kernel lookups by outcome (memory_hit/disk_hit/compile)",
    ("event",))
_SOA_COMPILE_SECONDS = _metrics.registry().histogram(
    "sim_soa_compile_seconds",
    "Time to generate one SoA batch kernel")
_SOA_CALLS = _metrics.registry().counter(
    "sim_soa_kernel_calls_total",
    "SoA batch-kernel invocations by lane bucket", ("lanes",))
_SOA_OCCUPANCY = _metrics.registry().histogram(
    "sim_soa_lane_occupancy",
    "Fraction of SoA kernel lanes carrying real states",
    buckets=(0.125, 0.25, 0.5, 0.75, 0.875, 1.0))


def soa_width() -> int:
    """The configured SoA lane budget (``REPRO_SOA_LANES`` or default)."""
    raw = os.environ.get("REPRO_SOA_LANES")
    if raw:
        try:
            width = int(raw)
        except ValueError:
            return SOA_DEFAULT_LANES
        if width >= 1:
            return width
    return SOA_DEFAULT_LANES


def soa_bucket(count: int) -> int:
    """The kernel lane count serving a ``count``-message group.

    Power-of-two bucketing: ragged final groups share a handful of
    kernel size classes (1, 2, 4, ... lanes) instead of compiling one
    kernel per batch size; unused lanes carry zero states.
    """
    if count <= 1:
        return 1
    return 1 << (count - 1).bit_length()


def soa_chains(sizes: Sequence[int], rate: int,
               out_len: int) -> List[int]:
    """Kernel calls each message holds a resident-sponge lane for.

    Its absorb blocks (the padding always adds at least one byte) plus
    ``ceil(out_len / rate) - 1`` extra squeeze permutations.
    """
    squeeze = -(-out_len // rate) - 1
    return [size // rate + 1 + squeeze for size in sizes]


def soa_schedule_calls(chains: Sequence[int], width: int) -> int:
    """Kernel calls :func:`sponge_soa` makes for ``chains`` on ``width``
    lanes: the makespan of its longest-first refill schedule, where a
    lane that finishes a chain starts the next one on the following
    call."""
    ordered = sorted(chains, reverse=True)
    if not ordered:
        return 0
    finish = ordered[:width]
    heapq.heapify(finish)
    for chain in ordered[width:]:
        heapq.heapreplace(finish, finish[0] + chain)
    return max(finish)


def soa_sponge_plan(sizes: Sequence[int], rate: int,
                    out_len: int) -> Tuple[int, int]:
    """``(width, kernel calls)`` of one :func:`sponge_soa` call.

    The widest allowed kernel is ``min(soa_width(),
    soa_bucket(len(sizes)))``; the width is the narrowest
    :data:`_SOA_LADDER` entry below it whose schedule makes no more
    kernel calls, since a narrower kernel call costs less.  Batches of
    at most 16 messages keep the widest kernel.  A call that runs no
    kernel (no messages, or ``out_len == 0``) plans ``(1, 0)``.
    """
    total = len(sizes)
    if total == 0 or out_len == 0:
        return 1, 0
    chains = soa_chains(sizes, rate, out_len)
    widest = min(soa_width(), soa_bucket(total))
    calls = soa_schedule_calls(chains, widest)
    if total <= _SOA_LADDER_MIN_BATCH:
        return widest, calls
    work = sum(chains)
    for width in _SOA_LADDER:
        if width >= widest:
            break
        # ceil(work / width) calls is a floor no schedule beats.
        if -(-work // width) <= calls \
                and soa_schedule_calls(chains, width) <= calls:
            return width, calls
    return widest, calls


def soa_fingerprint(lanes: int, num_rounds: int) -> str:
    """The cache key for one SoA kernel shape.

    Deliberately architecture-independent: the SoA path computes the
    permutation directly (no ELEN/LMUL semantics to specialize on), so
    every geometry shares the same kernels.  It is timing-independent
    too — SoA kernels are functional (digests only, zero cycle metrics),
    so no timing-model fingerprint belongs in this key.
    """
    payload = ("soa", CODEGEN_VERSION, lanes, num_rounds)
    return hashlib.sha256(repr(payload).encode()).hexdigest()[:40]


def _generate_soa(lanes: int, num_rounds: int, fingerprint: str) -> str:
    """Render one unrolled ``lanes``-wide Keccak-p[1600] kernel.

    Reduced-round instances run the *last* ``num_rounds`` rounds, like
    :func:`repro.keccak.permutation.keccak_p1600`.  The giant mask and
    round-constant literals are computed once in the module preamble
    (from the 64-bit repunit ``_S``) and referenced by name, keeping the
    generated source compact at any lane count.
    """
    width = 64 * lanes
    meta = {
        "version": CODEGEN_VERSION,
        "fingerprint": fingerprint,
        "kind": "soa",
        "lanes": lanes,
        "rounds": num_rounds,
    }
    rotations = {1} | {RHO_OFFSETS[x][y] % 64
                       for x in range(5) for y in range(5)}
    rotations.discard(0)
    mask_bits = sorted({b for r in rotations for b in (r, 64 - r)})
    out: List[str] = [
        _header(fingerprint),
        '"""Generated by repro.sim.codegen (SoA batch) - do not edit."""',
        f"META = {meta!r}",
        "",
        f"_F = (1 << {width}) - 1",
        "_S = _F // 0xFFFFFFFFFFFFFFFF",
    ]
    out.extend(f"_M{b} = ((1 << {b}) - 1) * _S" for b in mask_bits)
    first = NUM_ROUNDS - num_rounds
    out.extend(f"_RC{k} = {hex(ROUND_CONSTANTS[k])} * _S"
               for k in range(first, NUM_ROUNDS))
    names = ", ".join(f"a{i}" for i in range(25))
    out += ["", "", "def kernel(cols):", f"    ({names}) = cols"]

    def rot(src: str, amount: int) -> str:
        amount %= 64
        if amount == 0:
            return src
        down = 64 - amount
        return (f"((({src} & _M{down}) << {amount}) | "
                f"(({src} >> {down}) & _M{amount}))")

    for k in range(first, NUM_ROUNDS):
        out.append(f"    # round {k}")
        # theta: column parities, then the per-sheet correction d[x].
        for x in range(5):
            out.append(f"    c{x} = " + " ^ ".join(
                f"a{x + 5 * y}" for y in range(5)))
        for x in range(5):
            out.append(f"    d{x} = c{(x - 1) % 5} ^ "
                       + rot(f"c{(x + 1) % 5}", 1))
        # theta correction + rho + pi fused into one assignment per lane:
        # b[x, y] takes the rotated, corrected source lane pi maps there.
        for y in range(5):
            for x in range(5):
                sx, sy = (x + 3 * y) % 5, x
                out.append(f"    b{x + 5 * y} = " + rot(
                    f"(a{sx + 5 * sy} ^ d{sx})", RHO_OFFSETS[sx][sy]))
        # chi (complement via XOR with the all-ones mask) + iota on a0.
        for y in range(5):
            for x in range(5):
                i = x + 5 * y
                b1 = (x + 1) % 5 + 5 * y
                b2 = (x + 2) % 5 + 5 * y
                expr = f"b{i} ^ ((b{b1} ^ _F) & b{b2})"
                if i == 0:
                    expr = f"({expr}) ^ _RC{k}"
                out.append(f"    a{i} = {expr}")
    out.append(f"    return ({names})")
    out.append("")
    return "\n".join(out)


def _soa_kernel_from_source(source: str,
                            fingerprint: str) -> Optional[CompiledKernel]:
    """Validate + load cached SoA source; None on any mismatch."""
    try:
        first_line = source.split("\n", 1)[0]
        if first_line != _header(fingerprint):
            return None
        namespace: dict = {}
        exec(compile(source, f"<repro-soa {fingerprint[:12]}>", "exec"),
             namespace)
        meta = namespace["META"]
        if meta["version"] != CODEGEN_VERSION:
            return None
        if meta["fingerprint"] != fingerprint:
            return None
        if meta.get("kind") != "soa":
            return None
        if not isinstance(meta["lanes"], int) \
                or not isinstance(meta["rounds"], int):
            return None
        fn = namespace["kernel"]
        if not callable(fn):
            return None
        return CompiledKernel(fn, meta, source)
    except Exception:
        return None


def get_or_compile_soa(lanes: int,
                       num_rounds: int = NUM_ROUNDS) -> CompiledKernel:
    """The SoA kernel for one (lanes, rounds) shape.

    Same lookup order as :func:`get_or_compile` — in-process LRU, disk,
    generate — but generation is total: every shape compiles, so there
    is no negative caching and no None result.
    """
    if lanes < 1:
        raise ValueError(f"lane count must be positive: {lanes}")
    if not 0 < num_rounds <= NUM_ROUNDS:
        raise ValueError(
            f"round count must be in 1..{NUM_ROUNDS}, got {num_rounds}")
    fingerprint = soa_fingerprint(lanes, num_rounds)
    cached = _KERNEL_CACHE.get(fingerprint, _MISS)
    if cached is not _MISS and cached is not None:
        SOA_STATS["memory_hits"] += 1
        if _metrics.ARMED:
            _SOA_EVENTS.inc(event="memory_hit")
        return cached

    source = _load_disk(fingerprint)
    if source is not None:
        kernel = _soa_kernel_from_source(source, fingerprint)
        if kernel is not None:
            SOA_STATS["disk_hits"] += 1
            if _metrics.ARMED:
                _SOA_EVENTS.inc(event="disk_hit")
            _KERNEL_CACHE.put(fingerprint, kernel)
            return kernel

    started = time.perf_counter() if _metrics.ARMED else 0.0
    generated = _generate_soa(lanes, num_rounds, fingerprint)
    if _metrics.ARMED:
        _SOA_COMPILE_SECONDS.observe(time.perf_counter() - started)
    kernel = _soa_kernel_from_source(generated, fingerprint)
    if kernel is None:  # pragma: no cover - generator/loader mismatch
        raise RuntimeError("generated SoA kernel failed self-validation")
    SOA_STATS["compiles"] += 1
    if _metrics.ARMED:
        _SOA_EVENTS.inc(event="compile")
    _store_disk(fingerprint, generated)
    _KERNEL_CACHE.put(fingerprint, kernel)
    return kernel


def warm_soa(lanes: Optional[int] = None,
             num_rounds: int = NUM_ROUNDS) -> CompiledKernel:
    """Pre-compile the SoA kernel for the given (default) lane budget.

    The SoA analogue of :func:`warm`: pool parents call this before
    forking so workers load the kernel from the shared disk cache.
    """
    return get_or_compile_soa(lanes if lanes is not None else soa_width(),
                              num_rounds)


def pack_states(states, lanes: int):
    """Interleave up to ``lanes`` states into 25 packed columns.

    Lane ``g``'s state occupies bits ``[64g, 64(g+1))`` of every column;
    unused lanes stay zero (and come back zero — a zero state is a
    fixpoint of nothing, but padded lanes are simply never read back).
    """
    if len(states) > lanes:
        raise ValueError(
            f"{len(states)} states exceed the kernel's {lanes} lanes")
    cols = [0] * 25
    for g, state in enumerate(states):
        shift = 64 * g
        state_lanes = state.lanes
        for i in range(25):
            cols[i] |= state_lanes[i] << shift
    return tuple(cols)


def unpack_states(cols, count: int):
    """The first ``count`` lanes of packed columns, as KeccakStates."""
    mask = 0xFFFFFFFFFFFFFFFF
    out = []
    for g in range(count):
        shift = 64 * g
        out.append(KeccakState([(col >> shift) & mask for col in cols]))
    return out


def _meter_soa_call(width: int, live: int) -> None:
    """Count one ``width``-lane SoA kernel call carrying ``live`` states."""
    SOA_STATS["kernel_calls"] += 1
    SOA_STATS["lanes_hashed"] += live
    SOA_STATS["lanes_padded"] += width - live
    if _metrics.ARMED:
        _SOA_CALLS.inc(lanes=str(width))
        _SOA_OCCUPANCY.observe(live / width)


def run_soa(states, num_rounds: int = NUM_ROUNDS,
            lanes: Optional[int] = None):
    """Permute ``states`` through SoA batch kernels; returns new states.

    Splits the batch into lane-budget groups (``lanes`` or
    :func:`soa_width`), bucketing each group's kernel to the next power
    of two so ragged tails reuse a few size classes.  This is the
    functional entry point the ``soa`` engine spec wires into
    :class:`~repro.programs.session.Session`.
    """
    total = len(states)
    if total == 0:
        return []
    width = lanes if lanes is not None else soa_width()
    out = []
    for start in range(0, total, width):
        group = states[start:start + width]
        bucket = min(width, soa_bucket(len(group)))
        kernel = get_or_compile_soa(bucket, num_rounds)
        permuted = kernel.fn(pack_states(group, bucket))
        _meter_soa_call(bucket, len(group))
        out.extend(unpack_states(permuted, len(group)))
    return out


def sponge_soa(messages, rate: int, suffix: int, out_len: int,
               num_rounds: int = NUM_ROUNDS) -> List[bytes]:
    """Sponge-hash every message with the state resident in SoA columns.

    A lane scheduler over one kernel width, chosen once per call by
    :func:`soa_sponge_plan`: the narrowest width on a fixed ladder that
    makes as few kernel calls as the widest allowed kernel
    (``min(soa_width(), soa_bucket(len(messages)))``).  Between
    permutations the states live only in the 25 packed columns: each
    step XORs every absorbing lane's next ``rate``-byte block in as
    64-bit words (one ``int.from_bytes`` per column), and after the
    permutation each squeezing lane reads its output words straight out
    of the columns.  Outputs longer than the rate keep their lane for
    the extra permutations.  A lane whose output is complete takes the
    next message — longest first, so the ragged tail is short — after
    its 64-bit fields are zeroed in every column.  Digests come back in
    input order.
    """
    if rate % 8 or not 0 < rate < 200:
        raise ValueError(f"rate must be a multiple of 8 in (0, 200): {rate}")
    if out_len < 0:
        raise ValueError(f"cannot squeeze {out_len} bytes")
    total = len(messages)
    if total == 0:
        return []
    if out_len == 0:
        return [b""] * total
    width, _ = soa_sponge_plan([len(m) for m in messages], rate, out_len)
    kernel = get_or_compile_soa(width, num_rounds).fn
    words = rate // 8
    zero_block = bytes(rate)
    # Longest first; sorted() is stable, so ties keep input order.
    order = sorted(range(total), key=lambda i: len(messages[i]),
                   reverse=True)
    digests: List[bytes] = [b""] * total
    # Per lane: message index (None once idle), padded message, offset
    # of its next block, output squeezed so far.
    owner: List[Optional[int]] = [None] * width
    padded: List[bytes] = [b""] * width
    offset = [0] * width
    output = [bytearray() for _ in range(width)]

    def load(lane: int, index: int) -> None:
        message = messages[index]
        pad = bytearray(rate - len(message) % rate)
        pad[0] = suffix
        pad[-1] ^= 0x80  # a one-byte pad folds suffix and final bit
        owner[lane] = index
        padded[lane] = b"".join((message, pad))
        offset[lane] = 0
        output[lane] = bytearray()

    cols = [0] * 25
    live = min(width, total)
    for lane in range(live):
        load(lane, order[lane])
    queued = live
    while live:
        blocks = [zero_block] * width
        absorbing = False
        readers = []  # lanes whose input is all absorbed after this step
        for lane in range(width):
            if owner[lane] is None:
                continue
            start = offset[lane]
            message = padded[lane]
            if start < len(message):
                blocks[lane] = message[start:start + rate]
                start = offset[lane] = start + rate
                absorbing = True
            if start >= len(message):
                readers.append(lane)
        if absorbing:
            grid = memoryview(b"".join(blocks)).cast("Q")
            for i in range(words):
                cols[i] ^= int.from_bytes(grid[i::words].tobytes(), "little")
        cols = list(kernel(cols))
        _meter_soa_call(width, live)
        if not readers:
            continue

        reach = min(rate, max(out_len - len(output[lane])
                              for lane in readers))
        rows = [cols[i].to_bytes(8 * width, "little")
                for i in range(-(-reach // 8))]
        keep = -1
        for lane in readers:
            out = output[lane]
            take = min(rate, out_len - len(out))
            at = 8 * lane
            out += b"".join(row[at:at + 8]
                            for row in rows[:-(-take // 8)])[:take]
            if len(out) < out_len:
                continue
            digests[owner[lane]] = bytes(out)
            if queued < total:
                load(lane, order[queued])
                queued += 1
                keep ^= 0xFFFFFFFFFFFFFFFF << (64 * lane)
            else:
                owner[lane] = None
                live -= 1
        if keep != -1:
            cols = [col & keep for col in cols]
    return digests
