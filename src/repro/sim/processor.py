"""The SIMD processor: scalar Ibex core + vector processing unit (Fig. 3).

:class:`SIMDProcessor` is the top-level executable model.  It owns the
program memory (an assembled :class:`~repro.assembler.program.Program`),
the data memory, the scalar core and the vector unit, and runs the classic
fetch → decode → dispatch loop:

* configuration-setting instructions (``vsetvli``) update the vector unit's
  VL/SEW/LMUL and write the resulting VL back to the scalar register file;
* vector memory and arithmetic instructions (standard RVV subset plus the
  ten custom extensions) are executed by the vector unit;
* everything else executes on the scalar core.

The hardware parameters mirror the paper's: ``elen`` (the vector element
width — 64 for the 64-bit architecture, 32 for the 32-bit one) and
``elenum`` (elements per vector register), giving VLEN = elen * elenum.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Optional, Union

from ..assembler.program import Program
from ..observability import metrics as _metrics
from ..isa import ISA, decode_operands
from ..isa.spec import InstructionSet
from .cycles import CycleModel, DEFAULT_CYCLE_MODEL
from .timing import TimingModel
from .exceptions import (
    ExecutionLimitExceeded,
    IllegalInstructionError,
    ProcessorHalted,
    SimulationError,
)
from . import engines as _engines
from .lru import LRU
from .memory import DataMemory
from .predecode import PredecodedProgram, build_superblocks, predecode
from .scalar_core import ScalarCore
from .trace import ExecutionStats
from .vector_unit import VectorUnit

#: Predecoded programs kept per processor before the least recently
#: used is evicted (see :class:`~repro.sim.lru.LRU`).
_PREDECODE_CACHE_SIZE = 16

# Metric families (created once; disarmed sites pay one flag check —
# see the arming rule in repro.observability.metrics).
_RUNS = _metrics.registry().counter(
    "sim_runs_total", "Processor runs by the engine that executed them",
    ("engine",))
_FALLBACKS = _metrics.registry().counter(
    "sim_compiled_fallbacks_total",
    "Runs the compiled engine declined, by reason", ("reason",))
_PREDECODE_CACHE = _metrics.registry().counter(
    "sim_predecode_cache_total", "Predecode cache lookups", ("event",))
_PREDECODE_SECONDS = _metrics.registry().histogram(
    "sim_predecode_seconds", "Time spent predecoding a program")


def validate_engine(engine: str) -> str:
    """Check an engine name, returning it for chaining.

    Thin shim over :func:`repro.sim.engines.validate`: the engine axis
    is now open — any backend registered in ``repro.sim.engines`` is a
    valid name here, without edits to this module.
    """
    return _engines.validate(engine)


def __getattr__(name: str):
    # ``ENGINES`` used to be a module constant; it is now a live view of
    # the registry so third-party registrations show up in CLI choices
    # and error messages without touching this module.
    if name == "ENGINES":
        return _engines.names()
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}")


class SIMDProcessor:
    """Executable model of the scalable SIMD RISC-V based processor."""

    def __init__(
        self,
        elen: int = 64,
        elenum: int = 16,
        memory_size: int = 1 << 20,
        cycle_model: Union[CycleModel, TimingModel] = DEFAULT_CYCLE_MODEL,
        trace: bool = False,
        isa: InstructionSet = ISA,
        predecode: bool = True,
        fuse: bool = True,
        engine: str = "auto",
    ) -> None:
        if elen not in (32, 64):
            raise ValueError(f"ELEN must be 32 or 64, got {elen}")
        if elenum < 1:
            raise ValueError(f"EleNum must be positive, got {elenum}")
        validate_engine(engine)
        self.elen = elen
        self.elenum = elenum
        self.vlen_bits = elen * elenum
        self._isa = isa
        self.memory = DataMemory(memory_size)
        #: The normalized :class:`~repro.sim.timing.TimingModel`.  Bare
        #: :class:`CycleModel` arguments are wrapped with identity knobs,
        #: so ``cycle_model`` and ``timing_model`` are the same object —
        #: every cost the cores read and every cache fingerprint comes
        #: from this one model.
        self.timing_model = TimingModel.of(cycle_model)
        self.cycle_model = self.timing_model
        self.scalar = ScalarCore(self.memory, self.timing_model)
        self.vector = VectorUnit(self.vlen_bits, self.memory,
                                 self.timing_model)
        self.stats = ExecutionStats(records=[] if trace else None)
        self.halted = False
        self._program_words: Dict[int, int] = {}
        self._program: Optional[Program] = None
        self._predecode_enabled = predecode
        self._fuse_enabled = fuse and predecode
        #: Requested execution engine; ``auto`` resolves per run (the
        #: compiled kernel when eligible, the fused engine otherwise).
        self.engine = engine
        #: Count of live instrumentation wrappers on predecoded entries
        #: (armed :class:`~repro.resilience.inject.FaultInjector` specs).
        #: Non-zero disqualifies the compiled engine: a flat kernel
        #: would bypass the wrapped executors entirely.
        self.instrumented = 0
        self._predecoded: Optional[PredecodedProgram] = None
        self._predecode_cache: LRU = LRU(_PREDECODE_CACHE_SIZE)
        #: Fault-injection hook for the *stepped* (non-predecoded) path:
        #: called as ``hook(processor, pc)`` before each instruction
        #: executes.  Predecoded/fused processors are instrumented by
        #: wrapping decoded entries instead (see ``repro.resilience``),
        #: so the fused hot loop never pays for this check.
        self.fault_hook: Optional[
            Callable[["SIMDProcessor", int], None]] = None

    # -- program loading ----------------------------------------------------------

    def load_program(self, program: Program) -> None:
        """Load an assembled program into program memory and reset the pc.

        With predecoding enabled (the default) every instruction word is
        decoded once, here, into a dense executor array; re-loading the
        same (unmutated) :class:`Program` hits a per-processor cache and
        is free — the batch-hashing and sweep pattern.
        """
        self._program = program
        if not self._predecode_enabled:
            self._program_words = {
                inst.address: inst.word for inst in program.instructions
            }
        else:
            cached = self._predecode_cache.get(id(program))
            if cached is None or not cached.matches(program):
                if _metrics.ARMED:
                    _PREDECODE_CACHE.inc(event="miss")
                    started = time.perf_counter()
                    cached = predecode(self, program)
                    _PREDECODE_SECONDS.observe(
                        time.perf_counter() - started)
                else:
                    cached = predecode(self, program)
                self._predecode_cache.put(id(program), cached)
            elif _metrics.ARMED:
                _PREDECODE_CACHE.inc(event="hit")
            if cached is not self._predecoded:
                # A predecode stands for one word snapshot: rebuild the
                # pc -> word map only when that snapshot changes.
                self._program_words = dict(zip(
                    (inst.address for inst in program.instructions),
                    cached.words))
            self._predecoded = cached
        self.scalar.pc = program.base_address
        self.halted = False

    @property
    def program(self) -> Optional[Program]:
        """The currently loaded program."""
        return self._program

    def symbol(self, name: str) -> int:
        """Resolve a label/constant of the loaded program."""
        if self._program is None:
            raise ValueError("no program loaded")
        return self._program.symbols[name]

    # -- execution ------------------------------------------------------------------

    def step(self) -> int:
        """Fetch and execute one instruction; returns its cycles.

        Uses the predecoded entry when available, falling back to the
        naive fetch → ``ISA.find`` → ``decode_operands`` path otherwise
        (``predecode=False`` processors).
        """
        if self.halted:
            raise ProcessorHalted("processor is halted")
        try:
            return self._step()
        except ProcessorHalted:
            raise
        except SimulationError as exc:
            raise self._annotate(exc)

    def _step(self) -> int:
        pc = self.scalar.pc
        pre = self._predecoded if self.engine != "stepped" else None
        if pre is not None:
            entry = pre.entry_at(pc)
            if entry is None:
                raise IllegalInstructionError(
                    f"instruction fetch outside the program at pc={pc:#x}"
                )
            try:
                cycles, next_pc = entry.execute()
            except ProcessorHalted:
                self.halted = True
                cycles, next_pc = self.cycle_model.scalar_alu, None
            self.stats.record(pc, entry.word, entry.mnemonic, cycles)
            self.scalar.pc = next_pc if next_pc is not None else pc + 4
            return cycles
        return self._step_decode(pc)

    def _annotate(self, exc: SimulationError) -> SimulationError:
        """Attach pc/cycle/instruction context as the error unwinds.

        Fused blocks flush their retired prefix and repair ``scalar.pc``
        before re-raising, so by the time the exception reaches the run
        loop the architectural counters already sit exactly at the fault.
        Fields the raise site filled in are preserved.
        """
        pc = self.scalar.pc
        mnemonic = None
        pre = self._predecoded
        if pre is not None:
            entry = pre.entry_at(pc)
            if entry is not None:
                mnemonic = entry.mnemonic
        else:
            word = self._program_words.get(pc)
            if word is not None:
                try:
                    mnemonic = self._isa.find(word).mnemonic
                except LookupError:
                    pass
        return exc.annotate(
            pc=pc,
            cycle=self.stats.cycles,
            instruction=self.stats.instructions,
            mnemonic=mnemonic,
        )

    def _step_decode(self, pc: int) -> int:
        """The original per-step decode path (reference semantics)."""
        if self.fault_hook is not None:
            self.fault_hook(self, pc)
        word = self._program_words.get(pc)
        if word is None:
            raise IllegalInstructionError(
                f"instruction fetch outside the program at pc={pc:#x}"
            )
        try:
            spec = self._isa.find(word)
        except LookupError as exc:
            raise IllegalInstructionError(str(exc)) from exc
        ops = decode_operands(word, spec)

        next_pc: Optional[int] = None
        if spec.mnemonic == "vsetvli":
            cycles = self._execute_vsetvli(ops)
        elif spec.extension == "zicsr":
            cycles = self._execute_csr(spec, ops)
        elif spec.extension in ("rvv", "custom"):
            cycles = self.vector.execute(spec, ops, self.scalar.read_register)
        else:
            try:
                cycles, next_pc = self.scalar.execute(spec, ops)
            except ProcessorHalted:
                self.halted = True
                cycles = self.cycle_model.scalar_alu
        self.stats.record(pc, word, spec.mnemonic, cycles)
        self.scalar.pc = next_pc if next_pc is not None else pc + 4
        return cycles

    def _execute_vsetvli(self, ops) -> int:
        rd, rs1 = ops["rd"], ops["rs1"]
        vtype = ops["vtype"]
        if rs1 != 0:
            avl = self.scalar.read_register(rs1)
        elif rd != 0:
            avl = 1 << 31  # rs1=x0, rd!=x0: request VLMAX
        else:
            avl = self.vector.vl  # keep the current VL, change vtype only
        new_vl = self.vector.configure(avl, vtype)
        self.scalar.write_register(rd, new_vl)
        return self.cycle_model.vsetvli

    def _execute_csr(self, spec, ops) -> int:
        from ..isa.csr import READ_ONLY_CSRS, csr_name
        from ..isa.vector import encode_vtype

        address = ops["csr"]
        rd, rs1 = ops["rd"], ops["rs1"]
        rs1_value = self.scalar.read_register(rs1)

        def read() -> int:
            if address == 0xC20:  # vl
                return self.vector.vl
            if address == 0xC21:  # vtype
                return encode_vtype(self.vector.sew, self.vector.lmul)
            if address == 0xC22:  # vlenb
                return self.vlen_bits // 8
            if address == 0x008:  # vstart (always 0 in this model)
                return 0
            if address == 0xC00:  # cycle
                return self.stats.cycles & 0xFFFFFFFF
            if address == 0xC80:  # cycleh
                return (self.stats.cycles >> 32) & 0xFFFFFFFF
            if address == 0xC02:  # instret
                return self.stats.instructions & 0xFFFFFFFF
            if address == 0xC82:  # instreth
                return (self.stats.instructions >> 32) & 0xFFFFFFFF
            if address == 0xC01:  # time (== cycle at 1 tick per cycle)
                return self.stats.cycles & 0xFFFFFFFF
            raise IllegalInstructionError(
                f"unimplemented CSR {csr_name(address)}"
            )

        wants_write = (spec.mnemonic == "csrrw") or rs1 != 0
        if wants_write and address in READ_ONLY_CSRS:
            raise IllegalInstructionError(
                f"write to read-only CSR {csr_name(address)}"
            )
        old = read()
        # The only writable CSR in this model is vstart, whose writes are
        # accepted and discarded (it always reads 0 — the vector unit never
        # interrupts mid-instruction).
        self.scalar.write_register(rd, old)
        return self.cycle_model.scalar_alu

    def run(self, max_instructions: int = 10_000_000,
            max_cycles: Optional[int] = None) -> ExecutionStats:
        """Run until ecall/ebreak; returns the accumulated statistics.

        With a predecoded program the hot loop dispatches fused
        superblocks: one call executes a whole straight-line run with a
        single batched statistics update (see
        :class:`~repro.sim.predecode.FusedBlock`).  ``max_cycles`` runs
        and the final approach to ``max_instructions`` fall back to the
        per-instruction loop so limit errors fire at exactly the same
        instruction as before.

        Any :class:`SimulationError` escaping the run carries structured
        pc/cycle/instruction context (see :meth:`_annotate`).
        """
        try:
            return self._run(max_instructions, max_cycles)
        except SimulationError as exc:
            raise self._annotate(exc)

    def _run(self, max_instructions: int,
             max_cycles: Optional[int]) -> ExecutionStats:
        """Registry-driven dispatch: plan the engine cascade, run it.

        The old if/else chain is now :func:`repro.sim.engines.plan`: the
        requested engine (or ``auto``'s priority order) is filtered
        against what this run needs reproduced — tracing, fault hooks,
        ``max_cycles`` — and against structural availability (predecoded
        program, fusion).  Capability-blocked steps are metered when the
        engine asks for it (the compiled engine's fallback counter);
        a runner may still decline at run time by returning None.  The
        run counter is bumped *after* the chosen backend actually ran,
        keyed by the registry's resolved name — never for an engine
        whose eligibility check bailed out.
        """
        engine = self.engine
        pre = self._predecoded if engine != "stepped" else None
        ctx = _engines.RunContext(
            traced=self.stats.records is not None,
            has_fault_hook=self.fault_hook is not None,
            instrumented=bool(self.instrumented),
            wants_max_cycles=max_cycles is not None,
            has_predecode=pre is not None,
            fuse_enabled=self._fuse_enabled,
        )
        for step in _engines.plan(engine, ctx):
            spec = step.spec
            if step.blocked is not None:
                if _metrics.ARMED and spec.meter_fallbacks:
                    _FALLBACKS.inc(reason=step.blocked)
                continue
            result = spec.runner(self, pre, max_instructions, max_cycles)
            if result is not None:
                if _metrics.ARMED:
                    _RUNS.inc(engine=spec.name)
                return result
        raise SimulationError(
            f"no registered engine could execute this run "
            f"(engine={engine!r})")

    def _run_stepped(self, max_instructions: int,
                     max_cycles: Optional[int]) -> ExecutionStats:
        """Per-instruction reference loop via :meth:`step`."""
        while not self.halted:
            if self.stats.instructions >= max_instructions:
                raise ExecutionLimitExceeded(
                    f"exceeded {max_instructions} instructions at "
                    f"pc={self.scalar.pc:#x} — infinite loop?"
                )
            if max_cycles is not None \
                    and self.stats.cycles >= max_cycles:
                raise ExecutionLimitExceeded(
                    f"exceeded {max_cycles} cycles at "
                    f"pc={self.scalar.pc:#x}"
                )
            self.step()
        return self.stats

    def _run_fused(self, pre: PredecodedProgram, max_instructions: int,
                   max_cycles: Optional[int]) -> ExecutionStats:
        """Superblock-fused hot loop (the PR 2 default engine)."""
        superblocks = pre.superblocks
        if superblocks is None:
            superblocks = pre.superblocks = build_superblocks(self, pre)
        blocks = superblocks.blocks
        margin = superblocks.max_block_len
        entries = pre.entries
        base = pre.base_address
        size = len(entries)
        scalar = self.scalar
        stats = self.stats
        traced = stats.records is not None
        halt_cycles = self.cycle_model.scalar_alu
        pc = scalar.pc
        while not self.halted:
            if stats.instructions + margin > max_instructions:
                # Close enough to the limit that a fused block could
                # overshoot it: finish per-instruction, which raises (or
                # halts) at exactly the reference point.
                scalar.pc = pc
                return self._run_predecoded(pre, max_instructions,
                                            max_cycles)
            offset = pc - base
            index = offset >> 2
            if offset & 3 or not 0 <= index < size:
                raise IllegalInstructionError(
                    f"instruction fetch outside the program at pc={pc:#x}"
                )
            block = blocks[index]
            if block is not None:
                pc = block.run_traced(stats) if traced \
                    else block.run(stats)
            else:
                # Mid-block pc (an indirect-jump target): single-step it.
                entry = entries[index]
                try:
                    cycles, next_pc = entry.execute()
                except ProcessorHalted:
                    self.halted = True
                    cycles, next_pc = halt_cycles, None
                stats.record(pc, entry.word, entry.mnemonic, cycles)
                pc = next_pc if next_pc is not None else pc + 4
            scalar.pc = pc
        return stats

    def _run_compiled(self, pre: PredecodedProgram,
                      max_instructions: int) -> Optional[ExecutionStats]:
        """Run the whole program as one compiled kernel, if eligible.

        Returns None — and the caller falls back to the fused/stepped
        engines — whenever flat code could not reproduce the exact
        reference behaviour: tracing (per-instruction records), an armed
        fault injector or fault hook, a pc that is not the program
        entry, scalar/vector state differing from the values the kernel
        was specialized against, or an instruction limit the unrolled
        body would cross.  The kernel itself may also be uncompilable
        (``get_or_compile`` returns None, cached negatively).
        """
        stats = self.stats
        if (self.halted
                or stats.records is not None
                or self.fault_hook is not None
                or self.instrumented):
            if _metrics.ARMED:
                _FALLBACKS.inc(reason=(
                    "halted" if self.halted
                    else "traced" if stats.records is not None
                    else "fault_hook" if self.fault_hook is not None
                    else "instrumented"))
            return None
        program = self._program
        if program is None or self.scalar.pc != pre.base_address:
            if _metrics.ARMED:
                _FALLBACKS.inc(reason="entry_pc")
            return None
        from . import codegen

        fingerprint = pre.codegen_fingerprint
        if fingerprint is None:
            fingerprint = pre.codegen_fingerprint = \
                codegen.program_fingerprint(self, program)
        kernel = codegen.get_or_compile(self, fingerprint, program)
        if kernel is None:
            if _metrics.ARMED:
                _FALLBACKS.inc(reason="uncompilable")
            return None
        meta = kernel.meta
        if stats.instructions + meta["instructions"] > max_instructions:
            if _metrics.ARMED:
                _FALLBACKS.inc(reason="instruction_limit")
            return None
        scalar_regs = self.scalar._regs
        for reg, expected in meta["sregs"].items():
            if scalar_regs[reg] != expected:
                if _metrics.ARMED:
                    _FALLBACKS.inc(reason="scalar_state")
                return None
        vconfig = meta["vconfig"]
        if vconfig is not None:
            vector = self.vector
            if [vector.vl, vector.sew, vector.lmul] != vconfig:
                if _metrics.ARMED:
                    _FALLBACKS.inc(reason="vector_state")
                return None
        kernel.fn(self)
        return stats

    def _run_predecoded(self, pre: PredecodedProgram,
                        max_instructions: int,
                        max_cycles: Optional[int]) -> ExecutionStats:
        """Per-instruction predecoded loop (reference dispatch order)."""
        entries = pre.entries
        base = pre.base_address
        size = len(entries)
        scalar = self.scalar
        stats = self.stats
        record = stats.record
        halt_cycles = self.cycle_model.scalar_alu
        pc = scalar.pc
        while not self.halted:
            if stats.instructions >= max_instructions:
                raise ExecutionLimitExceeded(
                    f"exceeded {max_instructions} instructions at "
                    f"pc={pc:#x} — infinite loop?"
                )
            if max_cycles is not None and stats.cycles >= max_cycles:
                raise ExecutionLimitExceeded(
                    f"exceeded {max_cycles} cycles at pc={pc:#x}"
                )
            offset = pc - base
            index = offset >> 2
            if offset & 3 or not 0 <= index < size:
                raise IllegalInstructionError(
                    f"instruction fetch outside the program at pc={pc:#x}"
                )
            entry = entries[index]
            try:
                cycles, next_pc = entry.execute()
            except ProcessorHalted:
                self.halted = True
                cycles, next_pc = halt_cycles, None
            record(pc, entry.word, entry.mnemonic, cycles)
            pc = next_pc if next_pc is not None else pc + 4
            scalar.pc = pc
        return stats

    # -- test/eval conveniences --------------------------------------------------------

    def reset(self, trace: Optional[bool] = None) -> None:
        """Full architectural reset: registers, vector state, memory, stats.

        Equivalent to constructing a fresh processor (which is what the
        seed drivers did per run), but keeps the predecode cache — state
        is cleared in place so compiled executors stay valid.  The pc
        returns to the loaded program's base address.
        """
        self.scalar.reset()
        self.vector.vl = 0
        self.vector.sew = 64
        self.vector.lmul = 1
        self.vector.regfile.clear()
        self.memory.clear()
        self.reset_stats(trace=trace)
        self.halted = False
        if self._program is not None:
            self.scalar.pc = self._program.base_address

    def reset_stats(self, trace: Optional[bool] = None) -> None:
        """Clear counters (and optionally toggle tracing)."""
        if trace is None:
            trace = self.stats.records is not None
        self.stats = ExecutionStats(records=[] if trace else None)

    def write_scalar(self, name_or_number, value: int) -> None:
        """Write a scalar register by ABI name or number (test setup)."""
        from ..isa.registers import parse_scalar_register

        number = (parse_scalar_register(name_or_number)
                  if isinstance(name_or_number, str) else name_or_number)
        self.scalar.write_register(number, value)

    def read_scalar(self, name_or_number) -> int:
        """Read a scalar register by ABI name or number."""
        from ..isa.registers import parse_scalar_register

        number = (parse_scalar_register(name_or_number)
                  if isinstance(name_or_number, str) else name_or_number)
        return self.scalar.read_register(number)
