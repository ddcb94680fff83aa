"""Predecoded program representation: decode once, execute many times.

The seed interpreter re-ran ``ISA.find`` (a linear search) and
``decode_operands`` (a dict build) on every fetch.  :func:`predecode`
instead walks an assembled :class:`~repro.assembler.program.Program` once
and binds every instruction word to a :class:`DecodedInstruction` whose
``execute`` closure already routes to the right unit — scalar core,
vector unit, ``vsetvli`` or CSR — with operands resolved.  Entries live
in a dense array indexed by ``(pc - base_address) >> 2``, so the fetch in
the hot loop is a single list index.

On top of the per-instruction entries, :func:`build_superblocks` stitches
straight-line runs (no branch targets inside, ending at the first control
transfer) into :class:`FusedBlock` callables: one dispatch executes the
whole run, the cycle/instruction/mnemonic counters are updated once per
block instead of once per instruction, and per-record trace hooks only
fire when tracing is enabled.  The branch-resolved 24-round loop body of
each Keccak program collapses into a handful of fused superblocks.

Faults are preserved exactly: a word the ISA cannot decode (or a unit
cannot execute) gets an executor that raises the same
:class:`~repro.sim.exceptions.IllegalInstructionError` the per-step
decoder would have raised — but only when the pc actually reaches it,
matching the lazy per-step behaviour that the fault-injection tests rely
on.  A fused block that faults mid-run first accounts the instructions
that did retire, so the visible statistics at the fault are identical to
per-instruction execution.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, TYPE_CHECKING

from ..assembler.program import Program
from ..isa import decode_operands
from ..isa.spec import InstructionSpec
from ..observability import metrics as _metrics
from .exceptions import IllegalInstructionError, ProcessorHalted

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .processor import SIMDProcessor
    from .trace import ExecutionStats

#: An executor returns ``(cycles, next_pc)``; ``next_pc`` is None for
#: sequential fall-through (the caller advances pc by 4).
Executor = Callable[[], Tuple[int, Optional[int]]]

# Superblock occupancy metrics, recorded once per build (coarse boundary
# — see the arming rule in repro.observability.metrics).
_BLOCK_LEN = _metrics.registry().histogram(
    "sim_superblock_length", "Instructions per fused superblock",
    ("geometry",), buckets=_metrics.COUNT_BUCKETS)
_FUSED_FRACTION = _metrics.registry().gauge(
    "sim_superblock_fused_fraction",
    "Fraction of program entries covered by fused blocks",
    ("geometry",))


@dataclass
class DecodedInstruction:
    """One instruction word, decoded and bound to its execution unit."""

    pc: int
    word: int
    mnemonic: str
    spec: Optional[InstructionSpec]
    execute: Executor


@dataclass
class PredecodedProgram:
    """A program with every word decoded into a dense executor array."""

    program: Program
    base_address: int
    words: Tuple[int, ...]
    entries: List[DecodedInstruction]
    #: Lazily built fused superblocks (see :func:`build_superblocks`).
    #: Lives on the predecode so the existing word-snapshot cache check
    #: invalidates both together: a mutated word re-decodes the program,
    #: which drops the stale blocks with it.
    superblocks: Optional["Superblocks"] = field(default=None, repr=False)
    #: Lazily computed code-generation fingerprint (see
    #: :mod:`repro.sim.codegen`); rides on the predecode for the same
    #: invalidation-by-word-snapshot reason as ``superblocks``.
    codegen_fingerprint: Optional[str] = field(default=None, repr=False)

    def matches(self, program: Program) -> bool:
        """Is this predecode still valid for ``program``?

        Identity alone is not enough: the fault-injection tests mutate
        instruction words in place, so the word snapshot (and base
        address) must still agree.
        """
        return (
            program is self.program
            and program.base_address == self.base_address
            and tuple([inst.word for inst in program.instructions])
            == self.words
        )

    def entry_at(self, pc: int) -> Optional[DecodedInstruction]:
        """The entry at ``pc``, or None for a fetch outside the program."""
        offset = pc - self.base_address
        if offset & 3 or not 0 <= (index := offset >> 2) < len(self.entries):
            return None
        return self.entries[index]


def _illegal_executor(message: str) -> Executor:
    def run() -> Tuple[int, Optional[int]]:
        raise IllegalInstructionError(message)

    return run


def predecode(processor: "SIMDProcessor", program: Program
              ) -> PredecodedProgram:
    """Decode every word of ``program`` against ``processor``'s ISA.

    The returned executors capture the processor's scalar core, vector
    unit and CSR/vsetvli helpers; they stay valid as long as the
    processor keeps those objects (resets are done in place).
    """
    isa = processor._isa
    scalar = processor.scalar
    vector = processor.vector
    read_register = scalar.read_register

    entries: List[DecodedInstruction] = []
    for inst in program.instructions:
        pc, word = inst.address, inst.word
        try:
            spec = isa.find(word)
        except LookupError as exc:
            entries.append(DecodedInstruction(
                pc, word, "<illegal>", None, _illegal_executor(str(exc))
            ))
            continue
        ops = decode_operands(word, spec)

        if spec.mnemonic == "vsetvli":
            def run_vsetvli(ops=ops) -> Tuple[int, Optional[int]]:
                return processor._execute_vsetvli(ops), None

            execute: Executor = run_vsetvli
        elif spec.extension == "zicsr":
            def run_csr(spec=spec, ops=ops) -> Tuple[int, Optional[int]]:
                return processor._execute_csr(spec, ops), None

            execute = run_csr
        elif spec.extension in ("rvv", "custom"):
            execute = vector.compile_executor(spec, ops, read_register)
        else:
            execute = scalar.compile_executor(spec, ops, pc)

        entries.append(DecodedInstruction(pc, word, spec.mnemonic, spec,
                                          execute))

    return PredecodedProgram(
        program=program,
        base_address=program.base_address,
        words=tuple(inst.word for inst in program.instructions),
        entries=entries,
    )


# -- superblock fusion ------------------------------------------------------------

_BRANCH_MNEMONICS = frozenset(
    {"beq", "bne", "blt", "bge", "bltu", "bgeu"}
)
#: Instructions that end a superblock.  Control transfers (and halts) can
#: redirect the pc; CSR reads observe the live cycle/instret counters, so
#: they must execute with fully flushed statistics; undecodable words
#: always raise.  Everything else falls straight through and can be fused.
_TERMINATOR_MNEMONICS = _BRANCH_MNEMONICS | {"jal", "jalr", "ecall", "ebreak"}


def _is_terminator(entry: DecodedInstruction) -> bool:
    spec = entry.spec
    if spec is None:
        return True
    if spec.extension == "zicsr":
        return True
    return spec.mnemonic in _TERMINATOR_MNEMONICS


def _static_branch_target(entry: DecodedInstruction) -> Optional[int]:
    """The pc a branch/jal can transfer to (None for other instructions)."""
    spec = entry.spec
    if spec is None:
        return None
    if spec.mnemonic in _BRANCH_MNEMONICS or spec.mnemonic == "jal":
        ops = decode_operands(entry.word, spec)
        return (entry.pc + ops["offset"]) & 0xFFFFFFFF
    return None


class FusedBlock:
    """A straight-line instruction run executed with a single dispatch.

    The untraced :meth:`run` calls every interior executor back to back,
    accumulating cycles locally, and flushes the aggregate counters
    (cycles, instructions, per-mnemonic counts/cycles) once at the end of
    the block — the per-instruction ``stats.record`` disappears from the
    hot loop.  The traced :meth:`run_traced` keeps the per-record hooks so
    traces stay bit-identical to per-instruction execution.

    If an interior executor raises, the retired prefix is accounted first
    (and the scalar pc is pointed at the faulting instruction), so the
    statistics visible to the handler match per-instruction execution
    exactly.
    """

    __slots__ = (
        "start_pc", "length", "_processor", "_interior", "_pairs",
        "_mnemonics", "_distinct", "_counts", "_terminator", "_term_pc",
        "_fallthrough_pc", "_halt_cycles",
    )

    def __init__(self, processor: "SIMDProcessor",
                 entries: List[DecodedInstruction],
                 has_terminator: bool) -> None:
        self._processor = processor
        self.start_pc = entries[0].pc
        self.length = len(entries)
        interior = entries[:-1] if has_terminator else entries
        self._interior = tuple(interior)
        self._mnemonics = tuple(e.mnemonic for e in interior)
        self._distinct = tuple(dict.fromkeys(self._mnemonics))
        slot_of = {m: i for i, m in enumerate(self._distinct)}
        self._pairs = tuple(
            (e.execute, slot_of[e.mnemonic]) for e in interior
        )
        self._counts = dict(Counter(self._mnemonics))
        self._terminator = entries[-1] if has_terminator else None
        self._term_pc = entries[-1].pc
        self._fallthrough_pc = entries[-1].pc + 4
        self._halt_cycles = processor.cycle_model.scalar_alu

    def _flush(self, stats: "ExecutionStats", retired: int, cycles: int,
               sums: List[int]) -> None:
        """Account ``retired`` interior instructions (possibly a prefix)."""
        stats.cycles += cycles
        stats.instructions += retired
        mnemonic_cycles = stats.mnemonic_cycles
        for mnemonic, total in zip(self._distinct, sums):
            if total:
                mnemonic_cycles[mnemonic] += total
        if retired == len(self._pairs):
            stats.mnemonic_counts.update(self._counts)
        else:
            stats.mnemonic_counts.update(self._mnemonics[:retired])

    def run(self, stats: "ExecutionStats") -> int:
        """Execute the block untraced; returns the next pc."""
        cycles = 0
        sums = [0] * len(self._distinct)
        retired = 0
        try:
            for execute, slot in self._pairs:
                c, _ = execute()
                cycles += c
                sums[slot] += c
                retired += 1
        except BaseException:
            self._flush(stats, retired, cycles, sums)
            self._processor.scalar.pc = self.start_pc + 4 * retired
            raise
        self._flush(stats, retired, cycles, sums)
        return self._run_terminator(stats)

    def run_traced(self, stats: "ExecutionStats") -> int:
        """Execute the block with per-instruction trace records."""
        pc = self.start_pc
        record = stats.record
        try:
            for entry in self._interior:
                c, _ = entry.execute()
                record(pc, entry.word, entry.mnemonic, c)
                pc += 4
        except BaseException:
            self._processor.scalar.pc = pc
            raise
        return self._run_terminator(stats)

    def _run_terminator(self, stats: "ExecutionStats") -> int:
        entry = self._terminator
        if entry is None:
            return self._fallthrough_pc
        try:
            cycles, next_pc = entry.execute()
        except ProcessorHalted:
            self._processor.halted = True
            cycles, next_pc = self._halt_cycles, None
        except BaseException:
            self._processor.scalar.pc = self._term_pc
            raise
        stats.record(self._term_pc, entry.word, entry.mnemonic, cycles)
        return next_pc if next_pc is not None else self._fallthrough_pc


@dataclass
class Superblocks:
    """Fused blocks of one predecoded program, indexed like its entries.

    ``blocks[i]`` is the :class:`FusedBlock` starting at entry ``i``, or
    None when entry ``i`` is not a block leader (mid-block instructions,
    which only an indirect jump could reach — the processor falls back to
    per-instruction execution for such a pc).
    """

    blocks: List[Optional[FusedBlock]]
    max_block_len: int


def build_superblocks(processor: "SIMDProcessor",
                      pre: PredecodedProgram) -> Superblocks:
    """Partition a predecoded program into maximal straight-line blocks.

    Leaders are the program entry, every static branch/jal target, and
    every instruction after a terminator; a block runs from its leader to
    the first terminator (inclusive) or the next leader (exclusive).
    ``jalr`` targets are dynamic and need no leader: any pc that is not a
    block start simply executes per-instruction.
    """
    entries = pre.entries
    size = len(entries)
    base = pre.base_address
    leaders = {0}
    for i, entry in enumerate(entries):
        target = _static_branch_target(entry)
        if target is not None:
            offset = target - base
            if not offset & 3 and 0 <= offset >> 2 < size:
                leaders.add(offset >> 2)
        if _is_terminator(entry) and i + 1 < size:
            leaders.add(i + 1)

    blocks: List[Optional[FusedBlock]] = [None] * size
    max_len = 1
    fused_entries = 0
    for start in sorted(leaders):
        end = start
        has_terminator = False
        while end < size:
            if _is_terminator(entries[end]):
                has_terminator = True
                break
            if end + 1 in leaders or end + 1 == size:
                break
            end += 1
        block = FusedBlock(processor, entries[start:end + 1], has_terminator)
        blocks[start] = block
        max_len = max(max_len, block.length)
        fused_entries += block.length
    if _metrics.ARMED:
        geometry = f"{processor.elen}x{processor.elenum}"
        for block in blocks:
            if block is not None:
                _BLOCK_LEN.observe(block.length, geometry=geometry)
        _FUSED_FRACTION.set(fused_entries / size if size else 0.0,
                            geometry=geometry)
    return Superblocks(blocks=blocks, max_block_len=max_len)
