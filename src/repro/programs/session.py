"""The unified execution entry point: :class:`Session` and :func:`run`.

Everything that executes a Keccak program on the simulator — the legacy
:func:`~repro.programs.runner.run_keccak_program`, the batch/sponge
drivers, the eval harness, benchmarks and examples — funnels through this
module.  A :class:`Session` owns one processor per architecture
(ELEN, EleNum) and therefore one predecode cache per architecture: the
first run of a program decodes it, every subsequent run of the same
assembled program skips straight to execution.  The module-level
:func:`run` uses a process-wide default session per cycle model, so ad-hoc
callers get the caching for free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..keccak.constants import STATE_BITS, STATE_BYTES
from ..keccak.sponge import SHAKE_SUFFIX, Sponge
from ..keccak.state import KeccakState
from ..observability import metrics as _metrics
from ..observability import timeline as _timeline
from ..sim import engines as _engines
from ..sim.cycles import CycleModel, DEFAULT_CYCLE_MODEL
from ..sim.lru import LRU
from ..sim.processor import SIMDProcessor, validate_engine
from ..sim.timing import TimingModel
from ..sim.trace import ExecutionStats
from . import layout
from .base import KeccakProgram

# Session-level instrumentation: one counter bump, one histogram
# observation and (with a timeline active) one span per run.
_SESSION_RUNS = _metrics.registry().counter(
    "session_runs_total", "Session.run calls by program and geometry",
    ("program", "geometry"))
_RUN_SECONDS = _metrics.registry().histogram(
    "session_run_seconds", "Wall-clock time of one Session.run",
    ("program", "geometry"))


@dataclass
class RunResult:
    """Outcome of one program execution."""

    states: List[KeccakState]
    stats: ExecutionStats
    cycles_per_round: float
    permutation_cycles: int

    @property
    def num_states(self) -> int:
        """States processed by the run (at least 1 for throughput math)."""
        return len(self.states) or 1

    @property
    def cycles_per_byte(self) -> float:
        """Cycles per state byte over the whole permutation (paper metric)."""
        return self.permutation_cycles / float(STATE_BYTES)

    @property
    def throughput_bits_per_cycle(self) -> float:
        """Bits processed per cycle across all parallel states.

        Functional engines (``soa``) carry no cycle model, so their
        results report 0 here rather than dividing by zero cycles.
        """
        if not self.permutation_cycles:
            return 0.0
        return STATE_BITS * self.num_states / self.permutation_cycles

    @property
    def throughput_kbits_per_cycle(self) -> float:
        """Throughput in the tables' display unit, (bits/cycle) x 10^3."""
        return 1000.0 * self.throughput_bits_per_cycle

    #: Alias matching the column name used by the paper's tables.
    throughput_e3 = throughput_kbits_per_cycle


def _check_capacity(program: KeccakProgram,
                    states: Sequence[KeccakState]) -> None:
    if len(states) > program.max_states:
        raise ValueError(
            f"{program.name} with EleNum={program.elenum} holds at most "
            f"{program.max_states} states, got {len(states)}"
        )


def _execute(proc: SIMDProcessor, program: KeccakProgram,
             states: Sequence[KeccakState]) -> RunResult:
    """Load, place states, run and extract metrics on a prepared processor.

    Does *not* reset the processor — callers decide (a :class:`Session`
    resets; the legacy ``processor=`` path keeps the seed semantics of
    running on whatever state the caller set up).
    """
    assembled = program.assemble()
    proc.load_program(assembled)

    uses_memory = program.state_base is not None
    if not states:
        uses_memory = False  # nothing to place or read back
    if uses_memory:
        if program.elen == 64:
            image = layout.memory_image64(states, program.elenum)
        else:
            image = layout.memory_image32(states, program.elenum)
        proc.memory.store_bytes(program.state_base, image)
    elif states:
        if program.elen == 64:
            layout.load_states_regfile64(proc.vector.regfile, states)
        else:
            layout.load_states_regfile32(proc.vector.regfile, states)

    stats = proc.run()

    if not states:
        out: List[KeccakState] = []
    elif uses_memory:
        if program.elen == 64:
            size = 5 * program.elenum * 8
            image = proc.memory.load_bytes(program.state_base, size)
            out = layout.parse_memory_image64(image, program.elenum,
                                              len(states))
        else:
            size = 2 * 5 * program.elenum * 4
            image = proc.memory.load_bytes(program.state_base, size)
            out = layout.parse_memory_image32(image, program.elenum,
                                              len(states))
    else:
        if program.elen == 64:
            out = layout.read_states_regfile64(proc.vector.regfile,
                                               len(states))
        else:
            out = layout.read_states_regfile32(proc.vector.regfile,
                                               len(states))

    rounds = program.num_rounds
    if stats.records is not None:
        body_start = assembled.symbols["round_body"]
        body_end = assembled.symbols["round_end"]
        body_cycles = stats.cycles_in_pc_range(body_start, body_end)
        cycles_per_round = body_cycles / rounds
        loop_start = assembled.symbols["permutation"]
        # Permutation latency: from the first round instruction until the
        # permuted state is ready, i.e. the end of the last round body.
        # The loop-control addi/blt of iterations 1..23 sit between round
        # bodies and count; the final iteration's addi + untaken blt happen
        # after the result is available and do not (this matches the
        # paper's 2564/1892/3620 cycle totals exactly).
        in_loop = [r for r in stats.records
                   if loop_start <= r.pc < body_end + 8]
        final_overhead = sum(r.cycles for r in in_loop[-2:]
                             if r.pc >= body_end)
        permutation_cycles = sum(r.cycles for r in in_loop) - final_overhead
    else:
        cycles_per_round = stats.cycles / rounds
        permutation_cycles = stats.cycles
    return RunResult(
        states=out,
        stats=stats,
        cycles_per_round=cycles_per_round,
        permutation_cycles=permutation_cycles,
    )


class Session:
    """A reusable execution context: processors plus predecode caches.

    One processor is kept per (ELEN, EleNum) architecture; each run does a
    full in-place architectural reset (registers, vector state, memory,
    stats), so results are identical to running on a freshly constructed
    processor — minus the construction and re-decode cost.
    """

    def __init__(self,
                 cycle_model: Union[CycleModel, TimingModel]
                 = DEFAULT_CYCLE_MODEL,
                 engine: str = "auto") -> None:
        #: Normalized :class:`~repro.sim.timing.TimingModel` — bare
        #: :class:`CycleModel` arguments get identity knobs, so every
        #: processor this session creates keys its caches on the same
        #: timing fingerprint.
        self.timing_model = TimingModel.of(cycle_model)
        self.cycle_model = self.timing_model
        #: Default execution engine for this session's runs (see
        #: :data:`repro.sim.processor.ENGINES`); per-run ``engine=``
        #: arguments override it.
        self.engine = validate_engine(engine)
        self._processors: Dict[Tuple[int, int], SIMDProcessor] = {}
        #: Memory-IO programs keyed by (ELEN, LMUL, EleNum, rounds):
        #: one per geometry, so repeat permutations of the sponge front
        #: ends hit the processor's predecode cache.  Cached here rather
        #: than in ``build_program``, so a caller that builds its own
        #: program (and may mutate its words in place) never shares it.
        self._programs: Dict[Tuple[int, int, int, int],
                             KeccakProgram] = {}

    def processor(self, elen: int, elenum: int) -> SIMDProcessor:
        """The session's processor for one architecture (created lazily)."""
        key = (elen, elenum)
        proc = self._processors.get(key)
        if proc is None:
            proc = SIMDProcessor(
                elen=elen,
                elenum=elenum,
                cycle_model=self.cycle_model,
                trace=False,
            )
            self._processors[key] = proc
        return proc

    def run(self, program: KeccakProgram,
            states: Sequence[KeccakState] = (),
            *, trace: bool = False,
            engine: Optional[str] = None) -> RunResult:
        """Execute ``program`` on ``states``; returns states + metrics.

        The number of states must not exceed ``program.max_states``;
        remaining element slots are left zero.  ``trace=True`` records a
        full instruction trace (needed for the per-round/permutation
        cycle metrics; without it those fall back to whole-run totals) —
        and disqualifies the compiled engine, so traced runs execute on
        the fused/stepped reference paths.  ``engine`` overrides the
        session default for this run only — the session processor is
        restored to the session engine afterwards, so a one-off override
        can never leak into later runs.

        Engines whose registry spec declares ``functional`` (``soa``,
        ``reference``) never touch a processor: the states are
        transformed directly by the engine — the SoA batch kernels, or
        the pure round-function reference — capacity is negotiated by
        the engine instead of ``program.max_states``, and the result
        carries zero cycle metrics (the paper's cycle pins stay on the
        per-state engines).  A traced run cascades down the engine's
        declared fallback chain to a processor engine.
        """
        name = validate_engine(engine) if engine is not None \
            else self.engine
        spec = _engines.maybe_get(name)
        if spec is not None and spec.caps.functional:
            if not trace:
                return self._run_functional(spec, program, states)
            while spec is not None and spec.caps.functional:
                _engines.note_functional_fallback(spec, "traced")
                name = spec.fallback or "auto"
                spec = _engines.maybe_get(name)
        _check_capacity(program, states)
        proc = self.processor(program.elen, program.elenum)
        proc.engine = name
        proc.reset(trace=trace)
        try:
            if not _metrics.ARMED and _timeline.ACTIVE is None:
                return _execute(proc, program, states)
            return self._run_observed(proc, program, states)
        finally:
            proc.engine = self.engine

    def _run_observed(self, proc: SIMDProcessor, program: KeccakProgram,
                      states: Sequence[KeccakState]) -> RunResult:
        """The armed path of :meth:`run`: metrics + timeline span."""
        import time

        geometry = f"{program.elen}x{program.elenum}"
        tl = _timeline.ACTIVE
        span_start = tl.now() if tl is not None else 0.0
        started = time.perf_counter()
        result = _execute(proc, program, states)
        elapsed = time.perf_counter() - started
        if _metrics.ARMED:
            _SESSION_RUNS.inc(program=program.name, geometry=geometry)
            _RUN_SECONDS.observe(elapsed, program=program.name,
                                 geometry=geometry)
        if tl is not None:
            tl.complete(program.name, span_start, elapsed,
                        tid=_timeline.MAIN_LANE,
                        args={"geometry": geometry,
                              "engine": proc.engine,
                              "states": len(states)})
        return result

    def _run_functional(self, spec, program: KeccakProgram,
                        states: Sequence[KeccakState]) -> RunResult:
        """Run a functional (digests-only) engine: no processor involved.

        Mirrors :meth:`_run_observed`'s session metrics and timeline
        span so batch dashboards see these runs too; cycle fields are
        zero by construction.
        """
        import time

        armed = _metrics.ARMED
        tl = _timeline.ACTIVE
        if armed or tl is not None:
            geometry = f"{program.elen}x{program.elenum}"
            span_start = tl.now() if tl is not None else 0.0
            started = time.perf_counter()
        out = spec.run_states(program, list(states))
        if armed or tl is not None:
            elapsed = time.perf_counter() - started
            if armed:
                _SESSION_RUNS.inc(program=program.name, geometry=geometry)
                _RUN_SECONDS.observe(elapsed, program=program.name,
                                     geometry=geometry)
            if tl is not None:
                tl.complete(program.name, span_start, elapsed,
                            tid=_timeline.MAIN_LANE,
                            args={"geometry": geometry,
                                  "engine": spec.name,
                                  "states": len(states)})
        return RunResult(states=out, stats=ExecutionStats(),
                         cycles_per_round=0.0, permutation_cycles=0)

    def xof(self, data: bytes = b"", *,
            capacity_bits: int = 256,
            suffix: int = SHAKE_SUFFIX,
            num_rounds: int = 24,
            elen: int = 64, lmul: int = 8, elenum: int = 30,
            engine: Optional[str] = None) -> "SessionXof":
        """A streaming XOF whose permutations execute on this session.

        Returns a :class:`SessionXof`: absorb with ``update``, then
        stream output with incremental ``read(n)`` calls — each rate
        block of the sponge is one program run on the session's warm
        processor (or functional engine).  The defaults are SHAKE128 on
        the paper's V64H8 architecture; ``suffix``/``capacity_bits``/
        ``num_rounds`` select any sponge in the family (e.g. a
        TurboSHAKE domain byte with ``num_rounds=12``).
        """
        program = self._memory_io_program(elen, lmul, elenum, num_rounds)
        return SessionXof(self, program, capacity_bits, suffix,
                          data=data, engine=engine)

    def _memory_io_program(self, elen: int, lmul: int, elenum: int,
                           num_rounds: int) -> KeccakProgram:
        """This session's memory-IO program for one geometry (built once)."""
        key = (elen, lmul, elenum, num_rounds)
        program = self._programs.get(key)
        if program is None:
            from .factory import build_program

            program = build_program(elen, lmul, elenum,
                                    include_memory_io=True,
                                    num_rounds=num_rounds)
            self._programs[key] = program
        return program

    def warm(self, program: KeccakProgram) -> bool:
        """Pre-compile ``program`` for the compiled engine.

        Populates both kernel caches (in-process and on-disk) without
        executing anything; returns True when a compiled kernel is
        available.  Pool drivers call this in the parent so forked
        workers warm-start from the disk cache.
        """
        from ..sim import codegen

        proc = self.processor(program.elen, program.elenum)
        proc.load_program(program.assemble())
        return codegen.warm(proc) is not None


class SessionXof:
    """An incremental sponge whose permutations run on a :class:`Session`.

    The streaming counterpart of the batch drivers' whole-message paths:
    ``update`` absorbs (block-by-block program runs), ``read(n)``
    squeezes the next ``n`` output bytes — successive calls continue the
    stream without re-absorbing, exactly like
    :meth:`repro.keccak.hashes._ShakeBase.read` and the serve daemon's
    long-output responses.  ``digest(n)`` stays restartable by copying
    the sponge.
    """

    def __init__(self, session: Session, program: KeccakProgram,
                 capacity_bits: int, suffix: int, *,
                 data: bytes = b"",
                 engine: Optional[str] = None) -> None:
        self.program = program

        def permute(state: KeccakState) -> KeccakState:
            return session.run(program, [state], engine=engine).states[0]

        self._sponge = Sponge(capacity_bits, suffix, permute)
        if data:
            self._sponge.absorb(data)

    @property
    def squeezing(self) -> bool:
        """True once ``read`` has started streaming output."""
        return self._sponge.squeezing

    def update(self, data: bytes) -> "SessionXof":
        """Absorb more message bytes (before any ``read``)."""
        self._sponge.absorb(data)
        return self

    def read(self, length: int) -> bytes:
        """Streaming squeeze: successive calls continue the stream."""
        return self._sponge.squeeze(length)

    def digest(self, length: int) -> bytes:
        """``length`` output bytes (restartable: copies the sponge)."""
        return self._sponge.copy().squeeze(length)

    def hexdigest(self, length: int) -> str:
        """``length`` output bytes as hex."""
        return self.digest(length).hex()


#: Process-wide default sessions, one per *timing model* (TimingModel is
#: a frozen dataclass, hence hashable; bare CycleModels normalize to the
#: identity TimingModel, so both spellings share one session).  A true
#: LRU, not an unbounded dict: one Session owns processors plus their
#: predecode caches, so a design-space sweep over thousands of timing
#: configurations must recycle the oldest sessions instead of leaking
#: one per configuration.
_MAX_DEFAULT_SESSIONS = 8
_DEFAULT_SESSIONS: LRU = LRU(_MAX_DEFAULT_SESSIONS)


def default_session(cycle_model: Union[CycleModel, TimingModel]
                    = DEFAULT_CYCLE_MODEL) -> Session:
    """The shared session for ``cycle_model`` (created on first use)."""
    model = TimingModel.of(cycle_model)
    session = _DEFAULT_SESSIONS.get(model)
    if session is None:
        session = Session(model)
        _DEFAULT_SESSIONS.put(model, session)
    return session


def run(program: KeccakProgram,
        states: Sequence[KeccakState] = (),
        *, trace: bool = False,
        engine: Optional[str] = None,
        cycle_model: Union[CycleModel, TimingModel]
        = DEFAULT_CYCLE_MODEL) -> RunResult:
    """Execute a Keccak program on the shared default session.

    The top-level entry point (`repro.run`): repeated runs of the same
    program reuse the session's processor and predecoded program.
    ``engine`` selects the execution engine for this run (default: the
    session's ``auto``, which compiles when eligible).
    """
    return default_session(cycle_model).run(program, states, trace=trace,
                                            engine=engine)
