"""The AOT code-generation engine: bit-exactness, caching, fallback.

The compiled engine must be *indistinguishable* from the fused/stepped
reference engines on everything architectural — final states, cycle and
instruction counters, per-mnemonic statistics — while being allowed to
skip only what nobody can observe (per-step dispatch).  These tests pin
that equivalence across the three paper programs, exercise both cache
layers (including deliberately corrupted/stale disk entries), and verify
the fallback rule: tracing, fault injection and instruction limits all
push execution back onto the reference engines transparently.
"""

import os
import random
import re

import pytest

from repro.assembler import assemble
from repro.keccak import keccak_f1600
from repro.programs import build_program, layout
from repro.programs.session import Session
from repro.resilience import FaultInjector, FaultSpec
from repro.sim import SIMDProcessor, codegen
from repro.sim.exceptions import ExecutionLimitExceeded, InjectedFaultError

#: The three paper programs: (ELEN, LMUL).
ARCHS = [(64, 1), (64, 8), (32, 8)]

PAPER_PINS = [
    (64, 1, 2564, 103),
    (64, 8, 1892, 75),
    (32, 8, 3620, 147),
]


@pytest.fixture(autouse=True)
def isolated_caches(tmp_path, monkeypatch):
    """Every test gets an empty disk cache and an empty memory cache."""
    monkeypatch.setenv("REPRO_CODEGEN_CACHE", str(tmp_path / "codegen"))
    codegen.clear_memory_cache()
    yield
    codegen.clear_memory_cache()


def _engine_run(program, states, engine, trace=False):
    return Session(engine=engine).run(program, states, trace=trace)


def _assert_stats_identical(a, b):
    assert a.cycles == b.cycles
    assert a.instructions == b.instructions
    assert a.mnemonic_counts == b.mnemonic_counts
    assert a.mnemonic_cycles == b.mnemonic_cycles


class TestDifferentialMatrix:
    """compiled vs fused vs stepped on all programs and batch sizes."""

    @pytest.mark.parametrize("elen,lmul", ARCHS)
    @pytest.mark.parametrize("sn", (1, 3, 6))
    def test_engines_agree(self, elen, lmul, sn, random_states):
        program = build_program(elen, lmul, 30)
        states = random_states(sn)
        reference = [keccak_f1600(s) for s in states]
        compiled = _engine_run(program, states, "compiled")
        assert compiled.states == reference
        for engine in ("fused", "stepped"):
            other = _engine_run(program, states, engine)
            assert other.states == compiled.states
            _assert_stats_identical(compiled.stats, other.stats)

    @pytest.mark.parametrize("elen,lmul", ARCHS)
    def test_memory_io_variants_agree(self, elen, lmul, random_states):
        program = build_program(elen, lmul, 30, include_memory_io=True)
        states = random_states(3)
        compiled = _engine_run(program, states, "compiled")
        fused = _engine_run(program, states, "fused")
        assert compiled.states == fused.states
        assert compiled.states == [keccak_f1600(s) for s in states]
        _assert_stats_identical(compiled.stats, fused.stats)

    def test_compiled_engine_actually_compiles(self, random_states):
        # Guard against the matrix silently passing because every run
        # fell back to fused: the kernel cache must fill.
        program = build_program(64, 8, 30)
        before = codegen.COMPILE_STATS["compiles"]
        _engine_run(program, random_states(2), "compiled")
        assert codegen.COMPILE_STATS["compiles"] == before + 1


class TestPaperPins:
    """Paper cycle totals survive the compiled engine bit-for-bit."""

    @pytest.mark.parametrize("elen,lmul,total,per_round", PAPER_PINS)
    def test_compiled_cycles_match_fused(self, elen, lmul, total,
                                         per_round, random_states):
        program = build_program(elen, lmul, 5)
        states = random_states(1)
        session = Session(engine="compiled")
        compiled = session.run(program, states)
        fused = _engine_run(program, states, "fused")
        _assert_stats_identical(compiled.stats, fused.stats)
        # Tracing falls back to the reference engines transparently and
        # still reports the paper's permutation pins.
        traced = session.run(program, states, trace=True)
        assert traced.permutation_cycles == total
        assert traced.cycles_per_round == pytest.approx(per_round)
        assert traced.states == compiled.states


class TestDiskCache:
    def _program(self):
        return build_program(64, 8, 5)

    def _cache_files(self):
        directory = codegen.cache_dir()
        if not os.path.isdir(directory):
            return []
        return sorted(os.listdir(directory))

    def test_kernel_persisted_and_reloaded(self, random_states):
        program = self._program()
        states = random_states(1)
        first = _engine_run(program, states, "compiled")
        files = self._cache_files()
        assert len(files) == 1 and files[0].endswith(".py")
        compiles = codegen.COMPILE_STATS["compiles"]
        disk_hits = codegen.COMPILE_STATS["disk_hits"]
        # A fresh process is simulated by dropping the in-memory cache:
        # the kernel must come back from disk, not a recompile.
        codegen.clear_memory_cache()
        second = _engine_run(program, states, "compiled")
        assert second.states == first.states
        assert codegen.COMPILE_STATS["compiles"] == compiles
        assert codegen.COMPILE_STATS["disk_hits"] == disk_hits + 1

    def test_corrupted_entry_recompiles_never_wrong(self, random_states):
        program = self._program()
        states = random_states(1)
        expected = _engine_run(program, states, "fused")
        _engine_run(program, states, "compiled")
        [name] = self._cache_files()
        path = os.path.join(codegen.cache_dir(), name)
        with open(path, "w") as handle:
            handle.write("this is not a kernel {{{\x00")
        codegen.clear_memory_cache()
        compiles = codegen.COMPILE_STATS["compiles"]
        result = _engine_run(program, states, "compiled")
        assert result.states == expected.states
        _assert_stats_identical(result.stats, expected.stats)
        assert codegen.COMPILE_STATS["compiles"] == compiles + 1
        # The corrupt entry was overwritten with a valid one.
        with open(path) as handle:
            assert handle.readline().startswith("# repro-codegen")

    def test_stale_fingerprint_recompiles(self, random_states):
        # An entry whose embedded fingerprint disagrees with its key is
        # stale (e.g. a truncated rename or a hand-copied cache): it
        # must be ignored, not executed.
        program = self._program()
        states = random_states(1)
        _engine_run(program, states, "compiled")
        [name] = self._cache_files()
        path = os.path.join(codegen.cache_dir(), name)
        with open(path) as handle:
            source = handle.read()
        lines = source.split("\n")
        lines[0] = lines[0][:-4] + "dead"  # corrupt the header fingerprint
        with open(path, "w") as handle:
            handle.write("\n".join(lines))
        codegen.clear_memory_cache()
        compiles = codegen.COMPILE_STATS["compiles"]
        result = _engine_run(program, states, "compiled")
        assert result.states == [keccak_f1600(s) for s in states]
        assert codegen.COMPILE_STATS["compiles"] == compiles + 1

    def test_empty_env_var_disables_disk_cache(self, monkeypatch,
                                               random_states):
        monkeypatch.setenv("REPRO_CODEGEN_CACHE", "")
        assert codegen.cache_dir() is None
        program = self._program()
        result = _engine_run(program, random_states(1), "compiled")
        assert result.states  # ran fine, purely in-memory


class TestColdVsWarm:
    def test_warm_start_skips_the_compile(self):
        import time

        program = build_program(64, 8, 30)
        proc = SIMDProcessor(elen=64, elenum=30, engine="compiled")
        proc.load_program(program.assemble())

        compiles = codegen.COMPILE_STATS["compiles"]
        start = time.perf_counter()
        kernel = codegen.warm(proc)
        cold = time.perf_counter() - start
        assert kernel is not None
        assert codegen.COMPILE_STATS["compiles"] == compiles + 1

        # Fresh process, warm disk cache: load by fingerprint only.
        codegen.clear_memory_cache()
        disk_hits = codegen.COMPILE_STATS["disk_hits"]
        start = time.perf_counter()
        warm_kernel = codegen.warm(proc)
        warm = time.perf_counter() - start
        assert warm_kernel is not None
        assert codegen.COMPILE_STATS["compiles"] == compiles + 1
        assert codegen.COMPILE_STATS["disk_hits"] == disk_hits + 1
        # Loading generated source is strictly cheaper than symbolic
        # execution + generation + write-back.
        assert warm < cold

    def test_session_warm_precompiles(self):
        program = build_program(64, 8, 30, include_memory_io=True)
        session = Session(engine="compiled")
        assert session.warm(program) is True
        compiles = codegen.COMPILE_STATS["compiles"]
        session.run(program, ())
        assert codegen.COMPILE_STATS["compiles"] == compiles  # reused


class TestFallback:
    """Tracing, fault injection and limits push runs off the kernel."""

    def _prepared(self, random_state, engine="compiled"):
        program = build_program(64, 8, 5)
        assembled = program.assemble()
        proc = SIMDProcessor(elen=64, elenum=5, engine=engine)
        proc.load_program(assembled)
        layout.load_states_regfile64(proc.vector.regfile, [random_state])
        return proc, assembled

    def test_traced_run_matches_fused_records(self, random_states):
        program = build_program(64, 8, 5)
        states = random_states(1)
        compiled = Session(engine="compiled").run(program, states,
                                                  trace=True)
        fused = Session(engine="fused").run(program, states, trace=True)
        assert compiled.stats.records  # the fallback actually recorded
        assert len(compiled.stats.records) == len(fused.stats.records)
        for ra, rb in zip(compiled.stats.records, fused.stats.records):
            assert (ra.pc, ra.word, ra.mnemonic, ra.cycles) == \
                   (rb.pc, rb.word, rb.mnemonic, rb.cycles)

    def test_armed_injector_fires_at_exact_pc(self, random_state):
        proc, assembled = self._prepared(random_state)
        proc.run()  # warm: the kernel is compiled and would be used
        proc.reset()
        layout.load_states_regfile64(proc.vector.regfile, [random_state])
        pc = assembled.symbols["round_body"] + 8
        with FaultInjector(proc) as injector:
            injector.arm(FaultSpec("raise", pc=pc, occurrence=5))
            assert proc.instrumented == 1
            with pytest.raises(InjectedFaultError) as excinfo:
                proc.run()
            assert injector.fired
        assert proc.instrumented == 0
        assert excinfo.value.pc == pc

    def test_vreg_flip_corrupts_identically_to_stepped(self, random_state):
        # The compiled-engine session must fall back and apply the
        # fault at the same (pc, register, lane/bit) as the stepped
        # reference — identical corrupted output states.
        program = build_program(64, 8, 5)
        assembled = program.assemble()
        spec = FaultSpec("vreg-flip", pc=assembled.symbols["round_body"],
                         occurrence=7, reg=3, bit=17)
        outputs = []
        for kwargs in (dict(engine="compiled"),
                       dict(predecode=False, engine="stepped")):
            proc = SIMDProcessor(elen=64, elenum=5, **kwargs)
            proc.load_program(assembled)
            layout.load_states_regfile64(proc.vector.regfile,
                                         [random_state])
            with FaultInjector(proc) as injector:
                injector.arm(spec)
                proc.run()
                assert injector.fired
            outputs.append(
                (layout.read_states_regfile64(proc.vector.regfile, 1),
                 proc.stats.cycles, proc.stats.instructions)
            )
        assert outputs[0] == outputs[1]
        # And the corruption is real: the digest differs from fault-free.
        clean = keccak_f1600(random_state)
        assert outputs[0][0][0] != clean

    def test_disarmed_processor_compiles_again(self, random_state):
        proc, assembled = self._prepared(random_state)
        with FaultInjector(proc) as injector:
            injector.arm(FaultSpec("raise", pc=assembled.base_address,
                                   occurrence=10**9))
        # After disarm the armed-entry wrappers are gone; the next run
        # is eligible for the kernel again and must still be exact.
        proc.reset()
        layout.load_states_regfile64(proc.vector.regfile, [random_state])
        proc.run()
        out = layout.read_states_regfile64(proc.vector.regfile, 1)[0]
        assert out == keccak_f1600(random_state)

    def test_instruction_limit_fires_at_reference_point(self, random_state):
        results = []
        for engine in ("compiled", "fused"):
            proc, _ = self._prepared(random_state, engine=engine)
            with pytest.raises(ExecutionLimitExceeded):
                proc.run(max_instructions=500)
            results.append((proc.stats.instructions, proc.stats.cycles,
                            proc.scalar.pc))
        assert results[0] == results[1]

    def test_generous_limit_still_uses_kernel(self, random_state):
        proc, _ = self._prepared(random_state)
        before = codegen.COMPILE_STATS["compiles"]
        proc.run(max_instructions=10_000_000)
        assert codegen.COMPILE_STATS["compiles"] == before + 1
        out = layout.read_states_regfile64(proc.vector.regfile, 1)[0]
        assert out == keccak_f1600(random_state)


def _kernel_body(proc):
    """The generated statements of ``proc``'s program, without the
    register unpack, the accessor bindings and the write-back."""
    lines = codegen.warm(proc).source.splitlines()
    start = next(i for i, line in enumerate(lines)
                 if line.startswith("    r0, r1, ")) + 1
    end = lines.index("    _regs[:] = (" + ", ".join(
        f"r{i}" for i in range(32)) + ")")
    return [line.strip() for line in lines[start:end]
            if line.split(" = ")[0].strip() not in codegen._BINDS]


class TestEmitterShape:
    """Whole-row memory moves and whole-register pi, read off the source."""

    @pytest.mark.parametrize("elenum", (5, 30))
    def test_memory_io_kernel_moves_whole_rows(self, elenum):
        program = build_program(64, 8, elenum, include_memory_io=True)
        proc = SIMDProcessor(elen=64, elenum=elenum)
        proc.load_program(program.assemble())
        body = "\n".join(_kernel_body(proc))
        assert "_ld(" not in body and "_st(" not in body
        assert body.count("_fb(_mem[") == 5  # one per state row
        assert body.count("_sb(") == 5
        assert "_t = " not in body  # every vpi.vi builds whole registers

    @pytest.mark.parametrize("mnemonic", ("vpi.vi", "vrhopi.vi"))
    def test_column_write_emits_five_whole_registers(self, mnemonic):
        proc = SIMDProcessor(elen=64, elenum=5)
        proc.load_program(assemble(f"""
            li t0, 25
            vsetvli x0, t0, e64, m8, tu, mu
            {mnemonic} v8, v0, -1
            ecall
        """))
        body = _kernel_body(proc)
        assert [line.split(" = ")[0] for line in body] == \
            [f"r{reg}" for reg in range(8, 13)]
        for line in body:
            target, expression = line.split(" = ", 1)
            assert not re.search(rf"\b{target}\b", expression), line


class TestKeptFallbackPaths:
    """Accesses the whole-row and whole-register emitters leave to the
    per-element and read-modify-write paths still match stepped."""

    DATA_BASE = 0x1000

    def _check(self, source, marker, assert_same_state, compiled_runs):
        assembled = assemble(source)
        rng = random.Random(source)
        registers = [rng.getrandbits(64 * 5) for _ in range(32)]
        data = rng.randbytes(512)
        procs = []
        for engine in ("compiled", "stepped"):
            proc = SIMDProcessor(elen=64, elenum=5, engine=engine)
            proc.load_program(assembled)
            for reg, value in enumerate(registers):
                proc.vector.regfile.write_raw(reg, value)
            proc.memory.store_bytes(self.DATA_BASE, data)
            procs.append(proc)
        assert marker in "\n".join(_kernel_body(procs[0]))
        for proc in procs:
            proc.run()
        assert compiled_runs() == 1
        assert_same_state(procs[1], procs[0])
        # Rows written outside the seeded range are cleared by reset.
        procs[0].reset()
        size = procs[0].memory.size
        assert procs[0].memory.load_bytes(0, size) == bytes(size)

    def test_partial_register_loads_and_stores(self, assert_same_state,
                                               compiled_runs):
        self._check("""
            li a0, 0x1000
            li a1, 0x2000
            li t0, 3
            vsetvli x0, t0, e64, m1, tu, mu
            vle64.v v1, (a0)
            vse64.v v2, (a1)
            li t0, 12
            vsetvli x0, t0, e64, m8, tu, mu
            vle64.v v8, (a0)
            vse64.v v16, (a1)
            ecall
        """, "(r10 & 0x", assert_same_state, compiled_runs)

    def test_strided_accesses_go_per_element(self, assert_same_state,
                                             compiled_runs):
        self._check("""
            li a0, 0x1000
            li a1, 0x2000
            li a2, 0x3000
            li t0, 5
            li t1, 24
            li t2, 8
            vsetvli x0, t0, e64, m1, tu, mu
            vlse64.v v3, (a0), t1
            vsse64.v v4, (a1), t1
            vsse64.v v5, (a2), x0
            vlse64.v v6, (a0), t2
            ecall
        """, "_st(12288, 64,", assert_same_state, compiled_runs)

    def test_overlapping_and_single_row_pi(self, assert_same_state,
                                           compiled_runs):
        self._check("""
            li t0, 5
            vsetvli x0, t0, e64, m1, tu, mu
            vpi.vi v0, v2, 1
            vrhopi.vi v10, v12, 3
            vpi.vi v20, v3, 4
            ecall
        """, "_t = r2", assert_same_state, compiled_runs)


class TestEngineSelection:
    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            Session(engine="warp-drive")
        with pytest.raises(ValueError, match="unknown engine"):
            SIMDProcessor(engine="turbo")
        program = build_program(64, 8, 5)
        with pytest.raises(ValueError, match="unknown engine"):
            Session().run(program, (), engine="nope")

    def test_per_run_engine_overrides_session_default(self, random_states):
        program = build_program(64, 8, 5)
        states = random_states(1)
        session = Session(engine="fused")
        before = codegen.COMPILE_STATS["compiles"]
        session.run(program, states)
        assert codegen.COMPILE_STATS["compiles"] == before  # fused run
        session.run(program, states, engine="compiled")
        assert codegen.COMPILE_STATS["compiles"] == before + 1

    def test_auto_prefers_compiled(self, random_states):
        program = build_program(64, 8, 5)
        before = codegen.COMPILE_STATS["compiles"]
        Session(engine="auto").run(program, random_states(1))
        assert codegen.COMPILE_STATS["compiles"] == before + 1

    def test_stepped_engine_skips_predecode_dispatch(self, random_states):
        program = build_program(64, 8, 5)
        states = random_states(1)
        stepped = Session(engine="stepped").run(program, states)
        fused = Session(engine="fused").run(program, states)
        assert stepped.states == fused.states
        _assert_stats_identical(stepped.stats, fused.stats)
