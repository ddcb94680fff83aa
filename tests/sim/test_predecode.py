"""Differential tests: predecoded execution vs the naive per-step decoder.

The predecode engine must be an optimization only — every observable of a
run (permuted states, retired instruction count, total cycles, and the
per-record trace) must be bit-identical to the seed's decode-every-step
interpreter.  This is checked across all five generated program variants,
the scalar baseline, and both trace modes, plus the paper's headline
cycle counts as absolute pins.
"""

import pytest

from repro.keccak import KeccakState, keccak_f1600
from repro.programs import (
    build_program,
    keccak32_lmul8,
    keccak64_fused,
    keccak64_lmul1,
    keccak64_lmul41,
    keccak64_lmul8,
    scalar_keccak,
)
from repro.programs.runner import run_keccak_program
from repro.programs.session import Session, run
from repro.sim.predecode import predecode
from repro.sim.processor import SIMDProcessor

VARIANTS = [
    ("lmul1", keccak64_lmul1),
    ("lmul8", keccak64_lmul8),
    ("lmul41", keccak64_lmul41),
    ("fused", keccak64_fused),
    ("32bit", keccak32_lmul8),
]


def _states(count, seed=0xC0FFEE):
    import random

    rng = random.Random(seed)
    return [KeccakState([rng.getrandbits(64) for _ in range(25)])
            for _ in range(count)]


def _run_pair(program, states, trace):
    """Run once predecoded and once with the naive decoder."""
    fast = SIMDProcessor(elen=program.elen, elenum=program.elenum,
                         trace=trace)
    slow = SIMDProcessor(elen=program.elen, elenum=program.elenum,
                         trace=trace, predecode=False)
    return (run_keccak_program(program, states, processor=fast),
            run_keccak_program(program, states, processor=slow))


class TestDifferential:
    @pytest.mark.parametrize("trace", [True, False],
                             ids=["traced", "untraced"])
    @pytest.mark.parametrize("name,module", VARIANTS)
    def test_variants_bit_identical(self, name, module, trace):
        program = module.build(5)
        states = _states(1)
        fast, slow = _run_pair(program, states, trace)
        assert fast.states == slow.states
        assert fast.states == [keccak_f1600(s) for s in states]
        assert fast.stats.instructions == slow.stats.instructions
        assert fast.stats.cycles == slow.stats.cycles
        assert fast.permutation_cycles == slow.permutation_cycles
        assert fast.cycles_per_round == slow.cycles_per_round
        if trace:
            assert len(fast.stats.records) == len(slow.stats.records)
            for a, b in zip(fast.stats.records, slow.stats.records):
                assert (a.pc, a.word, a.mnemonic, a.cycles) == \
                       (b.pc, b.word, b.mnemonic, b.cycles)

    @pytest.mark.parametrize("trace", [True, False],
                             ids=["traced", "untraced"])
    def test_scalar_program_bit_identical(self, trace):
        program = scalar_keccak.build()
        state = _states(1)[0]
        results = []
        for use_predecode in (True, False):
            proc = SIMDProcessor(elen=32, elenum=5, trace=trace,
                                 predecode=use_predecode)
            proc.load_program(program.assemble())
            scalar_keccak.setup_data(proc.memory, state)
            stats = proc.run()
            results.append((scalar_keccak.read_state(proc.memory),
                            stats.instructions, stats.cycles))
        assert results[0] == results[1]
        assert results[0][0] == keccak_f1600(state)


class TestSuperblocks:
    """Fused-superblock execution vs per-instruction predecoded execution.

    Superblock fusion batches the cycle/instruction accounting per
    straight-line block; every observable — states, totals, per-mnemonic
    counts and cycles, and the full trace — must stay bit-identical to
    stepping the same predecoded entries one at a time.
    """

    @pytest.mark.parametrize("trace", [True, False],
                             ids=["traced", "untraced"])
    @pytest.mark.parametrize("name,module", VARIANTS)
    def test_fused_vs_per_instruction(self, name, module, trace):
        program = module.build(5)
        states = _states(1)
        fused = SIMDProcessor(elen=program.elen, elenum=program.elenum,
                              trace=trace)
        stepped = SIMDProcessor(elen=program.elen, elenum=program.elenum,
                                trace=trace, fuse=False)
        a = run_keccak_program(program, states, processor=fused)
        b = run_keccak_program(program, states, processor=stepped)
        assert a.states == b.states
        assert a.states == [keccak_f1600(s) for s in states]
        assert a.stats.instructions == b.stats.instructions
        assert a.stats.cycles == b.stats.cycles
        assert a.stats.mnemonic_counts == b.stats.mnemonic_counts
        assert a.stats.mnemonic_cycles == b.stats.mnemonic_cycles
        if trace:
            assert len(a.stats.records) == len(b.stats.records)
            for ra, rb in zip(a.stats.records, b.stats.records):
                assert (ra.pc, ra.word, ra.mnemonic, ra.cycles) == \
                       (rb.pc, rb.word, rb.mnemonic, rb.cycles)

    def test_superblocks_built_lazily_and_cached(self):
        program = keccak64_lmul8.build(5)
        assembled = program.assemble()
        # Pin the fused engine: under "auto" the compiled kernel would
        # run instead and superblocks would (correctly) never be built.
        proc = SIMDProcessor(elen=64, elenum=5, trace=False,
                             engine="fused")
        proc.load_program(assembled)
        pre = proc._predecoded
        assert pre.superblocks is None  # not built until the first run
        proc.run()
        blocks = pre.superblocks
        assert blocks is not None
        proc.reset()
        proc.load_program(assembled)
        proc.run()
        assert proc._predecoded.superblocks is blocks  # reused, not rebuilt

    def test_mutated_word_drops_superblocks(self):
        # The word-snapshot cache check must invalidate fused blocks too:
        # a re-decode produces a fresh PredecodedProgram with no blocks.
        program = keccak64_lmul8.build(5)
        assembled = program.assemble()
        proc = SIMDProcessor(elen=64, elenum=5, trace=False,
                             engine="fused")
        proc.load_program(assembled)
        proc.run()
        old = proc._predecoded
        assert old.superblocks is not None
        original = assembled.instructions[10].word
        assembled.instructions[10].word = original ^ 1
        try:
            proc.reset()
            proc.load_program(assembled)
            assert proc._predecoded is not old
            assert proc._predecoded.superblocks is None
        finally:
            assembled.instructions[10].word = original

    def test_max_instructions_limit_identical(self):
        # The limit must fire at the exact same instruction whether or
        # not blocks are fused (the fused loop falls back to stepping
        # when a block could overrun the limit).
        from repro.sim.exceptions import ExecutionLimitExceeded

        program = keccak64_lmul8.build(5)
        assembled = program.assemble()
        results = []
        for fuse in (True, False):
            proc = SIMDProcessor(elen=64, elenum=5, trace=False, fuse=fuse)
            proc.load_program(assembled)
            with pytest.raises(ExecutionLimitExceeded):
                proc.run(max_instructions=500)
            results.append((proc.stats.instructions, proc.stats.cycles,
                            proc.scalar.pc))
        assert results[0] == results[1]


class TestSessionReuseIsolation:
    """Two back-to-back runs on one Session == two fresh processors.

    The worker pool keeps one warm Session per process, so the in-place
    reset must leave *no* residue between runs — same states, same
    cycles, bit for bit.
    """

    @pytest.mark.parametrize("name,module", VARIANTS)
    def test_back_to_back_runs_match_fresh(self, name, module):
        program = module.build(5)
        first_states = _states(1, seed=0xAAAA)
        second_states = _states(1, seed=0xBBBB)
        session = Session()
        warm1 = session.run(program, first_states)
        warm2 = session.run(program, second_states)
        fresh1 = run_keccak_program(
            program, first_states,
            processor=SIMDProcessor(elen=program.elen,
                                    elenum=program.elenum, trace=False))
        fresh2 = run_keccak_program(
            program, second_states,
            processor=SIMDProcessor(elen=program.elen,
                                    elenum=program.elenum, trace=False))
        assert warm1.states == fresh1.states
        assert warm2.states == fresh2.states
        assert warm1.stats.cycles == fresh1.stats.cycles
        assert warm2.stats.cycles == fresh2.stats.cycles
        assert warm1.stats.instructions == fresh1.stats.instructions
        assert warm2.stats.instructions == fresh2.stats.instructions


class TestCyclePins:
    """The paper's Table 7/8 numbers must survive the predecode engine."""

    @pytest.mark.parametrize("elen,lmul,cycles,per_round", [
        (64, 1, 2564, 103),
        (64, 8, 1892, 75),
        (32, 8, 3620, 147),
    ])
    def test_permutation_cycles(self, elen, lmul, cycles, per_round):
        result = run(build_program(elen, lmul, 5), _states(1), trace=True)
        assert result.permutation_cycles == cycles
        assert result.cycles_per_round == pytest.approx(per_round)


class TestPredecodeCache:
    def test_reload_same_program_reuses_predecode(self):
        program = keccak64_lmul8.build(5)
        assembled = program.assemble()
        proc = SIMDProcessor(elen=64, elenum=5, trace=False)
        proc.load_program(assembled)
        first = proc._predecoded
        assert first is not None
        proc.load_program(assembled)
        assert proc._predecoded is first

    def test_mutated_word_invalidates_cache(self):
        program = keccak64_lmul8.build(5)
        assembled = program.assemble()
        proc = SIMDProcessor(elen=64, elenum=5, trace=False)
        proc.load_program(assembled)
        first = proc._predecoded
        original = assembled.instructions[10].word
        assembled.instructions[10].word = original ^ 1
        try:
            proc.load_program(assembled)
            assert proc._predecoded is not first
        finally:
            assembled.instructions[10].word = original

    def test_word_map_follows_the_word_snapshot(self):
        # The pc -> word map the stepped decoder fetches from is rebuilt
        # only when the predecoded snapshot changes, and then agrees
        # with the program's current words.
        program = keccak64_lmul8.build(5)
        assembled = program.assemble()
        pc = assembled.instructions[10].address
        original = assembled.instructions[10].word
        proc = SIMDProcessor(elen=64, elenum=5, trace=False)
        proc.load_program(assembled)
        words = proc._program_words
        assert words == {inst.address: inst.word
                         for inst in assembled.instructions}
        proc.load_program(assembled)
        assert proc._program_words is words
        assembled.instructions[10].word = original ^ 1
        try:
            proc.load_program(assembled)
            assert proc._program_words[pc] == original ^ 1
        finally:
            assembled.instructions[10].word = original
        proc.load_program(assembled)
        assert proc._program_words == words

    def test_predecode_defers_illegal_words(self):
        # An undecodable word must not fault at predecode time, only when
        # (and if) the pc reaches it — matching the per-step decoder.
        program = keccak64_lmul8.build(5)
        assembled = program.assemble()
        proc = SIMDProcessor(elen=64, elenum=5, trace=False)
        pre = predecode(proc, assembled)
        assert all(e.execute is not None for e in pre.entries)


class TestSessionEquivalence:
    def test_session_matches_fresh_processor(self):
        program = build_program(64, 8, 30)
        states = _states(6)
        session = Session()
        warm = None
        for _ in range(3):  # repeated runs must not drift
            result = session.run(program, states, trace=True)
            if warm is None:
                warm = result
            assert result.states == warm.states
            assert result.permutation_cycles == warm.permutation_cycles
        fresh = run_keccak_program(program, states)
        assert warm.states == fresh.states
        assert warm.permutation_cycles == fresh.permutation_cycles
        assert warm.stats.cycles == fresh.stats.cycles

    def test_session_trace_toggle(self):
        program = build_program(64, 8, 5)
        session = Session()
        traced = session.run(program, _states(1), trace=True)
        untraced = session.run(program, _states(1), trace=False)
        assert traced.stats.records is not None
        assert untraced.stats.records is None
        assert traced.stats.cycles == untraced.stats.cycles
        assert traced.states == untraced.states
