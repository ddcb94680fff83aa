"""The compiled engine leaves exactly the reference engines' machine.

``test_codegen.py`` compares final Keccak states and statistics.  This
module compares everything else a run leaves behind on a fresh
processor: all 32 vector registers (scratch registers included), the
scalar registers, ``vl``/``sew``/``lmul``, the pc and halt flag, the
statistics and every byte of data memory, after runs on the compiled,
fused and stepped engines.  A following ``reset()`` must then zero all
of memory, whichever engine wrote it: the compiled kernels' whole-row
stores feed the same written-range tracking as per-element stores.
"""

import random

import pytest

from repro.keccak import KeccakState, keccak_f1600
from repro.programs import build_program
from repro.programs.runner import run_keccak_program
from repro.sim import SIMDProcessor, codegen
from repro.sim.timing import TimingModel

#: The three paper programs: (ELEN, LMUL).
ARCHS = [(64, 1), (64, 8), (32, 8)]
ELENUMS = [5, 15, 30]
ENGINES = ("compiled", "fused", "stepped")


@pytest.fixture(autouse=True)
def isolated_caches(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CODEGEN_CACHE", str(tmp_path / "codegen"))
    codegen.clear_memory_cache()
    yield
    codegen.clear_memory_cache()


def _states(rng, count):
    return [KeccakState([rng.getrandbits(64) for _ in range(25)])
            for _ in range(count)]


def _run_everywhere(program, states, timing=None):
    """One fresh processor per engine, each after running ``states``."""
    procs = {}
    for engine in ENGINES:
        proc = SIMDProcessor(elen=program.elen, elenum=program.elenum,
                             engine=engine,
                             cycle_model=timing or TimingModel())
        result = run_keccak_program(program, states, processor=proc)
        assert result.states == [keccak_f1600(s) for s in states], engine
        procs[engine] = proc
    return procs


def _assert_reset_zeroes_memory(procs):
    for engine, proc in procs.items():
        proc.reset()
        size = proc.memory.size
        assert proc.memory.load_bytes(0, size) == bytes(size), engine
        assert not any(proc.vector.regfile._regs), engine


@pytest.mark.parametrize("io", [True, False],
                         ids=["memory-io", "register-file"])
@pytest.mark.parametrize("elenum", ELENUMS)
@pytest.mark.parametrize("elen,lmul", ARCHS)
def test_engines_leave_identical_state(elen, lmul, elenum, io,
                                       assert_same_state, compiled_runs):
    program = build_program(elen, lmul, elenum, include_memory_io=io)
    rng = random.Random(f"state-{elen}-{lmul}-{elenum}-{io}")
    counts = sorted({1, rng.randint(1, program.max_states),
                     program.max_states})
    for count in counts:
        before = compiled_runs()
        procs = _run_everywhere(program, _states(rng, count))
        assert compiled_runs() == before + 1  # the kernel really ran
        assert_same_state(procs["stepped"], procs["compiled"],
                          procs["fused"])
        _assert_reset_zeroes_memory(procs)


@pytest.mark.parametrize("elen,lmul", ARCHS)
def test_non_default_timing_model(elen, lmul, assert_same_state,
                                  compiled_runs):
    timing = TimingModel(issue_width=2, register_banks=2, chaining=True,
                         dispatch_overhead=3)
    program = build_program(elen, lmul, 15, include_memory_io=True)
    rng = random.Random(f"timing-{elen}-{lmul}")
    procs = _run_everywhere(program, _states(rng, program.max_states),
                            timing)
    assert compiled_runs() == 1
    default = SIMDProcessor(elen=elen, elenum=15)
    run_keccak_program(program, [], processor=default)
    assert procs["compiled"].stats.cycles != default.stats.cycles
    assert_same_state(procs["stepped"], procs["compiled"], procs["fused"])
    _assert_reset_zeroes_memory(procs)
