"""Fixtures shared by the simulator tests: whole-state comparison and a
count of the runs the compiled engine actually executed."""

import pytest

from repro.observability import metrics


def _arch_state(proc) -> dict:
    """Every architectural observable of a processor after a run."""
    stats = proc.stats
    return {
        "vector registers": list(proc.vector.regfile._regs),
        "scalar registers": list(proc.scalar._regs),
        "vl/sew/lmul": (proc.vector.vl, proc.vector.sew, proc.vector.lmul),
        "pc": proc.scalar.pc,
        "halted": proc.halted,
        "cycles": stats.cycles,
        "instructions": stats.instructions,
        "mnemonic counts": dict(stats.mnemonic_counts),
        "mnemonic cycles": dict(stats.mnemonic_cycles),
    }


def _first_difference(a: bytes, b: bytes) -> int:
    return next(i for i, (x, y) in enumerate(zip(a, b)) if x != y)


@pytest.fixture
def assert_same_state():
    """``check(reference, *others)``: each processor in ``others`` has
    the reference's registers, configuration, pc, halt flag, statistics
    and every byte of data memory."""

    def check(reference, *others):
        expected = _arch_state(reference)
        memory = reference.memory.load_bytes(0, reference.memory.size)
        for proc in others:
            actual = _arch_state(proc)
            for key, value in expected.items():
                assert actual[key] == value, key
            other = proc.memory.load_bytes(0, proc.memory.size)
            if other != memory:
                offset = _first_difference(other, memory)
                pytest.fail(f"data memory differs at {offset:#x}")

    return check


@pytest.fixture
def compiled_runs():
    """Metrics armed for the test; call the fixture's value for the
    number of runs the compiled engine executed so far."""
    metrics.disarm()
    metrics.registry().reset()
    metrics.arm()
    yield lambda: metrics.registry().get("sim_runs_total").value(
        engine="compiled")
    metrics.disarm()
    metrics.registry().reset()
