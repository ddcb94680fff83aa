"""SHA-3 hashing with the *simulated processor* as the permutation engine.

The sponge construction accepts any permutation; here the permutation is
the paper's vector Keccak program executed instruction-by-instruction on
the SIMD processor simulator (including the vector load/store of the state
through the VecLSU).  Hashing a message this way exercises the entire
stack — assembler, decoder, scalar core, vector unit, memory system — and
still produces digests bit-identical to ``hashlib``.

This also yields end-to-end workload metrics: cycle counts per message,
aggregated over all sponge permutations.
"""

from __future__ import annotations

from typing import Optional

from ..keccak.sponge import SHA3_SUFFIX, SHAKE_SUFFIX, Sponge
from ..keccak.state import KeccakState
from ..sim.processor import validate_engine
from .base import KeccakProgram
from .session import default_session


class SimulatedPermutation:
    """A Keccak-f[1600] callable backed by the processor simulator.

    Every call is one :meth:`~repro.programs.session.Session.run` on the
    process default session (:func:`~repro.programs.session.default_session`),
    so its warm processor and predecoded program are shared with every
    other permutation of the same geometry in the process.  Without an
    explicit ``program`` the memory-IO program comes from that session's
    per-geometry cache.  Each instance keeps its own ``call_count`` and
    ``total_cycles``.
    """

    def __init__(self, elen: int = 64, lmul: int = 8, elenum: int = 5,
                 program: Optional[KeccakProgram] = None,
                 num_rounds: int = 24, engine: str = "auto") -> None:
        self.engine = validate_engine(engine)
        self._session = default_session()
        self.program = program or self._session._memory_io_program(
            elen, lmul, elenum, num_rounds)
        if self.program.state_base is None:
            raise ValueError(
                "the simulated permutation needs a memory-IO program"
            )
        self.call_count = 0
        self.total_cycles = 0

    def __call__(self, state: KeccakState) -> KeccakState:
        result = self._session.run(self.program, [state],
                                   engine=self.engine)
        self.call_count += 1
        self.total_cycles += result.stats.cycles
        return result.states[0]


def simulated_sha3_256(message: bytes,
                       permutation: Optional[SimulatedPermutation] = None
                       ) -> bytes:
    """SHA3-256 digest computed entirely on the simulated processor."""
    perm = permutation or SimulatedPermutation()
    return Sponge(512, SHA3_SUFFIX, permutation=perm).absorb(
        message).squeeze(32)


def simulated_shake128(message: bytes, length: int,
                       permutation: Optional[SimulatedPermutation] = None
                       ) -> bytes:
    """SHAKE128 output computed entirely on the simulated processor."""
    perm = permutation or SimulatedPermutation()
    return Sponge(256, SHAKE_SUFFIX, permutation=perm).absorb(
        message).squeeze(length)
