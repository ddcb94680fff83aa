"""Keccak state layout in the vector register file and in data memory.

Implements the paper's memory/register allocation figures:

* Fig. 5 (64-bit architecture): plane y of every state lives in vector
  register y; state s occupies element indices 5s..5s+4; in data memory,
  row y is a contiguous run of EleNum 64-bit lanes.
* Fig. 6 (32-bit architecture): each lane is split into a least-significant
  and a most-significant 32-bit half.  The low halves live in vector
  registers 0..4 (and a low memory region), the high halves in vector
  registers 16..20 (and a high memory region) — no bit interleaving, so no
  pre/post transformation is needed.
"""

from __future__ import annotations

import struct
from typing import List, Sequence

from ..keccak.interleave import join_hi_lo, split_hi_lo
from ..keccak.state import KeccakState
from ..sim.vector_regfile import VectorRegfile

#: Default vector register holding plane 0 of the low halves (Fig. 6).
LO_BASE_REG = 0

#: Default vector register holding plane 0 of the high halves (Fig. 6).
HI_BASE_REG = 16


def check_capacity(elenum: int, num_states: int) -> None:
    """Validate that ``num_states`` Keccak states fit in EleNum elements."""
    if num_states < 1:
        raise ValueError(f"need at least one state, got {num_states}")
    if 5 * num_states > elenum:
        raise ValueError(
            f"{num_states} state(s) need {5 * num_states} elements per "
            f"register but EleNum is only {elenum}"
        )


# -- vector register file, 64-bit architecture (Fig. 5) -------------------------


def load_states_regfile64(regfile: VectorRegfile,
                          states: Sequence[KeccakState],
                          base_reg: int = 0) -> None:
    """Place states into the register file per the Fig. 5 allocation."""
    elenum = regfile.elements_per_register(64)
    check_capacity(elenum, len(states))
    for s, state in enumerate(states):
        for y in range(5):
            for x in range(5):
                regfile.set_element(base_reg + y, 5 * s + x, 64, state[x, y])


def read_states_regfile64(regfile: VectorRegfile, num_states: int,
                          base_reg: int = 0) -> List[KeccakState]:
    """Read states back out of the Fig. 5 allocation."""
    elenum = regfile.elements_per_register(64)
    check_capacity(elenum, num_states)
    states = []
    for s in range(num_states):
        state = KeccakState()
        for y in range(5):
            for x in range(5):
                state[x, y] = regfile.get_element(base_reg + y, 5 * s + x, 64)
        states.append(state)
    return states


# -- vector register file, 32-bit architecture (Fig. 6) ----------------------------


def load_states_regfile32(regfile: VectorRegfile,
                          states: Sequence[KeccakState],
                          lo_base: int = LO_BASE_REG,
                          hi_base: int = HI_BASE_REG) -> None:
    """Place hi/lo-split states into the register file per Fig. 6."""
    elenum = regfile.elements_per_register(32)
    check_capacity(elenum, len(states))
    for s, state in enumerate(states):
        for y in range(5):
            for x in range(5):
                hi, lo = split_hi_lo(state[x, y])
                regfile.set_element(lo_base + y, 5 * s + x, 32, lo)
                regfile.set_element(hi_base + y, 5 * s + x, 32, hi)


def read_states_regfile32(regfile: VectorRegfile, num_states: int,
                          lo_base: int = LO_BASE_REG,
                          hi_base: int = HI_BASE_REG) -> List[KeccakState]:
    """Read hi/lo-split states back out of the Fig. 6 allocation."""
    elenum = regfile.elements_per_register(32)
    check_capacity(elenum, num_states)
    states = []
    for s in range(num_states):
        state = KeccakState()
        for y in range(5):
            for x in range(5):
                lo = regfile.get_element(lo_base + y, 5 * s + x, 32)
                hi = regfile.get_element(hi_base + y, 5 * s + x, 32)
                state[x, y] = join_hi_lo(hi, lo)
        states.append(state)
    return states


# -- data memory images -------------------------------------------------------------


def memory_image64(states: Sequence[KeccakState], elenum: int) -> bytes:
    """Serialize states into the Fig. 5 memory layout (5 rows x EleNum lanes).

    A plane of a state is a contiguous run of 5 lanes both in the state
    and in its memory row, so each state goes in as 5 row slices and
    the whole image is packed in one call.
    """
    check_capacity(elenum, len(states))
    lanes = [0] * (5 * elenum)
    for s, state in enumerate(states):
        flat = state.lanes
        for y in range(5):
            start = y * elenum + 5 * s
            lanes[start : start + 5] = flat[5 * y : 5 * y + 5]
    return struct.pack(f"<{5 * elenum}Q", *lanes)


def parse_memory_image64(data: bytes, elenum: int,
                         num_states: int) -> List[KeccakState]:
    """Inverse of :func:`memory_image64`."""
    check_capacity(elenum, num_states)
    expected = 5 * elenum * 8
    if len(data) < expected:
        raise ValueError(f"image too small: {len(data)} < {expected}")
    lanes = struct.unpack_from(f"<{5 * elenum}Q", data)
    states = []
    for s in range(num_states):
        flat: List[int] = []
        for y in range(5):
            start = y * elenum + 5 * s
            flat += lanes[start : start + 5]
        states.append(KeccakState(flat))
    return states


def memory_image32(states: Sequence[KeccakState], elenum: int) -> bytes:
    """Serialize states into the Fig. 6 memory layout.

    The low region (5 rows x EleNum 32-bit words) is followed by the high
    region of the same size.
    """
    check_capacity(elenum, len(states))
    region = 5 * elenum * 4
    image = bytearray(2 * region)
    for s, state in enumerate(states):
        for y in range(5):
            for x in range(5):
                hi, lo = split_hi_lo(state[x, y])
                offset = (y * elenum + 5 * s + x) * 4
                image[offset : offset + 4] = lo.to_bytes(4, "little")
                image[region + offset : region + offset + 4] = \
                    hi.to_bytes(4, "little")
    return bytes(image)


def parse_memory_image32(data: bytes, elenum: int,
                         num_states: int) -> List[KeccakState]:
    """Inverse of :func:`memory_image32`."""
    check_capacity(elenum, num_states)
    region = 5 * elenum * 4
    if len(data) < 2 * region:
        raise ValueError(f"image too small: {len(data)} < {2 * region}")
    states = []
    for s in range(num_states):
        state = KeccakState()
        for y in range(5):
            for x in range(5):
                offset = (y * elenum + 5 * s + x) * 4
                lo = int.from_bytes(data[offset : offset + 4], "little")
                hi = int.from_bytes(
                    data[region + offset : region + offset + 4], "little"
                )
                state[x, y] = join_hi_lo(hi, lo)
        states.append(state)
    return states
