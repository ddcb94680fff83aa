"""The Keccak state array and its partition views (paper Fig. 2).

The 1600-bit state is a 5 x 5 matrix of 64-bit lanes.  The paper discusses
three partitions — planes (rows), sheets (columns) and slices (z-sections) —
and selects the *plane-wise* partition for vectorization, because the five
lanes of a row can be processed by a single vector instruction.  This module
provides all three views plus the byte<->state conversions of FIPS 202.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Sequence, Tuple

from .constants import MASK64, STATE_BYTES


class KeccakState:
    """A 5 x 5 x 64-bit Keccak state.

    Lanes are stored row-major as a flat list ``_lanes[5 * y + x]``, the same
    lane ordering FIPS 202 uses for byte serialization and the same ordering
    the paper's vector register file uses within one plane (Fig. 5).
    """

    __slots__ = ("_lanes",)

    def __init__(self, lanes: Sequence[int] | None = None) -> None:
        if lanes is None:
            self._lanes: List[int] = [0] * 25
        else:
            lanes = list(lanes)
            if len(lanes) != 25:
                raise ValueError(
                    f"a Keccak state has 25 lanes, got {len(lanes)}"
                )
            for i, lane in enumerate(lanes):
                if not 0 <= lane <= MASK64:
                    raise ValueError(
                        f"lane {i} out of 64-bit range: {lane:#x}"
                    )
            self._lanes = lanes

    # -- element access ----------------------------------------------------

    def __getitem__(self, xy: Tuple[int, int]) -> int:
        x, y = xy
        self._check_coords(x, y)
        return self._lanes[5 * y + x]

    def __setitem__(self, xy: Tuple[int, int], value: int) -> None:
        x, y = xy
        self._check_coords(x, y)
        if not 0 <= value <= MASK64:
            raise ValueError(f"lane value out of 64-bit range: {value:#x}")
        self._lanes[5 * y + x] = value

    @staticmethod
    def _check_coords(x: int, y: int) -> None:
        if not (0 <= x < 5 and 0 <= y < 5):
            raise IndexError(f"lane coordinates out of range: ({x}, {y})")

    def get_bit(self, x: int, y: int, z: int) -> int:
        """Return the bit at coordinates (x, y, z) of the state array."""
        if not 0 <= z < 64:
            raise IndexError(f"z coordinate out of range: {z}")
        return (self[x, y] >> z) & 1

    # -- partition views (paper Fig. 2) ------------------------------------

    @property
    def lanes(self) -> Tuple[int, ...]:
        """All 25 lanes in row-major order (lane(x, y) at index 5y + x)."""
        return tuple(self._lanes)

    def plane(self, y: int) -> Tuple[int, ...]:
        """Plane y: the 5 lanes sharing row index y (the vectorized unit)."""
        if not 0 <= y < 5:
            raise IndexError(f"plane index out of range: {y}")
        return tuple(self._lanes[5 * y : 5 * y + 5])

    def set_plane(self, y: int, lanes: Iterable[int]) -> None:
        """Replace plane y with the given 5 lanes."""
        lanes = list(lanes)
        if len(lanes) != 5:
            raise ValueError(f"a plane has 5 lanes, got {len(lanes)}")
        for x, lane in enumerate(lanes):
            self[x, y] = lane

    def sheet(self, x: int) -> Tuple[int, ...]:
        """Sheet x: the 5 lanes sharing column index x."""
        if not 0 <= x < 5:
            raise IndexError(f"sheet index out of range: {x}")
        return tuple(self._lanes[5 * y + x] for y in range(5))

    def slice(self, z: int) -> Tuple[Tuple[int, ...], ...]:
        """Slice z: the 25 bits at depth z, as a 5x5 matrix indexed [y][x]."""
        if not 0 <= z < 64:
            raise IndexError(f"slice index out of range: {z}")
        return tuple(
            tuple((self[x, y] >> z) & 1 for x in range(5)) for y in range(5)
        )

    # -- serialization (FIPS 202 / paper Fig. 5 memory order) ---------------

    def to_bytes(self) -> bytes:
        """Serialize to 200 bytes: lane(x, y) at offset 8*(5y + x), LE."""
        return b"".join(lane.to_bytes(8, "little") for lane in self._lanes)

    @classmethod
    def from_bytes(cls, data: bytes) -> "KeccakState":
        """Deserialize a 200-byte string into a state."""
        if len(data) != STATE_BYTES:
            raise ValueError(
                f"a serialized state is {STATE_BYTES} bytes, got {len(data)}"
            )
        return cls(
            [
                int.from_bytes(data[8 * i : 8 * i + 8], "little")
                for i in range(25)
            ]
        )

    def xor_bytes(self, data: bytes) -> None:
        """XOR ``data`` (at most 200 bytes) into the front of the state.

        This is the absorbing operation of the sponge construction: message
        blocks are XORed into the first ``rate`` bits of the state.
        """
        size = len(data)
        if size > STATE_BYTES:
            raise ValueError(
                f"cannot absorb {size} bytes into a 200-byte state"
            )
        lanes = self._lanes
        # One little-endian word per lane; a partial last word fills
        # the low bytes of its lane.
        for lane_index, start in enumerate(range(0, size, 8)):
            lanes[lane_index] ^= int.from_bytes(data[start:start + 8],
                                                "little")

    # -- misc ----------------------------------------------------------------

    def copy(self) -> "KeccakState":
        """Return an independent copy of this state."""
        return KeccakState(self._lanes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KeccakState):
            return NotImplemented
        return self._lanes == other._lanes

    def __hash__(self) -> int:
        return hash(tuple(self._lanes))

    def __iter__(self) -> Iterator[int]:
        return iter(self._lanes)

    def __repr__(self) -> str:
        rows = []
        for y in range(5):
            row = " ".join(f"{lane:016x}" for lane in self.plane(y))
            rows.append(f"  y={y}: {row}")
        return "KeccakState(\n" + "\n".join(rows) + "\n)"
