"""Data memory of the SIMD processor (paper Fig. 3, "Data Mem").

A flat little-endian byte-addressed memory.  The processor uses a Harvard
organisation: instructions live in a separate program memory (the assembled
:class:`~repro.assembler.program.Program`), data lives here.
"""

from __future__ import annotations

from .exceptions import MemoryAccessError

_WIDTH_BYTES = {8: 1, 16: 2, 32: 4, 64: 8}


class DataMemory:
    """Byte-addressable little-endian RAM with bounds checking.

    The memory remembers the byte range written since the last
    :meth:`clear` (``store`` and ``store_bytes`` widen it), so a clear
    zeroes only that range in place: a processor reset between two
    Keccak runs touches the 200-odd bytes of the state image, not the
    whole 1 MiB.
    """

    __slots__ = ("size", "_bytes", "_lo", "_hi")

    def __init__(self, size: int = 1 << 20) -> None:
        if size <= 0:
            raise ValueError(f"memory size must be positive, got {size}")
        self.size = size
        self._bytes = bytearray(size)
        #: Written range ``[_lo, _hi)`` since the last clear; empty when
        #: ``_lo >= _hi``.
        self._lo = size
        self._hi = 0

    def _check(self, address: int, nbytes: int) -> None:
        if address < 0 or address + nbytes > self.size:
            raise MemoryAccessError(
                f"access of {nbytes} byte(s) at {address:#x} outside "
                f"memory of size {self.size:#x}"
            )

    # -- typed accessors -------------------------------------------------------

    def load(self, address: int, width: int, signed: bool = False) -> int:
        """Load a ``width``-bit value (8/16/32/64)."""
        nbytes = _WIDTH_BYTES.get(width)
        if nbytes is None:
            raise ValueError(f"unsupported access width: {width}")
        end = address + nbytes
        if address < 0 or end > self.size:
            self._check(address, nbytes)
        value = int.from_bytes(self._bytes[address:end], "little")
        if signed and value >= 1 << (width - 1):
            value -= 1 << width
        return value

    def store(self, address: int, width: int, value: int) -> None:
        """Store the low ``width`` bits of ``value``."""
        nbytes = _WIDTH_BYTES.get(width)
        if nbytes is None:
            raise ValueError(f"unsupported access width: {width}")
        end = address + nbytes
        if address < 0 or end > self.size:
            self._check(address, nbytes)
        self._bytes[address:end] = (
            value & ((1 << width) - 1)
        ).to_bytes(nbytes, "little")
        if address < self._lo:
            self._lo = address
        if end > self._hi:
            self._hi = end

    # -- bulk accessors ----------------------------------------------------------

    def load_bytes(self, address: int, length: int) -> bytes:
        """Read ``length`` raw bytes."""
        self._check(address, length)
        return bytes(self._bytes[address : address + length])

    def store_bytes(self, address: int, data: bytes) -> None:
        """Write raw bytes."""
        length = len(data)
        self._check(address, length)
        if not length:
            return
        end = address + length
        self._bytes[address:end] = data
        if address < self._lo:
            self._lo = address
        if end > self._hi:
            self._hi = end

    def clear(self) -> None:
        """Zero the whole memory (in place: only the written range)."""
        lo, hi = self._lo, self._hi
        if lo < hi:
            self._bytes[lo:hi] = bytes(hi - lo)
        self._lo = self.size
        self._hi = 0
