"""Byte-addressable functional memory and the volatile plaintext view."""

from typing import Dict, Iterator, Tuple

from repro.common.errors import MemoryError_
from repro.common.units import CACHE_LINE_BYTES, align_down, line_span


class FunctionalMemory:
    """Sparse byte store with line-granular bookkeeping.

    Used for the persistent NVM contents (ciphertext when encryption
    is enabled).  Unwritten bytes read as zero.
    """

    def __init__(self, capacity_bytes: int,
                 line_bytes: int = CACHE_LINE_BYTES):
        if capacity_bytes <= 0 or capacity_bytes % line_bytes:
            raise MemoryError_(
                f"capacity {capacity_bytes} must be a positive multiple "
                f"of the {line_bytes}-byte line size")
        self.capacity_bytes = capacity_bytes
        self.line_bytes = line_bytes
        self._lines: Dict[int, bytes] = {}
        #: What an unwritten line reads as (shared: bytes are immutable).
        self._zero = bytes(line_bytes)

    def _check(self, addr: int, size: int) -> None:
        if addr < 0 or addr + size > self.capacity_bytes:
            raise MemoryError_(
                f"access [{addr:#x}, {addr + size:#x}) outside capacity "
                f"{self.capacity_bytes:#x}")

    # -- line interface ----------------------------------------------------
    def read_line(self, line_addr: int) -> bytes:
        self._check(line_addr, self.line_bytes)
        if line_addr % self.line_bytes:
            raise MemoryError_(f"unaligned line address {line_addr:#x}")
        data = self._lines.get(line_addr)
        return self._zero if data is None else data

    def write_line(self, line_addr: int, data: bytes) -> None:
        self._check(line_addr, self.line_bytes)
        if line_addr % self.line_bytes:
            raise MemoryError_(f"unaligned line address {line_addr:#x}")
        if len(data) != self.line_bytes:
            raise MemoryError_(
                f"line write must be {self.line_bytes} bytes, "
                f"got {len(data)}")
        self._lines[line_addr] = bytes(data)

    def written_lines(self) -> Iterator[Tuple[int, bytes]]:
        """All (line_addr, data) pairs ever written (recovery scans)."""
        return iter(sorted(self._lines.items()))

    # -- byte-range interface -----------------------------------------------
    def read(self, addr: int, size: int) -> bytes:
        self._check(addr, size)
        out = bytearray()
        for line_addr in line_span(addr, size, self.line_bytes):
            out += self.read_line(line_addr)
        offset = addr - align_down(addr, self.line_bytes)
        return bytes(out[offset:offset + size])

    def write(self, addr: int, data: bytes) -> None:
        size = len(data)
        self._check(addr, size)
        line_bytes = self.line_bytes
        lines = self._lines
        pos = 0
        while pos < size:
            start = (addr + pos) % line_bytes
            line_addr = addr + pos - start
            chunk = min(line_bytes - start, size - pos)
            if chunk == line_bytes:
                # A whole aligned line: stored in one step.
                lines[line_addr] = bytes(data[pos:pos + chunk])
            else:
                line = bytearray(lines.get(line_addr, self._zero))
                line[start:start + chunk] = data[pos:pos + chunk]
                lines[line_addr] = bytes(line)
            pos += chunk

    def __len__(self) -> int:
        """Number of distinct lines ever written."""
        return len(self._lines)
