"""A simple persistent-heap allocator over the NVM address space.

Workloads allocate their data structures (arrays, tree nodes, log
regions) from an :class:`NvmHeap`.  Allocation is a first-fit free
list over a bump region — enough to exercise realistic, non-contiguous
layouts while remaining deterministic.

Cache-line alignment matters to Janus: ``PRE_DATA`` alone is only safe
on line-aligned objects (paper §4.4 guideline 2), so the heap exposes
``alloc(..., align=64)`` and workloads use it for pre-executed
objects.
"""

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.common.errors import AllocationError
from repro.common.units import CACHE_LINE_BYTES, align_up


@dataclass
class Allocation:
    """One live allocation."""

    addr: int
    size: int
    label: str


class NvmHeap:
    """First-fit allocator with free-list coalescing."""

    def __init__(self, base: int, size: int):
        if size <= 0:
            raise AllocationError("heap size must be positive")
        self.base = base
        self.size = size
        # Free list of (addr, size), kept sorted by addr.
        self._free: List[Tuple[int, int]] = [(base, size)]
        self._live: Dict[int, Allocation] = {}
        self.bytes_allocated = 0

    def alloc(self, size: int, align: int = 8, label: str = "") -> int:
        """Allocate ``size`` bytes aligned to ``align``; returns address."""
        if size <= 0:
            raise AllocationError(f"allocation size must be positive: {size}")
        if align <= 0 or (align & (align - 1)):
            raise AllocationError(f"alignment must be a power of two: {align}")
        for i, (addr, extent) in enumerate(self._free):
            start = align_up(addr, align)
            pad = start - addr
            if extent >= pad + size:
                # Split the free block into [pad][allocation][tail].
                pieces = []
                if pad:
                    pieces.append((addr, pad))
                tail = extent - pad - size
                if tail:
                    pieces.append((start + size, tail))
                self._free[i:i + 1] = pieces
                self._live[start] = Allocation(start, size, label)
                self.bytes_allocated += size
                return start
        raise AllocationError(
            f"out of NVM heap: wanted {size} bytes (align {align}), "
            f"free={self.free_bytes()}")

    def alloc_line(self, size: int, label: str = "") -> int:
        """Allocate with cache-line alignment (for PRE_DATA targets)."""
        return self.alloc(size, align=CACHE_LINE_BYTES, label=label)

    def reserve(self, addr: int, size: int, label: str = "") -> int:
        """Carve out an allocation at an *exact* address.

        Image-restore paths (the soak harness resuming a workload on a
        recovered NVM image) need the rebuilt heap to reproduce the
        carried layout, not merely an equivalent one.  Raises
        :class:`AllocationError` when ``[addr, addr + size)`` is not
        wholly inside one free block.
        """
        if size <= 0:
            raise AllocationError(f"reservation size must be positive: {size}")
        for i, (start, extent) in enumerate(self._free):
            if start <= addr and addr + size <= start + extent:
                pieces = []
                if addr > start:
                    pieces.append((start, addr - start))
                tail = (start + extent) - (addr + size)
                if tail:
                    pieces.append((addr + size, tail))
                self._free[i:i + 1] = pieces
                self._live[addr] = Allocation(addr, size, label)
                self.bytes_allocated += size
                return addr
        raise AllocationError(
            f"cannot reserve [{addr:#x}, {addr + size:#x}): not free")

    def free(self, addr: int) -> None:
        """Release a live allocation, coalescing neighbours."""
        alloc = self._live.pop(addr, None)
        if alloc is None:
            raise AllocationError(f"free of unallocated address {addr:#x}")
        self.bytes_allocated -= alloc.size
        self._free.append((alloc.addr, alloc.size))
        self._free.sort()
        merged: List[Tuple[int, int]] = []
        for start, extent in self._free:
            if merged and merged[-1][0] + merged[-1][1] == start:
                prev_start, prev_extent = merged[-1]
                merged[-1] = (prev_start, prev_extent + extent)
            else:
                merged.append((start, extent))
        self._free = merged

    def free_bytes(self) -> int:
        return sum(extent for _addr, extent in self._free)

    def live_allocations(self) -> List[Allocation]:
        return sorted(self._live.values(), key=lambda a: a.addr)
