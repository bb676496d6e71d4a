"""Units and conversion helpers.

All simulator time is kept in *nanoseconds* as floats.  The helpers
here exist so that calling code never hard-codes magic conversion
factors.
"""

#: One nanosecond — the base time unit of the simulator.
NS = 1.0

#: One microsecond in nanoseconds.
US = 1000.0

#: One millisecond in nanoseconds.
MS = 1_000_000.0

#: 1 GHz expressed as cycles per nanosecond.
GHZ = 1.0

#: Size of a cache line in bytes (the granularity at which BMOs operate).
CACHE_LINE_BYTES = 64

#: Binary kilobyte / megabyte / gigabyte.
KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB


def ns_to_cycles(ns: float, freq_ghz: float) -> float:
    """Convert a duration in nanoseconds to core cycles at ``freq_ghz``."""
    return ns * freq_ghz


def cycles_to_ns(cycles: float, freq_ghz: float) -> float:
    """Convert a cycle count at ``freq_ghz`` to nanoseconds."""
    if freq_ghz <= 0:
        raise ValueError(f"frequency must be positive, got {freq_ghz}")
    return cycles / freq_ghz


def align_down(addr: int, granularity: int = CACHE_LINE_BYTES) -> int:
    """Round ``addr`` down to a multiple of ``granularity``."""
    return addr - (addr % granularity)


def align_up(addr: int, granularity: int = CACHE_LINE_BYTES) -> int:
    """Round ``addr`` up to a multiple of ``granularity``."""
    rem = addr % granularity
    return addr if rem == 0 else addr + (granularity - rem)


def line_span(addr: int, size: int,
              granularity: int = CACHE_LINE_BYTES) -> range:
    """The aligned line addresses touched by ``[addr, addr + size)``,
    in ascending order (empty when ``size <= 0``).

    This is the decomposition performed by the Janus decoder when a
    pre-execution request covering an arbitrary byte range is split
    into cache-line-sized operations (paper §4.3.2, step 2).
    """
    if size <= 0:
        return range(0)
    return range(addr - addr % granularity, addr + size, granularity)
