"""The per-line helpers against the Python loops they replaced.

``line_span``, ``make_value``'s fresh-line draw, ``derive_otp`` and
``FunctionalMemory.write`` now loop in C (a ``range``, ``map`` over
``getrandbits``, one hash per pad block, whole-line stores).  The
loops below are their old bodies, kept as references: the rewritten
helpers must return the same bytes, leave the same random state and
raise the same errors on every input, the edge cases included.
"""

import hashlib
import random

import pytest

from repro.common.errors import MemoryError_
from repro.common.units import CACHE_LINE_BYTES, align_down, align_up, \
    line_span
from repro.crypto import derive_otp
from repro.harness.crash_campaign import build
from repro.mem import FunctionalMemory
from repro.workloads import WorkloadParams


# -- references ---------------------------------------------------------------
def reference_line_span(addr, size, granularity=CACHE_LINE_BYTES):
    """``line_span`` as a generator."""
    if size <= 0:
        return
    first = align_down(addr, granularity)
    last = align_down(addr + size - 1, granularity)
    line = first
    while line <= last:
        yield line
        line += granularity


def reference_make_value(workload, nbytes=None):
    """``TransactionalWorkload.make_value`` with the per-byte
    generator draw."""
    nbytes = nbytes if nbytes is not None else workload.params.value_size
    nbytes = align_up(nbytes)
    lines = []
    for _ in range(nbytes // CACHE_LINE_BYTES):
        if workload._pool and \
                workload._choice_rng.random() < workload.params.dedup_ratio:
            lines.append(workload._choice_rng.choice(workload._pool))
        else:
            fresh = bytes(workload._value_rng.getrandbits(8)
                          for _ in range(CACHE_LINE_BYTES))
            workload._pool.append(fresh)
            lines.append(fresh)
    return b"".join(lines)


def reference_derive_otp(key, counter, addr, length=CACHE_LINE_BYTES):
    """``derive_otp`` rebuilding its whole input for every block."""
    pad = b""
    block = 0
    while len(pad) < length:
        material = key + counter.to_bytes(16, "little") \
            + addr.to_bytes(8, "little") + block.to_bytes(4, "little")
        pad += hashlib.sha256(material).digest()
        block += 1
    return pad[:length]


def reference_write(mem, addr, data):
    """``FunctionalMemory.write`` as a read-modify-write of every
    line through the line interface."""
    mem._check(addr, len(data))
    pos = 0
    while pos < len(data):
        line_addr = align_down(addr + pos, mem.line_bytes)
        line = bytearray(mem.read_line(line_addr))
        start = (addr + pos) - line_addr
        chunk = min(mem.line_bytes - start, len(data) - pos)
        line[start:start + chunk] = data[pos:pos + chunk]
        mem.write_line(line_addr, bytes(line))
        pos += chunk


# -- line_span ----------------------------------------------------------------
@pytest.mark.parametrize("granularity", (1, 16, 48, 64, 100, 128))
def test_line_span_matches_reference(granularity):
    for addr in range(-130, 300, 7):
        for size in (-65, -1, 0, 1, 2, 47, 63, 64, 65, 127, 128, 200):
            got = line_span(addr, size, granularity)
            assert isinstance(got, range)
            assert list(got) == list(
                reference_line_span(addr, size, granularity)), \
                (addr, size, granularity)


# -- make_value ---------------------------------------------------------------
def fresh_workload(dedup_ratio):
    _system, (workload,) = build(
        "hash_table", "serialized",
        WorkloadParams(n_items=4, n_transactions=1,
                       dedup_ratio=dedup_ratio))
    return workload


@pytest.mark.parametrize("dedup_ratio", (0.0, 0.5, 1.0))
def test_make_value_matches_reference(dedup_ratio):
    """Same values, same pool and the same state of both random
    streams after each call, from seeded and empty pools alike."""
    got, expected = fresh_workload(dedup_ratio), fresh_workload(dedup_ratio)
    assert got._pool
    for pool in ("seeded", "empty"):
        if pool == "empty":
            got._pool.clear()
            expected._pool.clear()
        for nbytes in (None, -5, 0, 1, 63, 64, 65, 200, 1000):
            value = got.make_value(nbytes)
            assert value == reference_make_value(expected, nbytes), nbytes
            assert got._pool == expected._pool
            assert got._value_rng.getstate() == \
                expected._value_rng.getstate()
            assert got._choice_rng.getstate() == \
                expected._choice_rng.getstate()


# -- derive_otp ---------------------------------------------------------------
@pytest.mark.parametrize("key,counter,addr", [
    (b"", 0, 0),
    (b"k" * 16, 1, 0x40),
    (bytes(range(16)), 2**64 + 3, 0xFFFF_FFC0),
    (b"janus-otp-key", 12345, 2**63),
])
def test_derive_otp_matches_reference(key, counter, addr):
    for length in range(0, 131):
        pad = derive_otp(key, counter, addr, length)
        assert pad == reference_derive_otp(key, counter, addr, length)
        assert len(pad) == length
    assert derive_otp(key, counter, addr) == \
        reference_derive_otp(key, counter, addr)


# -- FunctionalMemory ---------------------------------------------------------
@pytest.mark.parametrize("line_bytes", (32, 64, 128))
def test_memory_write_matches_reference(line_bytes):
    capacity = 16 * line_bytes
    got = FunctionalMemory(capacity, line_bytes)
    expected = FunctionalMemory(capacity, line_bytes)
    rng = random.Random(line_bytes)
    spans = [(0, line_bytes), (line_bytes, 3 * line_bytes),
             (capacity - line_bytes, line_bytes), (5, 0), (capacity, 0)]
    for _ in range(300):
        addr = rng.randrange(capacity)
        size = rng.randrange(0, min(4 * line_bytes, capacity - addr) + 1)
        spans.append((addr, size))
    for addr, size in spans:
        data = bytes(rng.getrandbits(8) for _ in range(size))
        got.write(addr, data)
        reference_write(expected, addr, data)
        assert got._lines == expected._lines, (addr, size)
    assert got.read(0, capacity) == expected.read(0, capacity)
    # Non-bytes buffers store the same bytes.
    got.write(line_bytes, bytearray(b"\x5a" * line_bytes))
    reference_write(expected, line_bytes, bytearray(b"\x5a" * line_bytes))
    assert got._lines == expected._lines
    assert all(type(data) is bytes for data in got._lines.values())


@pytest.mark.parametrize("addr,size", [
    (-1, 1), (-64, 64), (4096 - 63, 64), (4096, 1), (4032, 65),
    (10_000, 0), (-1, 0),
])
def test_out_of_range_writes_raise_like_reference(addr, size):
    got, expected = FunctionalMemory(4096), FunctionalMemory(4096)
    got.write(0, bytes(range(64)))
    reference_write(expected, 0, bytes(range(64)))
    data = b"\xff" * size
    with pytest.raises(MemoryError_) as got_err:
        got.write(addr, data)
    with pytest.raises(MemoryError_) as expected_err:
        reference_write(expected, addr, data)
    assert str(got_err.value) == str(expected_err.value)
    assert got._lines == expected._lines


def test_read_line_hit_returns_the_stored_line():
    mem = FunctionalMemory(4096)
    line = bytes(range(64))
    mem.write(128, line)
    assert mem.read_line(128) is mem._lines[128]
    assert mem.read_line(192) == bytes(64)
    assert mem.read_line(192) is mem.read_line(256)
    with pytest.raises(MemoryError_, match="unaligned"):
        mem.read_line(130)
    with pytest.raises(MemoryError_, match="outside capacity"):
        mem.read_line(4096)
