"""Tests for functional memory and the volatile view."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import MemoryError_
from repro.mem import FunctionalMemory


def make_mem(capacity=4096):
    return FunctionalMemory(capacity)


def test_unwritten_memory_reads_zero():
    mem = make_mem()
    assert mem.read(100, 16) == bytes(16)
    assert mem.read_line(0) == bytes(64)


def test_line_write_read_roundtrip():
    mem = make_mem()
    data = bytes(range(64))
    mem.write_line(128, data)
    assert mem.read_line(128) == data


def test_unaligned_line_access_rejected():
    mem = make_mem()
    with pytest.raises(MemoryError_):
        mem.read_line(10)
    with pytest.raises(MemoryError_):
        mem.write_line(10, bytes(64))


def test_wrong_line_size_rejected():
    mem = make_mem()
    with pytest.raises(MemoryError_):
        mem.write_line(0, bytes(63))


def test_out_of_bounds_rejected():
    mem = make_mem(capacity=128)
    with pytest.raises(MemoryError_):
        mem.read(120, 16)
    with pytest.raises(MemoryError_):
        mem.write(-8, bytes(8))


def test_byte_write_spanning_lines():
    mem = make_mem()
    payload = bytes(range(100))
    mem.write(60, payload)  # spans lines 0, 64, 128
    assert mem.read(60, 100) == payload
    # Neighbouring bytes untouched.
    assert mem.read(0, 60) == bytes(60)


def test_partial_line_write_preserves_rest_of_line():
    mem = make_mem()
    mem.write_line(0, b"\xAA" * 64)
    mem.write(10, b"\x55" * 4)
    line = mem.read_line(0)
    assert line[10:14] == b"\x55" * 4
    assert line[:10] == b"\xAA" * 10
    assert line[14:] == b"\xAA" * 50


def test_written_lines_enumerates_sorted():
    mem = make_mem()
    mem.write_line(128, bytes(64))
    mem.write_line(0, bytes(64))
    addrs = [addr for addr, _data in mem.written_lines()]
    assert addrs == [0, 128]
    assert len(mem) == 2


def test_capacity_must_be_line_multiple():
    with pytest.raises(MemoryError_):
        FunctionalMemory(100)
    with pytest.raises(MemoryError_):
        FunctionalMemory(0)


def test_volatile_view_is_independent_store():
    nvm = make_mem()
    view = make_mem()
    view.write(0, b"plain")
    assert nvm.read(0, 5) == bytes(5)


@settings(max_examples=30)
@given(
    writes=st.lists(
        st.tuples(st.integers(0, 4000), st.binary(min_size=1, max_size=96)),
        min_size=1, max_size=10))
def test_reads_reflect_most_recent_writes(writes):
    mem = make_mem(8192)
    shadow = bytearray(8192)
    for addr, data in writes:
        mem.write(addr, data)
        shadow[addr:addr + len(data)] = data
    for addr, data in writes:
        assert mem.read(addr, len(data)) == bytes(
            shadow[addr:addr + len(data)])
