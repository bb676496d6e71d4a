"""Tests for the NVM heap allocator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import AllocationError
from repro.mem import NvmHeap


def test_alloc_returns_aligned_addresses():
    heap = NvmHeap(base=0, size=4096)
    addr = heap.alloc(10, align=64)
    assert addr % 64 == 0
    addr2 = heap.alloc(10, align=8)
    assert addr2 % 8 == 0


def test_alloc_line_is_cache_line_aligned():
    heap = NvmHeap(base=8, size=4096)
    assert heap.alloc_line(100) % 64 == 0


def test_allocations_do_not_overlap():
    heap = NvmHeap(base=0, size=4096)
    spans = []
    for size in (10, 100, 64, 1, 33):
        addr = heap.alloc(size)
        spans.append((addr, addr + size))
    spans.sort()
    for (a_start, a_end), (b_start, _b_end) in zip(spans, spans[1:]):
        assert a_end <= b_start


def test_exhaustion_raises():
    heap = NvmHeap(base=0, size=128)
    heap.alloc(100)
    with pytest.raises(AllocationError):
        heap.alloc(100)


def test_free_then_realloc_reuses_space():
    heap = NvmHeap(base=0, size=128)
    addr = heap.alloc(128)
    heap.free(addr)
    assert heap.alloc(128) == addr


def test_free_coalesces_neighbours():
    heap = NvmHeap(base=0, size=192)
    a = heap.alloc(64)
    b = heap.alloc(64)
    c = heap.alloc(64)
    heap.free(a)
    heap.free(c)
    heap.free(b)
    # A full-size allocation only fits if the three blocks coalesced.
    assert heap.alloc(192) == 0


def test_double_free_rejected():
    heap = NvmHeap(base=0, size=128)
    addr = heap.alloc(16)
    heap.free(addr)
    with pytest.raises(AllocationError):
        heap.free(addr)


def test_bad_requests_rejected():
    heap = NvmHeap(base=0, size=128)
    with pytest.raises(AllocationError):
        heap.alloc(0)
    with pytest.raises(AllocationError):
        heap.alloc(8, align=3)
    with pytest.raises(AllocationError):
        NvmHeap(base=0, size=0)


@settings(max_examples=30)
@given(ops=st.lists(st.integers(1, 200), min_size=1, max_size=30))
def test_accounting_matches_alloc_history(ops):
    heap = NvmHeap(base=0, size=1 << 16)
    live = []
    for i, size in enumerate(ops):
        addr = heap.alloc(size)
        live.append((addr, size))
        if i % 3 == 2:
            addr, size = live.pop(0)
            heap.free(addr)
    assert heap.bytes_allocated == sum(size for _a, size in live)
    assert len(heap.live_allocations()) == len(live)
