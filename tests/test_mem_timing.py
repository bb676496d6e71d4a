"""Tests for cache latency model, NVM device, and write queue."""

from collections import OrderedDict
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import CacheConfig, MemoryConfig
from repro.mem import CacheModel, FunctionalMemory, NvmDevice, WriteQueue
from repro.mem.cache import _SetAssocArray
from repro.mem.write_queue import WriteEntry
from repro.obs.metrics import MetricsRegistry
from repro.sim import Simulator
from repro.validate.invariants import InvariantChecker


def test_cache_first_touch_misses_then_hits():
    cache = CacheModel(CacheConfig(), memory_read_ns=60.0)
    cold = cache.access_ns(0x1000)
    warm = cache.access_ns(0x1000)
    assert cold > warm
    assert warm == pytest.approx(CacheConfig().l1_hit_ns)
    assert cache.misses == 1 and cache.l1_hits == 1


def test_cache_l2_catches_l1_evictions():
    cfg = CacheConfig(l1_size_bytes=8 * 64, l2_size_bytes=1024 * 64)
    cache = CacheModel(cfg, memory_read_ns=60.0)
    # One set in L1 holds 8 ways; touch 9 conflicting lines.
    stride = 64  # all map to set 0 only if sets == 1; 8 lines/8 ways => 1 set
    for i in range(9):
        cache.access_ns(i * stride)
    latency = cache.access_ns(0)  # evicted from L1, still in L2
    assert latency == pytest.approx(cfg.l1_hit_ns + cfg.l2_hit_ns)


class _EagerSetAssocArray:
    """Reference tag array: every set built up front."""

    def __init__(self, size_bytes, ways, line_bytes=64):
        lines = size_bytes // line_bytes
        self.sets = lines // ways
        self.ways = ways
        self.line_bytes = line_bytes
        self._tags = [OrderedDict() for _ in range(self.sets)]

    def _locate(self, addr):
        line = addr // self.line_bytes
        return line % self.sets, line // self.sets

    def access(self, addr):
        set_index, tag = self._locate(addr)
        tags = self._tags[set_index]
        if tag in tags:
            tags.move_to_end(tag)
            return True
        if len(tags) >= self.ways:
            tags.popitem(last=False)
        tags[tag] = True
        return False

    def contains(self, addr):
        set_index, tag = self._locate(addr)
        return tag in self._tags[set_index]

    def invalidate(self, addr):
        set_index, tag = self._locate(addr)
        self._tags[set_index].pop(tag, None)


@settings(max_examples=50)
@given(stream=st.lists(
    st.tuples(st.sampled_from(("access", "contains", "invalidate")),
              st.integers(0, 63)),
    max_size=200))
def test_lazy_cache_sets_match_eager_reference(stream):
    # 4 sets x 2 ways over 64 lines: nearly every access conflicts.
    lazy = _SetAssocArray(8 * 64, ways=2)
    eager = _EagerSetAssocArray(8 * 64, ways=2)
    for op, line in stream:
        addr = line * 64
        assert getattr(lazy, op)(addr) == getattr(eager, op)(addr)
    for line in range(64):
        assert lazy.contains(line * 64) == eager.contains(line * 64)


def test_cache_hit_rate_counts():
    cache = CacheModel(CacheConfig(), memory_read_ns=60.0)
    assert cache.hit_rate() == 0.0
    cache.access_ns(0)
    cache.access_ns(0)
    assert cache.hit_rate() == pytest.approx(0.5)


def test_nvm_device_serialises_channel():
    sim = Simulator()
    dev = NvmDevice(sim, MemoryConfig(channels=1, write_service_ns=100))
    done = []
    for i in range(3):
        dev.write(i * 64, lambda: done.append(sim.now))
    sim.run()
    assert done == [100, 200, 300]


def test_nvm_device_multiple_channels_parallelise():
    sim = Simulator()
    dev = NvmDevice(sim, MemoryConfig(channels=2, write_service_ns=100))
    done = []
    dev.write(0, lambda: done.append(sim.now))     # channel 0
    dev.write(64, lambda: done.append(sim.now))    # channel 1
    sim.run()
    assert done == [100, 100]


def accept(wq, entry):
    """Process helper: return once ``entry`` is accepted."""
    accepted = wq.sim.event("accepted")
    wq.accept(entry, accepted.succeed)
    yield accepted


def test_write_queue_accept_is_fast_drain_is_background():
    sim = Simulator()
    cfg = MemoryConfig(write_service_ns=100, write_queue_entries=8)
    dev = NvmDevice(sim, cfg)
    wq = WriteQueue(sim, cfg, dev)
    nvm = FunctionalMemory(4096)
    persist_time = []

    def entry(addr):
        return WriteEntry(addr=addr, data=b"\x01" * 64,
                          on_drain=lambda e: nvm.write_line(e.addr, e.data))

    def producer():
        yield from accept(wq, entry(0))
        persist_time.append(sim.now)

    sim.process(producer())
    sim.run()
    assert persist_time[0] < 100  # accepted before the device write
    assert wq.stats.counters["drained"].value == 1
    assert nvm.read_line(0) == b"\x01" * 64


def test_write_queue_backpressure_when_full():
    sim = Simulator()
    cfg = MemoryConfig(write_service_ns=100, write_queue_entries=2)
    dev = NvmDevice(sim, cfg)
    wq = WriteQueue(sim, cfg, dev)
    accept_times = []

    def producer():
        for i in range(4):
            yield from accept(wq, WriteEntry(addr=i * 64, data=bytes(64)))
            accept_times.append(sim.now)

    sim.process(producer())
    sim.run()
    # First two accepted immediately; the rest wait for drains.
    assert accept_times[0] == 0 and accept_times[1] == 0
    assert accept_times[2] >= 100
    assert wq.stats.counters["drained"].value == 4


def test_drained_event_waits_for_idle():
    sim = Simulator()
    cfg = MemoryConfig(write_service_ns=50)
    dev = NvmDevice(sim, cfg)
    wq = WriteQueue(sim, cfg, dev)
    times = []

    def producer():
        yield from accept(wq, WriteEntry(addr=0, data=bytes(64)))
        yield wq.drained_event()
        times.append(sim.now)

    sim.process(producer())
    sim.run()
    assert times == [50]
    # Idle queue: event fires immediately.
    ev = wq.drained_event()
    assert ev.triggered


def test_out_of_order_drains_then_adr_flush_keep_acceptance_order():
    """Drains finish out of acceptance order across channels; each
    retires its own entry, and an ADR flush then lands exactly the
    undrained entries, oldest first."""
    sim = Simulator()
    cfg = MemoryConfig(write_service_ns=100, write_queue_entries=8,
                       channels=2)
    wq = WriteQueue(sim, cfg, NvmDevice(sim, cfg))
    landed = []
    # Lines 0, 2, 4 share channel 0; lines 1 and 3 share channel 1.
    # The two entries for line 2 are equal by value: the queue must
    # still tell them apart.
    lines = [0, 2, 1, 4, 3, 2]
    entries = [WriteEntry(addr=64 * line, data=bytes(64),
                          on_drain=landed.append) for line in lines]

    def producer():
        for entry in entries:
            yield from accept(wq, entry)
        # Every entry was accepted at t=0, in list order.

    sim.process(producer())
    sim.run(until=150)
    # t=100: the heads of both channels drained, the first and the
    # third accepted.
    assert landed == [entries[0], entries[2]]
    pending = [entries[1], entries[3], entries[4], entries[5]]
    assert list(wq._pending) == pending
    checker = InvariantChecker(SimpleNamespace(metrics=MetricsRegistry()))
    checker.check_write_queue(wq)
    sim.run(until=250)
    # t=200: channel 0's second entry and channel 1's second entry.
    assert landed[2:] == [entries[1], entries[4]]
    assert list(wq._pending) == [entries[3], entries[5]]
    checker.check_write_queue(wq)
    assert wq.adr_flush() == 2
    assert landed[4:] == [entries[3], entries[5]]
    assert not wq._pending
    # The flushed entries' device writes still retire, without
    # landing the lines a second time.
    sim.run()
    assert len(landed) == len(entries)
    assert wq.stats.counters["drained"].value == len(entries)
    assert wq.outstanding == 0


def test_drain_failure_propagates_out_of_run():
    """A drain has no waiter: an error in it (here, landing the line
    in functional NVM) must stop the run, not vanish."""
    sim = Simulator()
    cfg = MemoryConfig(write_service_ns=50)
    dev = NvmDevice(sim, cfg)
    wq = WriteQueue(sim, cfg, dev)

    def broken(entry):
        raise RuntimeError(f"cannot land {entry.addr:#x}")

    def producer():
        yield from accept(wq, WriteEntry(addr=0x40, data=bytes(64),
                                         on_drain=broken))

    sim.process(producer())
    with pytest.raises(RuntimeError, match="cannot land 0x40"):
        sim.run()
    assert sim.now == 50
    # The drain's slot was still released on the way out.
    assert wq.outstanding == 0
