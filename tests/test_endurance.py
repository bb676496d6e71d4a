"""Endurance accounting and the effect of wear-leveling."""

import pytest

from repro.common.config import default_config
from repro.core import NvmSystem


def hammer_program(core, addr, writes):
    """Repeatedly overwrite one line — the endurance worst case."""
    for i in range(writes):
        yield from core.store(addr, bytes([i % 251 + 1]) * 64)
        yield from core.persist(addr, 64)


def run_hammer(bmos, writes=40):
    system = NvmSystem(default_config(mode="serialized", bmos=bmos))
    core = system.cores[0]
    addr = system.heap.alloc_line(64, label="hot")
    system.run_programs([hammer_program(core, addr, writes)])
    system.run()
    return system, addr


def test_write_counts_tracked():
    system, addr = run_hammer(bmos=("encryption",), writes=10)
    stats = system.device.wear_statistics()
    assert stats["lines"] >= 1
    assert stats["max"] >= 10  # the hammered line


def test_hot_spot_without_wear_leveling():
    """One hot line among cold neighbours: severe wear imbalance."""
    system = NvmSystem(default_config(mode="serialized",
                                      bmos=("encryption",)))
    core = system.cores[0]
    base = system.heap.alloc_line(64 * 8, label="region")

    def mixed():
        # Touch each cold line once...
        for i in range(8):
            yield from core.store(base + 64 * i, bytes([i + 1]) * 64)
            yield from core.persist(base + 64 * i, 64)
        # ...then hammer line 0.
        yield from hammer_program(core, base, 32)

    system.run_programs([mixed()])
    system.run()
    stats = system.device.wear_statistics()
    assert stats["imbalance"] > 3.0


def test_wear_leveling_spreads_the_hot_spot():
    import dataclasses
    from repro.bmo.wear_leveling import StartGap
    cfg = default_config(mode="serialized",
                         bmos=("wear_leveling", "encryption"))
    system = NvmSystem(cfg)
    # A small region with aggressive gap movement, so the gap passes
    # over the hot line's slot within this short test (a production
    # region needs a full rotation for the same effect).
    system.pipeline.by_name["wear_leveling"].start_gap = \
        StartGap(lines=8, gap_write_interval=2)
    core = system.cores[0]
    addr = system.heap.alloc_line(64, label="hot")
    system.run_programs([hammer_program(core, addr, 40)])
    system.run()

    plain = NvmSystem(default_config(mode="serialized",
                                     bmos=("encryption",)))
    core2 = plain.cores[0]
    addr2 = plain.heap.alloc_line(64, label="hot")
    plain.run_programs([hammer_program(core2, addr2, 40)])
    plain.run()

    leveled = system.device.wear_statistics()
    unleveled = plain.device.wear_statistics()
    # Start-Gap moves the hot line across physical slots: the worst
    # cell absorbs strictly fewer writes.
    assert leveled["max"] < unleveled["max"]
    assert leveled["lines"] > unleveled["lines"]


def test_dedup_reduces_total_device_writes():
    """Deduplication's endurance benefit: cancelled writes never
    reach the cells."""
    def repetitive(core, base, n):
        value = b"\x42" * 64  # same value every time
        for i in range(n):
            yield from core.store(base + 64 * i, value)
            yield from core.persist(base + 64 * i, 64)

    with_dedup = NvmSystem(default_config(
        mode="serialized", bmos=("dedup", "encryption")))
    base = with_dedup.heap.alloc_line(64 * 16)
    with_dedup.run_programs([repetitive(with_dedup.cores[0], base, 16)])
    with_dedup.run()

    without = NvmSystem(default_config(mode="serialized",
                                       bmos=("encryption",)))
    base2 = without.heap.alloc_line(64 * 16)
    without.run_programs([repetitive(without.cores[0], base2, 16)])
    without.run()

    assert with_dedup.metrics.as_flat_dict()["nvm.writes"] \
        < without.metrics.as_flat_dict()["nvm.writes"]
