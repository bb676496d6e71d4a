"""Tests for the Intermediate Result Buffer."""

from repro.bmo.base import BmoContext
from repro.janus.irb import IntermediateResultBuffer, IrbEntry
from tests.irb_reference import LinearScanIrb
from repro.sim import Simulator


def entry(pre_id=1, thread=0, txn=0, addr=64, data=None, seq=0):
    return IrbEntry(pre_id=pre_id, thread_id=thread, transaction_id=txn,
                    line_addr=addr, data=data,
                    ctx=BmoContext(addr=addr, data=data), data_seq=seq)


def make_irb(capacity=4, max_age=1000.0):
    sim = Simulator()
    return sim, IntermediateResultBuffer(sim, capacity, max_age_ns=max_age)


def test_insert_and_match_by_address():
    sim, irb = make_irb()
    irb.insert(entry(addr=128))
    match = irb.match_write(thread_id=0, line_addr=128, data=b"\x00" * 64)
    assert match is not None and match.line_addr == 128
    assert irb.stats.counters["hits"].value == 1


def test_match_miss_counts():
    sim, irb = make_irb()
    irb.insert(entry(addr=128))
    assert irb.match_write(0, 999 * 64, b"") is None
    assert irb.stats.counters["misses"].value == 1


def test_match_is_thread_private():
    sim, irb = make_irb()
    irb.insert(entry(thread=1, addr=128))
    assert irb.match_write(0, 128, b"") is None


def test_full_buffer_drops_new_entries():
    sim, irb = make_irb(capacity=2)
    assert irb.insert(entry(pre_id=1, addr=0))
    assert irb.insert(entry(pre_id=2, addr=64))
    assert not irb.insert(entry(pre_id=3, addr=128))
    assert irb.stats.counters["dropped_full"].value == 1


def test_same_key_same_line_merges():
    sim, irb = make_irb()
    addr_only = entry(pre_id=5, addr=64, data=None)
    addr_only.ctx.values["counter"] = 7
    addr_only.ctx.completed = {"E1"}
    irb.insert(addr_only)
    with_data = entry(pre_id=5, addr=64, data=b"\x01" * 64)
    with_data.ctx.completed = {"D1"}
    irb.insert(with_data)
    assert len(irb) == 1
    merged = irb.entries()[0]
    assert merged.ctx.completed == {"E1", "D1"}
    assert merged.ctx.values["counter"] == 7
    assert merged.data == b"\x01" * 64


def test_data_only_entry_pairs_with_addr_by_seq():
    sim, irb = make_irb()
    data_entry = entry(pre_id=9, addr=None, data=b"\x02" * 64, seq=0)
    data_entry.line_addr = None
    irb.insert(data_entry)
    addr_entry = entry(pre_id=9, addr=256, data=None, seq=0)
    irb.insert(addr_entry)
    assert len(irb) == 1
    assert irb.entries()[0].line_addr == 256
    assert irb.entries()[0].data == b"\x02" * 64


def test_data_only_entry_matches_write_by_bytes():
    sim, irb = make_irb()
    data_entry = entry(pre_id=9, addr=None, data=b"\x03" * 64)
    irb.insert(data_entry)
    match = irb.match_write(0, 512, b"\x03" * 64)
    assert match is data_entry
    assert irb.match_write(0, 512, b"\x04" * 64) is None


def test_consume_removes_entry():
    sim, irb = make_irb()
    e = entry()
    irb.insert(e)
    irb.consume(e)
    assert len(irb) == 0
    irb.consume(e)  # idempotent


def test_invalidate_line_and_range():
    sim, irb = make_irb(capacity=8)
    irb.insert(entry(pre_id=1, addr=0))
    irb.insert(entry(pre_id=2, addr=64))
    irb.insert(entry(pre_id=3, addr=128))
    assert irb.invalidate_line(64) == 1
    assert irb.invalidate_range(0, 256) == 2
    assert len(irb) == 0


def test_clear_thread():
    sim, irb = make_irb(capacity=8)
    irb.insert(entry(pre_id=1, thread=0, addr=0))
    irb.insert(entry(pre_id=2, thread=1, addr=64))
    assert irb.clear_thread(0) == 1
    assert len(irb) == 1
    assert irb.entries()[0].thread_id == 1


def test_metadata_change_invalidates_matching_fingerprint():
    sim, irb = make_irb(capacity=8)
    e = entry(pre_id=1, addr=0)
    e.ctx.values["fingerprint"] = b"fp-1"
    irb.insert(e)
    other = entry(pre_id=2, addr=64)
    other.ctx.values["fingerprint"] = b"fp-2"
    irb.insert(other)
    irb.on_metadata_change("dedup", {"kind": "entry_dropped",
                                     "fingerprint": b"fp-1"})
    remaining = irb.entries()
    assert len(remaining) == 1
    assert remaining[0].ctx.values["fingerprint"] == b"fp-2"


def test_entries_age_out():
    sim, irb = make_irb(capacity=8, max_age=100.0)
    irb.insert(entry(pre_id=1, addr=0))

    def later():
        yield sim.delay(200)

    sim.process(later())
    sim.run()
    assert irb.match_write(0, 0, b"") is None
    assert irb.stats.counters["expired"].value == 1


def test_data_only_match_most_recent_wins():
    """Docstring semantics: most-recently-created entry wins — the old
    scan took the *first* data-only match found instead."""
    sim, irb = make_irb(capacity=8)
    first = entry(pre_id=1, addr=None, data=b"\x05" * 64)
    irb.insert(first)

    def later():
        yield sim.delay(10)
        second = entry(pre_id=2, addr=None, data=b"\x05" * 64)
        irb.insert(second)

    sim.process(later())
    sim.run()
    match = irb.match_write(0, 0x4000, b"\x05" * 64)
    assert match is not None and match.pre_id == 2


def test_address_match_beats_data_only_match():
    """An address match is the primary key (paper step 5): it must win
    over a byte-compare data-only match regardless of age."""
    sim, irb = make_irb(capacity=8)
    payload = b"\x06" * 64
    addressed = entry(pre_id=1, addr=0x1000, data=payload)
    irb.insert(addressed)

    def later():
        yield sim.delay(10)
        data_only = entry(pre_id=2, addr=None, data=payload)
        irb.insert(data_only)

    sim.process(later())
    sim.run()
    # The data-only entry is newer, but the write's address matches
    # the older entry: address wins.
    match = irb.match_write(0, 0x1000, payload)
    assert match is addressed


def test_insert_returns_owning_entry():
    sim, irb = make_irb()
    fresh = entry(pre_id=5, addr=64, data=None)
    assert irb.insert(fresh) is fresh
    merging = entry(pre_id=5, addr=64, data=b"\x01" * 64)
    assert irb.insert(merging) is fresh  # merged into the existing one


def test_insert_returns_none_when_full():
    sim, irb = make_irb(capacity=1)
    assert irb.insert(entry(pre_id=1, addr=0)) is not None
    assert irb.insert(entry(pre_id=2, addr=64)) is None


def test_merge_gaining_address_moves_entry_to_address_index():
    sim, irb = make_irb()
    payload = b"\x07" * 64
    data_only = entry(pre_id=9, addr=None, data=payload)
    irb.insert(data_only)
    addr_side = entry(pre_id=9, addr=0x2000, data=None)
    owner = irb.insert(addr_side)
    assert owner is data_only and owner.line_addr == 0x2000
    # Matched by address now, and invalidated by line like any
    # addressed entry.
    assert irb.match_write(0, 0x2000, b"") is data_only
    assert irb.invalidate_line(0x2000) == 1
    assert len(irb) == 0


def _drive_merge_reorder(irb, sim, merge_at):
    """data-only pre_id=1 at t=0, addressed pre_id=2 at t=5, then
    pre_id=1 merges and gains the same address at ``merge_at`` — the
    merged entry is appended to the (thread, line) bucket *after* the
    younger pre_id=2 while keeping created_at=0."""
    sim.now = 0.0
    irb.insert(IrbEntry(pre_id=1, thread_id=0, transaction_id=0,
                        line_addr=None, data=b"\x05" * 64))
    sim.now = 5.0
    irb.insert(IrbEntry(pre_id=2, thread_id=0, transaction_id=0,
                        line_addr=0x400, data=None))
    sim.now = merge_at
    irb.insert(IrbEntry(pre_id=1, thread_id=0, transaction_id=0,
                        line_addr=0x400, data=None))
    return irb.match_write(0, 0x400, b"\x00" * 64)


def test_merged_entry_does_not_shadow_newer_address_match():
    """Regression: after a data-only entry merges with an
    address-bearing op, match_write must still return the
    most-recently-created entry for that (thread, line) — bucket
    append order at merge time must not override created_at."""
    sim, irb = make_irb(capacity=8)
    match = _drive_merge_reorder(irb, sim, merge_at=7.0)
    assert match is not None
    assert match.pre_id == 2 and match.created_at == 5.0
    # And it agrees with the linear-scan reference.
    ref_sim = Simulator()
    ref = _drive_merge_reorder(
        LinearScanIrb(ref_sim, capacity=8, max_age_ns=1000.0),
        ref_sim, merge_at=7.0)
    assert (ref.pre_id, ref.created_at) == (match.pre_id,
                                            match.created_at)


def test_merged_entry_created_at_tie_breaks_by_insertion_order():
    """Both entries created at the same instant: the later-inserted
    one wins, matching the reference scan's tie-break, even though
    the merge put the earlier entry last in the address bucket."""

    def drive(irb, sim):
        irb.insert(IrbEntry(pre_id=1, thread_id=0, transaction_id=0,
                            line_addr=None, data=b"\x05" * 64))
        irb.insert(IrbEntry(pre_id=2, thread_id=0, transaction_id=0,
                            line_addr=0x400, data=None))  # same t=0
        sim.now = 3.0
        irb.insert(IrbEntry(pre_id=1, thread_id=0, transaction_id=0,
                            line_addr=0x400, data=None))  # merge
        return irb.match_write(0, 0x400, b"\x00" * 64)

    sim_a, indexed = make_irb(capacity=8)
    got_a = drive(indexed, sim_a)
    sim_b = Simulator()
    got_b = drive(LinearScanIrb(sim_b, capacity=8, max_age_ns=1000.0),
                  sim_b)
    assert got_a is not None and got_b is not None
    assert got_a.pre_id == got_b.pre_id == 2
    assert got_a.created_at == got_b.created_at == 0.0


def test_most_recent_entry_wins_on_duplicate_addr():
    sim, irb = make_irb(capacity=8)
    first = entry(pre_id=1, addr=0)
    irb.insert(first)

    def later():
        yield sim.delay(10)
        second = entry(pre_id=2, addr=0)
        irb.insert(second)

    sim.process(later())
    sim.run()
    match = irb.match_write(0, 0, b"\x00" * 64)
    assert match.pre_id == 2
