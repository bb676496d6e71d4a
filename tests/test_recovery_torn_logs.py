"""Torn and truncated log tails — the parser/recovery contract.

Built from synthetic NVM images (no encryption: counter 0 means raw
bytes), these tests pin down exactly how recovery treats damage in a
log region:

* a record whose payload runs past the region, or whose header or
  payload CRC fails, is a *torn tail*: the scan stops cleanly there,
  earlier records still replay/roll back correctly, and no exception
  or garbage restore escapes;
* a *commit record beyond a damaged line* is different: the commit
  protocol fences all of a transaction's records before its commit
  persists, so this shape can only mean the persist-domain guarantee
  failed — recovery must refuse (``RecoveryError``) rather than
  silently roll back (undo) or drop (redo) a committed transaction;
* a valid *backup/update* record beyond a gap is the normal mid-append
  crash shape and must NOT trigger that refusal.
"""

import pytest

from repro.common.errors import RecoveryError
from repro.common.units import CACHE_LINE_BYTES
from repro.consistency.recovery import RecoveredState
from repro.consistency.redo_log import _RCOMMIT_MAGIC, _REDO_MAGIC
from repro.consistency.undo_log import (
    _BACKUP_MAGIC,
    _COMMIT_MAGIC,
    pack_record,
)

BASE = 0x1000
CAPACITY = 16 * CACHE_LINE_BYTES
TARGET_A = 0x8000
TARGET_B = 0x8040

OLD_A = b"\xAA" * CACHE_LINE_BYTES
OLD_B = b"\xBB" * CACHE_LINE_BYTES
NEW_A = b"\x11" * CACHE_LINE_BYTES
NEW_B = b"\x22" * CACHE_LINE_BYTES
GARBAGE = b"\xDE\xAD" * 32  # non-zero line with an invalid header CRC


def make_state(lines, covered=()):
    """A RecoveredState over raw lines.

    ``covered`` marks line addresses the metadata knows were written
    (counter 0 = plaintext) — the commit-beyond probe only inspects
    covered lines.
    """
    metadata = {"encryption": {
        "counters": {addr: 0 for addr in covered}, "macs": {}}}
    return RecoveredState(dict(lines), metadata, verify_macs=True)


def backup(txn_id, target, payload):
    return pack_record(_BACKUP_MAGIC, txn_id, target, len(payload),
                       payload=payload)


def redo(txn_id, target, payload):
    return pack_record(_REDO_MAGIC, txn_id, target, len(payload),
                       payload=payload)


class TestUndoTornTails:
    def test_truncated_record_at_region_end_stops_cleanly(self):
        # A backup header whose payload would run past the region:
        # the append was cut off by the crash.  Clean stop, committed
        # prefix intact.
        tail = BASE + CAPACITY - CACHE_LINE_BYTES
        lines = {
            BASE: backup(1, TARGET_A, OLD_A),
            BASE + 64: OLD_A,
            BASE + 128: pack_record(_COMMIT_MAGIC, 1, 0, 0),
            tail: backup(2, TARGET_B, OLD_B),  # no room for payload
            TARGET_A: NEW_A,
        }
        state = make_state(lines)
        undone = state.rollback_undo_log(BASE, CAPACITY)
        assert undone == []
        assert state.committed_txns == [1]
        assert state.read(TARGET_A, 64) == NEW_A  # committed, kept

    def test_torn_payload_stops_cleanly_without_garbage_restore(self):
        # txn 2's backup header landed but its payload did not: the
        # payload CRC fails, the scan stops, and TARGET_B is never
        # "restored" from the half-written payload line.
        lines = {
            BASE: backup(1, TARGET_A, OLD_A),
            BASE + 64: OLD_A,
            BASE + 128: pack_record(_COMMIT_MAGIC, 1, 0, 0),
            BASE + 192: backup(2, TARGET_B, OLD_B),
            BASE + 256: GARBAGE,  # payload never fully landed
            TARGET_A: NEW_A,
            TARGET_B: OLD_B,
        }
        state = make_state(lines)
        undone = state.rollback_undo_log(BASE, CAPACITY)
        assert undone == []
        assert state.committed_txns == [1]
        assert state.read(TARGET_B, 64) == OLD_B  # untouched

    def test_torn_header_stops_cleanly(self):
        lines = {
            BASE: backup(1, TARGET_A, OLD_A),
            BASE + 64: OLD_A,
            BASE + 128: GARBAGE,  # torn header line: tail ends here
            TARGET_A: NEW_A,
        }
        state = make_state(lines)
        # txn 1 has no commit record: rolled back from its backup.
        undone = state.rollback_undo_log(BASE, CAPACITY)
        assert undone == [1]
        assert state.read(TARGET_A, 64) == OLD_A

    def test_torn_payload_of_committed_txn_continues_to_commit(self):
        # Torn-prefix continuation: the header is intact, so the scan
        # skips the damaged payload and finds txn 2's commit record —
        # the old value is provably never needed (the commit fenced on
        # the in-place updates).  This shape used to hard-fail via the
        # commit-beyond probe; now it recovers, poisoning the payload.
        lines = {
            BASE: backup(2, TARGET_A, OLD_A),
            BASE + 64: GARBAGE,  # payload ADR-torn at power failure
            BASE + 128: pack_record(_COMMIT_MAGIC, 2, 0, 0),
            TARGET_A: NEW_A,
        }
        state = make_state(lines)
        undone = state.rollback_undo_log(BASE, CAPACITY)
        assert undone == []
        assert state.committed_txns == [2]
        assert state.read(TARGET_A, 64) == NEW_A  # committed, kept
        assert state.torn_records_skipped == 1
        assert BASE + 64 in state.torn_log_lines
        assert BASE + 64 in state._quarantine  # escalated to poison

    def test_torn_payload_does_not_hide_later_backups(self):
        # Records beyond a torn payload still roll back: the intact
        # header fixes the boundary, so txn 1's second backup is seen
        # and restored even though its first payload is damaged.
        lines = {
            BASE: backup(1, TARGET_A, OLD_A),
            BASE + 64: GARBAGE,  # torn payload: TARGET_A unrestorable
            BASE + 128: backup(1, TARGET_B, OLD_B),
            BASE + 192: OLD_B,
            TARGET_A: NEW_A,
            TARGET_B: NEW_B,
        }
        state = make_state(lines)
        undone = state.rollback_undo_log(BASE, CAPACITY)
        assert undone == [1]
        assert state.read(TARGET_B, 64) == OLD_B  # restored
        # The torn record is never applied — no garbage restore.
        assert state.read(TARGET_A, 64) == NEW_A
        assert state.torn_records_skipped == 1

    def test_commit_beyond_damage_refuses_rollback(self):
        # txn 1's commit record is durable past a damaged line.  The
        # commit fenced on every earlier record, so the damage means
        # ADR failed — refusing beats silently rolling back txn 1.
        commit_addr = BASE + 192
        lines = {
            BASE: backup(1, TARGET_A, OLD_A),
            BASE + 64: OLD_A,
            BASE + 128: GARBAGE,  # a log record ADR dropped/tore
            commit_addr: pack_record(_COMMIT_MAGIC, 1, 0, 0),
            TARGET_A: NEW_A,
        }
        state = make_state(lines, covered=(commit_addr,))
        with pytest.raises(RecoveryError, match="damaged log line"):
            state.rollback_undo_log(BASE, CAPACITY)

    def test_backup_beyond_damage_is_a_normal_torn_tail(self):
        # Same gap, but the record beyond it is a *backup* — exactly
        # what an interrupted multi-record append leaves behind (the
        # writeback of an earlier line can retire after a later one).
        # No refusal; the tail is discarded and txn 1 rolls back.
        later = BASE + 192
        lines = {
            BASE: backup(1, TARGET_A, OLD_A),
            BASE + 64: OLD_A,
            BASE + 128: GARBAGE,
            later: backup(1, TARGET_B, OLD_B),
            later + 64: OLD_B,
            TARGET_A: NEW_A,
            TARGET_B: NEW_B,
        }
        state = make_state(lines, covered=(later, later + 64))
        undone = state.rollback_undo_log(BASE, CAPACITY)
        assert undone == [1]
        assert state.read(TARGET_A, 64) == OLD_A
        # The discarded tail record must NOT have been applied.
        assert state.read(TARGET_B, 64) == NEW_B


class TestRedoTornTails:
    def test_truncated_tail_drops_uncommitted_update(self):
        tail = BASE + CAPACITY - CACHE_LINE_BYTES
        lines = {
            BASE: redo(1, TARGET_A, NEW_A),
            BASE + 64: NEW_A,
            BASE + 128: pack_record(_RCOMMIT_MAGIC, 1, 0, 0),
            tail: redo(2, TARGET_B, NEW_B),  # payload past the end
            TARGET_A: OLD_A,
            TARGET_B: OLD_B,
        }
        state = make_state(lines)
        replayed = state.replay_redo_log(BASE, CAPACITY)
        assert replayed == [1]
        assert state.read(TARGET_A, 64) == NEW_A  # replayed
        assert state.read(TARGET_B, 64) == OLD_B  # never committed

    def test_torn_payload_stops_cleanly(self):
        lines = {
            BASE: redo(1, TARGET_A, NEW_A),
            BASE + 64: NEW_A,
            BASE + 128: pack_record(_RCOMMIT_MAGIC, 1, 0, 0),
            BASE + 192: redo(2, TARGET_B, NEW_B),
            BASE + 256: GARBAGE,  # payload torn
            TARGET_A: OLD_A,
            TARGET_B: OLD_B,
        }
        state = make_state(lines)
        assert state.replay_redo_log(BASE, CAPACITY) == [1]
        assert state.read(TARGET_B, 64) == OLD_B

    def test_commit_beyond_damage_refuses_replay(self):
        # A durable redo commit past a damaged update record: without
        # the refusal, txn 1's updates would be silently dropped even
        # though it committed.
        commit_addr = BASE + 192
        lines = {
            BASE: redo(1, TARGET_A, NEW_A),
            BASE + 64: NEW_A,
            BASE + 128: GARBAGE,  # damaged update record
            commit_addr: pack_record(_RCOMMIT_MAGIC, 1, 0, 0),
            TARGET_A: OLD_A,
        }
        state = make_state(lines, covered=(commit_addr,))
        with pytest.raises(RecoveryError, match="damaged log line"):
            state.replay_redo_log(BASE, CAPACITY)

    def test_update_beyond_damage_is_a_normal_torn_tail(self):
        later = BASE + 192
        lines = {
            BASE: redo(1, TARGET_A, NEW_A),
            BASE + 64: NEW_A,
            BASE + 128: GARBAGE,
            later: redo(1, TARGET_B, NEW_B),
            later + 64: NEW_B,
            TARGET_A: OLD_A,
            TARGET_B: OLD_B,
        }
        state = make_state(lines, covered=(later, later + 64))
        assert state.replay_redo_log(BASE, CAPACITY) == []
        assert state.read(TARGET_A, 64) == OLD_A  # nothing committed
        assert state.read(TARGET_B, 64) == OLD_B


class TestScanReaderDamage:
    def test_damaged_log_line_recorded_as_torn(self):
        # A line that fails verification *while scanning* is recorded
        # in ``torn_log_lines`` rather than raising mid-scan.
        lines = {
            BASE: backup(1, TARGET_A, OLD_A),
            BASE + 64: OLD_A,
            TARGET_A: NEW_A,
        }
        state = make_state(lines)
        # Force an integrity failure on the line after the payload by
        # giving it a MAC-covered pad with no MAC at its counter.
        state._counters[BASE + 128] = 3
        state._pads_with_macs.add(BASE + 128)
        undone = state.rollback_undo_log(BASE, CAPACITY)
        assert undone == [1]
        assert BASE + 128 in state.torn_log_lines


def epoch_state(lines, flushed=(), covered=()):
    """A RecoveredState whose snapshot carries an async-epoch
    watermark: committed transactions outside ``flushed`` are demoted
    to uncommitted at scan time (docs/scheduling-modes.md)."""
    metadata = {
        "encryption": {
            "counters": {addr: 0 for addr in covered}, "macs": {}},
        "scheduling": {"mode": "async-epoch",
                       "flushed_txns": list(flushed)},
    }
    return RecoveredState(dict(lines), metadata, verify_macs=True)


class TestTornEpochRecovery:
    """async-epoch watermark demotion over synthetic images.

    A commit record is only *provisionally* durable until its epoch
    has flushed; recovery must land on the last closed-and-flushed
    epoch boundary, never between epochs.
    """

    def test_unflushed_committed_txn_is_demoted_and_rolled_back(self):
        # txn 1 flushed (inside the watermark), txn 2's epoch was torn
        # mid-flush: its commit record is durable but the watermark
        # excludes it, so it must roll back to the epoch boundary.
        lines = {
            BASE: backup(1, TARGET_A, OLD_A),
            BASE + 64: OLD_A,
            BASE + 128: pack_record(_COMMIT_MAGIC, 1, 0, 0),
            BASE + 192: backup(2, TARGET_B, OLD_B),
            BASE + 256: OLD_B,
            BASE + 320: pack_record(_COMMIT_MAGIC, 2, 0, 0),
            TARGET_A: NEW_A,
            TARGET_B: NEW_B,
        }
        state = epoch_state(lines, flushed=(1,))
        undone = state.rollback_undo_log(BASE, CAPACITY)
        assert undone == [2]
        assert state.demoted_txns == [2]
        assert state.committed_txns == [1]
        assert state.read(TARGET_A, 64) == NEW_A  # survives: flushed
        assert state.read(TARGET_B, 64) == OLD_B  # demoted: restored

    def test_fully_flushed_epochs_demote_nothing(self):
        lines = {
            BASE: backup(1, TARGET_A, OLD_A),
            BASE + 64: OLD_A,
            BASE + 128: pack_record(_COMMIT_MAGIC, 1, 0, 0),
            TARGET_A: NEW_A,
        }
        state = epoch_state(lines, flushed=(1,))
        assert state.rollback_undo_log(BASE, CAPACITY) == []
        assert state.demoted_txns == []
        assert state.committed_txns == [1]
        assert state.read(TARGET_A, 64) == NEW_A

    def test_torn_backup_of_demoted_txn_refuses(self):
        # The torn-backup shortcut ("committed means the old values
        # are never needed") must not apply once the commit itself is
        # demoted: the demoted txn *needs* that backup to reach the
        # epoch boundary.  Header CRC is intact but the payload line
        # does not match its recorded CRC.
        lines = {
            BASE: backup(2, TARGET_B, OLD_B),
            BASE + 64: GARBAGE.ljust(CACHE_LINE_BYTES, b"\x00"),
            BASE + 128: pack_record(_COMMIT_MAGIC, 2, 0, 0),
            TARGET_B: NEW_B,
        }
        state = epoch_state(lines, flushed=())
        with pytest.raises(RecoveryError,
                           match="demoted by the epoch watermark"):
            state.rollback_undo_log(BASE, CAPACITY)

    def test_commit_beyond_damage_demoted_txn_rolls_back(self):
        # Without a watermark this shape hard-fails (the commit fenced
        # on every earlier record, so the gap means ADR failed).  With
        # the commit's transaction *outside* the watermark, the epoch
        # was torn mid-flush and the damage is an ordinary torn tail:
        # the transaction is demoted regardless, so roll it back.
        commit_addr = BASE + 192
        lines = {
            BASE: backup(1, TARGET_A, OLD_A),
            BASE + 64: OLD_A,
            BASE + 128: GARBAGE,
            commit_addr: pack_record(_COMMIT_MAGIC, 1, 0, 0),
            TARGET_A: NEW_A,
        }
        state = epoch_state(lines, flushed=(), covered=(commit_addr,))
        undone = state.rollback_undo_log(BASE, CAPACITY)
        assert undone == [1]
        assert state.read(TARGET_A, 64) == OLD_A

    def test_commit_beyond_damage_inside_watermark_still_refuses(self):
        # The watermark says this epoch fully flushed, so the
        # persist-domain guarantee really did fail — same refusal as
        # the unscheduled case.
        commit_addr = BASE + 192
        lines = {
            BASE: backup(1, TARGET_A, OLD_A),
            BASE + 64: OLD_A,
            BASE + 128: GARBAGE,
            commit_addr: pack_record(_COMMIT_MAGIC, 1, 0, 0),
            TARGET_A: NEW_A,
        }
        state = epoch_state(lines, flushed=(1,),
                            covered=(commit_addr,))
        with pytest.raises(RecoveryError, match="damaged log line"):
            state.rollback_undo_log(BASE, CAPACITY)


class _StubPolicy:
    """Just enough of AsyncEpochPolicy for the merge algebra."""

    def __init__(self, flushed, known_extra=(), meta=None):
        self._flushed_txns = set(flushed)
        self._known_extra = set(known_extra)
        self._meta = meta if meta is not None else {
            "mode": "async-epoch", "epoch_writes": 32,
            "staleness_epochs": 2, "epochs_closed": 1,
            "epochs_flushed": 1,
            "flushed_txns": list(flushed)}

    def known_txns(self):
        return set(self._flushed_txns) | self._known_extra

    def crash_metadata(self):
        return self._meta


class _StubCoordinator:
    def __init__(self, unsafe=()):
        self._unsafe = set(unsafe)

    def unsafe_txns(self):
        return set(self._unsafe)


class TestShardedConsistentCut:
    """The cross-shard watermark merge (docs/sharding.md): recovery
    lands on the minimum consistent cut — the longest prefix of
    transactions watermarked on every shard that saw them and holding
    no unpersisted write anywhere."""

    def merge(self, policies, coordinator=None):
        from repro.bmo.policy import merge_crash_metadata
        return merge_crash_metadata(policies, coordinator)

    def test_single_policy_passes_metadata_through_verbatim(self):
        meta = {"mode": "async-epoch", "flushed_txns": [1, 2]}
        assert self.merge([_StubPolicy((1, 2), meta=meta)]) is meta

    def test_all_none_merges_to_none(self):
        class Strict:
            def crash_metadata(self):
                return None
        assert self.merge([Strict(), Strict()]) is None

    def test_one_shard_behind_truncates_the_cut(self):
        # Shard 0 flushed 1-3; shard 1's flusher is an epoch behind
        # and only flushed 1-2 while it *knows* of 3 (open epoch).
        # The cut stops before 3 even though shard 0 watermarked it.
        merged = self.merge([
            _StubPolicy((1, 2, 3)),
            _StubPolicy((1, 2), known_extra=(3,)),
        ], _StubCoordinator())
        assert merged["flushed_txns"] == [1, 2, 3]
        # ...unless 3 still has an unpersisted write somewhere:
        merged = self.merge([
            _StubPolicy((1, 2, 3)),
            _StubPolicy((1, 2), known_extra=(3,)),
        ], _StubCoordinator(unsafe=(3,)))
        assert merged["flushed_txns"] == [1, 2]

    def test_demotion_is_prefix_closed(self):
        # 2 is unsafe, so 3 and 4 demote with it: a later transaction
        # may depend on a demoted one's state.
        merged = self.merge([
            _StubPolicy((1, 3)),
            _StubPolicy((1, 2, 4), known_extra=()),
        ], _StubCoordinator(unsafe=(2,)))
        assert merged["flushed_txns"] == [1]

    def test_unflushed_known_txn_breaks_the_walk(self):
        # 2 closed into an epoch on shard 1 that never flushed: it is
        # known there but flushed nowhere -> cut is [1].
        merged = self.merge([
            _StubPolicy((1,)),
            _StubPolicy((), known_extra=(2,)),
        ], _StubCoordinator())
        assert merged["flushed_txns"] == [1]

    def test_legacy_keys_total_and_per_shard_detail(self):
        merged = self.merge([_StubPolicy((1,)), _StubPolicy((1,))],
                            _StubCoordinator())
        assert merged["mode"] == "async-epoch"
        assert merged["epochs_closed"] == 2
        assert merged["epochs_flushed"] == 2
        assert merged["shards"] == 2
        assert len(merged["per_shard"]) == 2


class TestShardedEpochCrash:
    """End-to-end: a sharded async-epoch crash recovers onto the
    merged watermark's cross-shard consistent cut."""

    def _crash_with_imbalanced_flushers(self, shards=2):
        from repro.common.config import SchedulingConfig, default_config
        from repro.core import NvmSystem
        from repro.workloads import WorkloadParams, make_workload

        # Small epochs so several close (and flush) mid-run — the
        # default 32-write epoch never fills at this scale.
        system = NvmSystem(default_config(
            mode="async-epoch", shards=shards,
            scheduling=SchedulingConfig(epoch_writes=4)))
        params = WorkloadParams(n_items=8, n_transactions=12)
        workload = make_workload("hash_table", system,
                                 system.cores[0], params,
                                 variant="baseline")
        # Make the imbalance deterministic: the last shard's device is
        # slow, so its epoch flusher provably falls behind the others.
        slow = system.devices[-1]
        original = slow.write

        def dawdling(addr, done, *args):
            system.sim._schedule(600, original, addr, done, *args)

        slow.write = dawdling
        system.sim.process(workload.run(), name="stream")
        # Step the clock until the per-shard watermarks diverge — the
        # exact "one shard's flusher is behind" moment.
        policies = [c.policy for c in system.controllers]
        horizon = 2_000_000
        step = 200
        now = 0
        while now < horizon:
            now += step
            system.sim.run(until=now)
            flushed = [set(p._flushed_txns) for p in policies]
            if any(f != flushed[0] for f in flushed[1:]) \
                    and any(flushed):
                break
        else:
            pytest.skip("flushers never diverged at this scale")
        return system, workload

    def test_recovery_lands_on_cross_shard_cut(self):
        from repro.consistency import recover

        system, workload = self._crash_with_imbalanced_flushers()
        snapshot = system.crash()
        scheduling = snapshot["metadata"]["scheduling"]
        assert scheduling["shards"] == 2
        per_shard = scheduling["per_shard"]
        assert len(per_shard) == 2
        cut = scheduling["flushed_txns"]
        # The cut is a gapless prefix...
        assert cut == list(range(1, len(cut) + 1))
        # ...and never reaches past any shard's own watermark for a
        # transaction that shard knows about.
        state = recover(snapshot,
                        [(workload.log.base, workload.log.capacity)],
                        verify_macs=True)
        committed = state.committed_txns
        assert committed == list(range(1, len(committed) + 1))
        assert set(committed) <= set(cut)
