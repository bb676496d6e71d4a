"""The cross-layer invariant checker (``repro run --check``).

Three angles: clean systems pass with checks actually running; each
invariant fires on a targeted state tamper; and the planted
IRB-merge mutation — the bug class the checker exists for — is caught
on an ordinary API program.
"""

import pytest

from repro.common.config import default_config
from repro.consistency.undo_log import pack_record, _BACKUP_MAGIC, \
    _COMMIT_MAGIC
from repro.core import NvmSystem
from repro.harness.runner import run_point
from repro.janus.irb import IntermediateResultBuffer, IrbEntry
from repro.validate import InvariantChecker, InvariantViolation
from repro.validate.oracles import LINE, PALETTE, run_write_program

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


def buggy_merge(self, existing, incoming):
    """The planted mutation: an address-less entry gains its address
    but is never re-filed from ``_data_only`` into the address
    indexes (``_by_line`` / ``_by_thread_line``) — exactly the desync
    the bijection check makes observable."""
    existing.ctx.merge_from(incoming.ctx)
    if existing.line_addr is None and incoming.line_addr is not None:
        existing.line_addr = incoming.line_addr
    if existing.data is None:
        existing.data = incoming.data
    existing.complete = False


@pytest.fixture
def planted_merge_bug(monkeypatch):
    monkeypatch.setattr(IntermediateResultBuffer, "_merge", buggy_merge)


def _checked_system(mode="janus"):
    system = NvmSystem(default_config(mode=mode, seed=13,
                                      check_invariants=True))
    assert system.checker is not None
    return system


# ---------------------------------------------------------------------------
# clean systems pass, and the checks actually run
# ---------------------------------------------------------------------------
def test_clean_write_program_passes_under_checker():
    ops = [("hinted", 0, 1), ("split", 1, 2), ("stale", 2, 3, 4),
           ("store", 3, 5), ("clear",), ("data", 4, 0)]
    run_write_program("janus", ops, n_lines=8, check=True, threads=2)


@pytest.mark.parametrize("mode", ["serialized", "janus"])
def test_checked_workload_run_counts_checks(mode):
    result = run_point("queue", mode=mode, check_invariants=True)
    assert result.stats["validate.checks"] > 0
    assert result.stats["validate.violations"] == 0


@pytest.mark.parametrize("shards", [1, 2])
def test_flusher_commit_violation_reaches_the_caller(monkeypatch, shards):
    """Under async-epoch the commits run in the epoch flusher, which no
    program waits on: a violation found at one of them stops the run
    and reaches the caller as that violation, not as stalled
    programs."""
    check_logs, checks = InvariantChecker.check_logs, []

    def planted(checker):
        # Seeding commits at 0 ns; the flusher's run later.
        if checker.system.sim.now:
            checks.append(checker.system.sim.now)
            if len(checks) == 5:
                raise InvariantViolation("planted", "test",
                                         "fifth commit check")
        check_logs(checker)

    monkeypatch.setattr(InvariantChecker, "check_logs", planted)
    with pytest.raises(InvariantViolation, match="fifth commit check"):
        run_point("queue", mode="async-epoch", shards=shards,
                  check_invariants=True)
    assert len(checks) == 5


def test_checker_hooks_every_pipeline_commit():
    system = _checked_system()
    before = system.checker._commits_seen
    core = system.cores[0]
    base = system.heap.alloc_line(4 * LINE, label="arena")

    def program():
        for slot in range(4):
            yield from core.store(base + slot * LINE, PALETTE[slot])
            yield from core.persist(base + slot * LINE, LINE)

    system.run_programs([program()])
    assert system.checker._commits_seen >= before + 4


# ---------------------------------------------------------------------------
# each invariant fires on a targeted tamper
# ---------------------------------------------------------------------------
def _run_small_program(system, n_lines=4):
    core = system.cores[0]
    base = system.heap.alloc_line(n_lines * LINE, label="arena")

    def program():
        for slot in range(n_lines):
            obj = core.api.pre_init()
            yield from core.api.pre_both(obj, base + slot * LINE,
                                         PALETTE[slot])
            yield from core.store(base + slot * LINE, PALETTE[slot])
            yield from core.persist(base + slot * LINE, LINE)

    system.run_programs([program()])
    return base


def test_irb_bijection_catches_index_desync():
    system = _checked_system()
    _run_small_program(system)
    irb = system.janus.irb
    ghost = IrbEntry(pre_id=99, thread_id=0, transaction_id=0,
                     line_addr=0, data=PALETTE[0], data_seq=0)
    irb._by_line.setdefault(0, {})[ghost] = None  # not in _order
    with pytest.raises(InvariantViolation) as excinfo:
        system.checker.check_all()
    assert excinfo.value.invariant == "irb-bijection"
    assert excinfo.value.layer == "janus"


def test_wq_accounting_identity_checked():
    system = _checked_system()
    _run_small_program(system)
    # The books no longer balance.
    system.write_queue.stats.counter("drained").add()
    with pytest.raises(InvariantViolation) as excinfo:
        system.checker.check_all()
    assert excinfo.value.invariant == "wq-epoch-order"


def test_merkle_root_rebuild_catches_leaf_tamper():
    system = _checked_system()
    _run_small_program(system)
    integrity = system.pipeline.by_name["integrity"]
    assert integrity.committed_leaves, "program committed no leaves"
    index = next(iter(integrity.committed_leaves))
    original = integrity.committed_leaves[index]
    integrity.committed_leaves[index] = bytes(
        b ^ 0xFF for b in original)
    with pytest.raises(InvariantViolation) as excinfo:
        system.checker.check_all(full=True)
    assert excinfo.value.invariant == "merkle-root"
    assert excinfo.value.snapshot["live_root"] != \
        excinfo.value.snapshot["rebuilt_root"]


def test_counter_monotonicity_watermarked_across_checks():
    system = _checked_system()
    _run_small_program(system)
    engine = system.pipeline.by_name["encryption"].engine
    addr = next(iter(engine._counters))
    engine._counters[addr] -= 1  # pad reuse
    with pytest.raises(InvariantViolation) as excinfo:
        system.checker.check_all()
    assert excinfo.value.invariant == "counter-monotone"
    assert excinfo.value.snapshot["current"] < \
        excinfo.value.snapshot["previous"]


def test_dedup_refcount_alias_agreement_checked():
    system = _checked_system()
    _run_small_program(system)
    dedup = system.pipeline.by_name["dedup"]
    assert dedup.table.entries, "program deduplicated nothing"
    entry = next(iter(dedup.table.entries.values()))
    entry.refcount += 1  # refcount no longer equals remap aliases
    with pytest.raises(InvariantViolation) as excinfo:
        system.checker.check_all()
    assert excinfo.value.invariant == "dedup-refcount"


def test_log_committed_prefix_rule_checked():
    system = _checked_system()
    core = system.cores[0]
    from repro.consistency.undo_log import UndoLog
    log = UndoLog(core, capacity_bytes=4096)
    payload = PALETTE[0]
    records = [
        pack_record(_BACKUP_MAGIC, 1, 64, len(payload),
                    payload=payload),
        payload,
        pack_record(_COMMIT_MAGIC, 1, 0, 0),
        # txn 1 appends another backup AFTER its own commit record.
        pack_record(_BACKUP_MAGIC, 1, 128, len(payload),
                    payload=payload),
        payload,
    ]
    addr = log.base
    for record in records:
        system.volatile.write(addr, record)
        addr += len(record)
    with pytest.raises(InvariantViolation) as excinfo:
        system.checker.check_all()
    assert excinfo.value.invariant == "log-prefix"
    assert excinfo.value.snapshot["txn_id"] == 1


# ---------------------------------------------------------------------------
# violation structure
# ---------------------------------------------------------------------------
def test_violation_is_structured_and_jsonable():
    import json
    violation = InvariantViolation(
        "irb-bijection", "janus", "example",
        {"entry": {"pre_id": 1}})
    assert "[janus:irb-bijection]" in str(violation)
    round_trip = json.loads(json.dumps(violation.as_dict()))
    assert round_trip["invariant"] == "irb-bijection"
    assert round_trip["snapshot"]["entry"]["pre_id"] == 1


def test_violations_are_counted_in_metrics():
    system = _checked_system()
    _run_small_program(system)
    system.write_queue.stats.counter("drained").add()
    with pytest.raises(InvariantViolation):
        system.checker.check_all()
    flat = system.metrics.as_flat_dict()
    assert flat["validate.violations"] == 1


# ---------------------------------------------------------------------------
# the planted mutation (the acceptance-criterion bug)
# ---------------------------------------------------------------------------
def test_checker_catches_planted_merge_bug(planted_merge_bug):
    """A data-only entry gaining its address without re-filing is
    invisible to every unit test but caught by the bijection check on
    an ordinary split-request program."""
    with pytest.raises(InvariantViolation) as excinfo:
        run_write_program("janus", [("split", 0, 1)], n_lines=4,
                          check=True, threads=2)
    assert excinfo.value.invariant == "irb-bijection"


def test_clean_split_program_passes_without_mutation():
    run_write_program("janus", [("split", 0, 1)], n_lines=4,
                      check=True, threads=2)
