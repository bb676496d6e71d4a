"""Call-count floors of the write path.

A janus write splits into 17 sub-operations, each a few simulator
callbacks (unit grant, unit release, finish, hand-off), so the Python
calls made per executed sub-op set the host cost of a janus run; a
serialized write runs its BMOs as one block, and what it costs is the
calls around that block, from the workload's store to the device
write.  These tests count calls with ``sys.setprofile`` on fixed
cells.  A count is deterministic: it moves only when the code does,
so each floor is exact where a timing test would need a margin.  Each
cell's dispatched events are pinned beside it, so a cut cannot come
from dispatching less.

Every call of a counted function is one ``call`` event, generator
expressions included (3.10, 3.11 and 3.12 all run them as frames,
one call per resume).  List, dict and set comprehensions are not
counted: 3.10 and 3.11 call them, 3.12 inlines them.
"""

import gc
import os
import sys

import repro
import repro.bmo
import repro.obs.metrics
import repro.sim
from repro.bmo.dedup import DedupTable
from repro.harness.crash_campaign import build
from repro.workloads import WorkloadParams

#: Calls into the sub-op layers per executed sub-op on tpcc / janus
#: (3,115 sub-ops): 18.07 before the pipelined-unit grant, the direct
#: hand-off to a sole dependent and the one finish callback, 16.48
#: after them, and 11.06 once each sub-op hop queues its own
#: successors and the write path bumps its counters in place.  (The
#: floors before, 20.44 and then 18.49, did not count generator
#: expressions.)
MAX_CALLS_PER_SUBOP = 11.06
#: Dispatched events of the janus cell; calls may fall, dispatches not.
EVENTS = 14_991
#: Calls into ``repro`` per executed sub-op on hash_table / coalesced
#: at 2 cores and 2 shards (12 txns per core, 64 items; 1,786
#: sub-ops), where the sharded timing hook runs for every timed
#: sub-op: 24.35 before the hops queued their own successors and the
#: hook returned early for sub-ops no ledger discounts, 17.23 after.
MAX_CALLS_PER_COALESCED_SUBOP = 17.23
#: Dispatched events of the coalesced cell.
COALESCED_EVENTS = 8_535
#: Calls into ``repro`` per writeback on tpcc / serialized (172
#: writebacks): 189.69 before the one-loop ``execute_all`` and the
#: per-line helpers in C, 138.83 after them, and 127.39 with one
#: commit-side dedup lookup and the write path's counters bumped in
#: place.
MAX_CALLS_PER_WRITEBACK = 127.39
#: Dispatched events of the serialized cell.
SERIALIZED_EVENTS = 2_226
#: Calls into ``repro`` while building btree / serialized at 64 items
#: (seeding included): 22,046 before the one-loop ``execute_all`` and
#: the per-line helpers in C, 14,729 after them, 14,474 with one
#: commit-side dedup lookup.
MAX_BUILD_CALLS = 14_474

INLINED = frozenset({"<listcomp>", "<dictcomp>", "<setcomp>"})
REPRO_DIR = os.path.dirname(repro.__file__) + os.sep
LAYER_DIRS = tuple(os.path.dirname(module.__file__) + os.sep
                   for module in (repro.sim, repro.bmo))
METRICS_FILE = repro.obs.metrics.__file__


def in_subop_layers(filename):
    return filename.startswith(LAYER_DIRS) or filename == METRICS_FILE


def in_repro(filename):
    return filename.startswith(REPRO_DIR)


def counted(counts, where):
    def profile(frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        if code.co_name not in INLINED and where(code.co_filename):
            counts[0] += 1
    return profile


def count_calls(fn, where):
    """Run ``fn()``; return (its result, calls it made into ``where``).

    Earlier tests' garbage is collected first and the collector is off
    while counting, so no finalizer of another test's objects runs
    inside the counted region."""
    counts = [0]
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    sys.setprofile(counted(counts, where))
    try:
        result = fn()
    finally:
        sys.setprofile(None)
        if enabled:
            gc.enable()
    return result, counts[0]


def run_cell(mode, where, workload="tpcc", **shape):
    """Run ``workload`` / ``mode`` (12 txns per core, 64 items; one
    core unless ``shape`` says otherwise); return (the system, calls
    into ``where`` during the run)."""
    system, workloads = build(
        workload, mode, WorkloadParams(n_items=64, n_transactions=12),
        **shape)
    programs = [w.run() for w in workloads]
    _, calls = count_calls(lambda: system.run_programs(programs), where)
    return system, calls


def test_calls_per_subop_stay_at_the_floor():
    system, calls = run_cell("janus", in_subop_layers)
    subops = system.metrics.scope("bmo").counters["subops_executed"].value
    assert system.sim.events == EVENTS
    assert subops == 3_115
    assert calls / subops <= MAX_CALLS_PER_SUBOP, \
        f"{calls} calls for {subops} sub-ops ({calls / subops:.3f})"


def test_calls_per_coalesced_subop_stay_at_the_floor():
    system, calls = run_cell("coalesced", in_repro, "hash_table",
                             cores=2, shards=2)
    subops = system.metrics.scope("bmo").counters["subops_executed"].value
    assert system.sim.events == COALESCED_EVENTS
    assert subops == 1_786
    assert calls / subops <= MAX_CALLS_PER_COALESCED_SUBOP, \
        f"{calls} calls for {subops} sub-ops ({calls / subops:.3f})"


def test_serialized_writeback_looks_the_dedup_table_up_twice(
        monkeypatch):
    """Once for the duplicate verdict (D2) and once at commit, where
    the stale-verdict check and the dedup commit share the lookup."""
    lookups = [0]
    lookup = DedupTable.lookup

    def counting(table, *args):
        lookups[0] += 1
        return lookup(table, *args)

    system, workloads = build(
        "tpcc", "serialized", WorkloadParams(n_items=64, n_transactions=12))
    programs = [w.run() for w in workloads]
    monkeypatch.setattr(DedupTable, "lookup", counting)
    system.run_programs(programs)
    writebacks = system.metrics.scope("mc").counters["writebacks"].value
    assert writebacks == 172
    assert lookups[0] == 2 * writebacks


def test_calls_per_serialized_writeback_stay_at_the_floor():
    system, calls = run_cell("serialized", in_repro)
    writebacks = system.metrics.scope("mc").counters["writebacks"].value
    assert system.sim.events == SERIALIZED_EVENTS
    assert writebacks == 172
    assert calls / writebacks <= MAX_CALLS_PER_WRITEBACK, \
        f"{calls} calls for {writebacks} writebacks " \
        f"({calls / writebacks:.2f})"


def test_calls_to_build_a_seeded_system_stay_at_the_floor():
    _, calls = count_calls(
        lambda: build("btree", "serialized", WorkloadParams(n_items=64)),
        in_repro)
    assert calls <= MAX_BUILD_CALLS
