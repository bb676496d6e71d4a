"""Staleness checks per writeback.

A write commits only a fresh context: one whose completed sub-ops
still agree with the shared BMO state (``BmoPipeline.stale_subops``
is empty; every BMO's check fans out from it).  The check is needed
where other callbacks may have committed since the context's last
sub-op ran: after a dispatch.  Where the committing callback itself
just ran or checked the context — the end of the serialized block, a
refresh pass of an IRB-matched janus write — a second check cannot
find anything, so it is not made.

This test counts the checks on two fixed cells.  The count is
deterministic, so the ceiling is exact; the cells' writebacks and
dispatched events are pinned beside it, so the count cannot fall by
simulating something else.
"""

import pytest

from repro.bmo.pipeline import BmoPipeline
from repro.harness.crash_campaign import build
from repro.workloads import WorkloadParams

#: (mode, staleness checks, writebacks, dispatched events) on tpcc /
#: 1 core (12 txns, 64 items).  janus: 145 of the 172 writes match an
#: IRB entry and check once per refresh pass (155 passes); the 27
#: unmatched ones check once before their commit.  Before, each
#: matched write also checked while deciding "fully pre-executed" and
#: again before its commit: 472 checks.  serialized commits in the
#: callback that ran its block, so it never checks (172 before).
CELLS = [("janus", 182, 172, 14_991), ("serialized", 0, 172, 2_226)]


@pytest.mark.parametrize("mode,checks,writebacks,events", CELLS,
                         ids=[cell[0] for cell in CELLS])
def test_staleness_checks_per_writeback(monkeypatch, mode, checks,
                                        writebacks, events):
    calls = 0
    original = BmoPipeline.stale_subops

    def counted(self, ctx):
        nonlocal calls
        calls += 1
        return original(self, ctx)

    monkeypatch.setattr(BmoPipeline, "stale_subops", counted)
    system, workloads = build(
        "tpcc", mode, WorkloadParams(n_items=64, n_transactions=12))
    system.run_programs([w.run() for w in workloads])
    assert system.metrics.as_flat_dict()["mc.writebacks"] == writebacks
    assert system.sim.events == events
    assert calls <= checks, \
        f"{calls} checks for {writebacks} writebacks " \
        f"({calls / writebacks:.3f} per writeback)"
