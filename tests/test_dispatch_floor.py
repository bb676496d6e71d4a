"""Call-count floor of the sub-op dispatch path.

A janus write splits into 17 sub-operations, each a few simulator
callbacks (grant, unit release, finish, hand-off), so the Python
calls made per executed sub-op set the host cost of a janus run.
This test counts them on one fixed janus cell with ``sys.setprofile``:
every call into a function of ``repro.sim``, ``repro.bmo`` or
``repro.obs.metrics``, comprehensions excluded (Python 3.12 inlines
list comprehensions, 3.10 and 3.11 call them), divided by the cell's
executed sub-ops.  The count is deterministic: it moves only when the
code does, so the floor is exact where a timing test would need a
margin.  The cell's dispatched events are pinned beside it, so a cut
cannot come from dispatching less.
"""

import os
import sys

import repro.bmo
import repro.obs.metrics
import repro.sim
from repro.harness.crash_campaign import build
from repro.workloads import WorkloadParams

#: Calls per executed sub-op on the cell below: 20.44 before the
#: one-lookup sub-op steps, 18.49 after (3,115 sub-ops).
MAX_CALLS_PER_SUBOP = 18.49
#: Dispatched events of the cell; calls may fall, dispatches not.
EVENTS = 14_991

COMPREHENSIONS = frozenset(
    {"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"})
LAYER_DIRS = tuple(os.path.dirname(module.__file__) + os.sep
                   for module in (repro.sim, repro.bmo))
METRICS_FILE = repro.obs.metrics.__file__


def count_calls():
    """Run tpcc / janus / 1 core (12 txns, 64 items); return (calls
    into the counted layers, executed sub-ops, dispatched events)."""
    system, workloads = build(
        "tpcc", "janus", WorkloadParams(n_items=64, n_transactions=12))
    programs = [w.run() for w in workloads]
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event != "call":
            return
        code = frame.f_code
        if code.co_name in COMPREHENSIONS:
            return
        filename = code.co_filename
        if filename.startswith(LAYER_DIRS) or filename == METRICS_FILE:
            calls += 1

    sys.setprofile(profile)
    try:
        system.run_programs(programs)
    finally:
        sys.setprofile(None)
    subops = system.metrics.scope("bmo").counters["subops_executed"].value
    return calls, subops, system.sim.events


def test_calls_per_subop_stay_at_the_floor():
    calls, subops, events = count_calls()
    assert events == EVENTS
    assert subops == 3_115
    assert calls / subops <= MAX_CALLS_PER_SUBOP, \
        f"{calls} calls for {subops} sub-ops ({calls / subops:.3f})"
