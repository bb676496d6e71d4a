"""A finished system is freed by reference counting alone.

Back-references inside the machine (controller, core and policy to
their owner, the cores' transaction-id provider, dedup's line-copy
callback, the sharded address filters) are weak, so an
:class:`NvmSystem` holds no reference cycle.  Without this, every
finished system waits for CPython's cyclic collector, which runs
rarely once the write path allocates little, and dead systems pile up
in long campaigns.
"""

import gc
import weakref

import pytest

from repro.common.config import default_config
from repro.consistency.recovery import recover
from repro.core import NvmSystem
from repro.workloads import WorkloadParams, make_workload

ALL_MODES = ("serialized", "parallel", "janus", "ideal",
             "coalesced", "async-epoch")


def _run_crash_recover(mode: str, shards: int) -> weakref.ref:
    system = NvmSystem(default_config(mode=mode, shards=shards,
                                      cores=shards))
    workloads = [
        make_workload("hash_table", system, core,
                      WorkloadParams(n_transactions=3, n_items=8))
        for core in system.cores]
    system.run_programs([w.run() for w in workloads])
    snapshot = system.crash()
    regions = [(w.log.base, w.log.capacity) for w in workloads]
    state = recover(snapshot, regions, verify_macs=True)
    for workload in workloads:
        workload.logical_digest(state.read)
    return weakref.ref(system)


@pytest.mark.parametrize("shards", (1, 2))
@pytest.mark.parametrize("mode", ALL_MODES)
def test_finished_system_is_freed_without_the_cycle_collector(mode,
                                                              shards):
    enabled = gc.isenabled()
    gc.disable()
    try:
        ref = _run_crash_recover(mode, shards)
        assert ref() is None, "a reference cycle keeps the system alive"
    finally:
        if enabled:
            gc.enable()
