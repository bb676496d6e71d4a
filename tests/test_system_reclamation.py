"""A finished system is freed by reference counting alone.

Back-references inside the machine (controller, core and policy to
their owner, the cores' transaction-id provider, dedup's line-copy
callback, the sharded address filters, the executor's timing hook to
the coalesced policy) are weak, so an
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


def _run_crash_recover(mode: str, shards: int) -> dict:
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
    # The chip-global pipeline (dedup table, Merkle tree, counters)
    # and its executor must die with the system, in every mode.
    return {name: weakref.ref(obj) for name, obj in (
        ("system", system), ("pipeline", system.pipeline),
        ("executor", system.executor))}


@pytest.mark.parametrize("shards", (1, 2))
@pytest.mark.parametrize("mode", ALL_MODES)
def test_finished_system_is_freed_without_the_cycle_collector(mode,
                                                              shards):
    enabled = gc.isenabled()
    gc.disable()
    try:
        refs = _run_crash_recover(mode, shards)
        alive = sorted(name for name, ref in refs.items()
                       if ref() is not None)
        assert not alive, f"a reference cycle keeps {alive} alive"
    finally:
        if enabled:
            gc.enable()


def test_run_ending_on_a_data_drain_is_freed():
    """The cells above all end on a metadata drain, whose entry holds
    no callback.  This one (the relaxed-sharded benchmark's
    async-epoch cell, at its size and seed) ends on a data entry,
    whose ``on_drain`` is bound to its controller: the simulator must
    not keep the last dispatched callback, or the controller, and
    with it the pipeline and executor, outlive the system until the
    cycle collector runs."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        system = NvmSystem(default_config(mode="async-epoch", shards=2,
                                          cores=2, seed=1))
        workloads = [
            make_workload("queue", system, core,
                          WorkloadParams(n_transactions=100, n_items=256))
            for core in system.cores]
        system.run_programs([w.run() for w in workloads])
        queue = system.write_queues[-1]
        assert queue.stats.counters["drained"].value \
            == queue.stats.counters["accepted"].value
        refs = {name: weakref.ref(obj) for name, obj in (
            ("system", system), ("pipeline", system.pipeline),
            ("executor", system.executor))}
        del system, workloads, queue
        alive = sorted(name for name, ref in refs.items()
                       if ref() is not None)
        assert not alive, f"a reference cycle keeps {alive} alive"
    finally:
        if enabled:
            gc.enable()
