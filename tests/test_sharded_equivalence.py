"""Sharded-topology differential campaign (docs/sharding.md).

The contract under test: **sharding is a timing-only relaxation**.
For every workload kernel, every scheduling mode, and every shard
count, the recovered logical structure is byte-identical to the
unsharded serialized reference — the shard router, per-shard write
queues/IRBs/policies, and the cross-shard sfence barrier never change
what crashes can observe, only when events happen.

Every run executes with the invariant checker attached, so the sweep
also proves per-shard irb-bijection / wq-epoch-order / merkle-root
and the cross-shard sfence-barrier invariant hold throughout.
"""

import pytest

from repro.common.config import default_config
from repro.core import NvmSystem
from repro.validate.oracles import (
    check_workload_equivalence,
    run_workload_digest,
)
from repro.workloads import WORKLOADS
from tests.staleness_oracle import check_bounded_staleness

SHARDS = (1, 2, 4)
ALL_MODES = ("serialized", "parallel", "janus", "ideal",
             "coalesced", "async-epoch")


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_all_modes_all_shard_counts_recover_identically(workload):
    """Every mode x shard count recovers to the unsharded serialized
    reference image — the full 7-workload differential campaign."""
    check_workload_equivalence(workload, txns=5, items=8,
                               modes=ALL_MODES, shards=SHARDS,
                               check=True)


@pytest.mark.parametrize("shards", (2, 4))
def test_sharded_digest_matches_unsharded(shards):
    """Direct digest equality, no oracle plumbing in between."""
    reference = run_workload_digest("serialized", "hash_table",
                                    txns=5, items=8)
    candidate = run_workload_digest("serialized", "hash_table",
                                    txns=5, items=8, shards=shards)
    assert candidate == reference


@pytest.mark.parametrize("shards", SHARDS)
def test_async_epoch_bounded_staleness_sharded(shards):
    """Crashed async-epoch runs land on the cross-shard consistent
    cut and respect the per-shard staleness bound."""
    points = check_bounded_staleness("hash_table", txns=8, items=8,
                                     shards=shards)
    assert points >= 3


@pytest.mark.parametrize("shards", (2, 4))
def test_sharded_topology_construction(shards):
    """The sharded machine builds one controller / queue / device /
    engine per shard, with shard 0 aliased to the legacy names."""
    system = NvmSystem(default_config(shards=shards))
    assert len(system.controllers) == shards
    assert len(system.write_queues) == shards
    assert len(system.devices) == shards
    assert len(system.janus_engines) == shards
    assert system.controller is system.controllers[0]
    assert system.write_queue is system.write_queues[0]
    assert system.device is system.devices[0]
    assert system.janus is system.janus_engines[0]
    # Stats scopes are per shard; shard 0 keeps the legacy names only
    # on the unsharded machine.
    assert system.scope_name("mc", 0) == "mc0"
    assert system.scope_name("wq", 1) == "wq1"


def test_unsharded_topology_keeps_legacy_scope_names():
    system = NvmSystem(default_config())
    assert len(system.controllers) == 1
    assert system.scope_name("mc", 0) == "mc"
    assert system.scope_name("irb", 0) == "irb"


@pytest.mark.parametrize("shards", (2, 4))
def test_router_consistent_with_controllers(shards):
    system = NvmSystem(default_config(shards=shards))
    for addr in range(0, 64 * 64, 64):
        sid = system.router.shard_of(addr)
        assert system.controller_for(addr) is system.controllers[sid]
        assert system.write_queue_for(addr) is \
            system.write_queues[sid]
