"""The ``async-epoch`` bounded-staleness oracle (docs/scheduling-modes.md).

:func:`run_staleness_crash` crashes one ``async-epoch`` run mid-stream
and recovers it; :func:`check_bounded_staleness` judges a few such
crash points against the mode-independent reference trajectory.  A
reference oracle for the tests, so it lives beside them rather than in
``src/``.
"""

from typing import Sequence

from repro.common.config import SchedulingConfig
from repro.harness.crash_campaign import build, recover_image, \
    reference_trajectory
from repro.validate.oracles import OracleMismatch
from repro.workloads import WorkloadParams


def run_staleness_crash(workload: str, seed: int = 7, txns: int = 12,
                        items: int = 8, crash_fraction: float = 0.5,
                        staleness_epochs: int = 2,
                        epoch_writes: int = 32,
                        check: bool = False,
                        shards: int = 1) -> dict:
    """Crash one ``async-epoch`` run mid-stream and recover it.

    Runs the serialized reference trajectory first (per-commit
    digests are mode-independent), then a fresh ``async-epoch``
    system crashed at ``crash_fraction`` of the reference horizon.
    Returns the evidence record the bounded-staleness oracle judges:
    recovered commit ids, demoted ids, the recovered digest vs. the
    reference digest at that commit count, and the policy watermark
    from the crash snapshot.
    """
    params = WorkloadParams(n_items=items, n_transactions=txns)
    digests, horizon = reference_trajectory(workload, "serialized",
                                            params, seed)
    system, [instance] = build(
        workload, "async-epoch", params, seed, check_invariants=check,
        shards=shards,
        scheduling=SchedulingConfig(staleness_epochs=staleness_epochs,
                                    epoch_writes=epoch_writes))
    system.sim.process(instance.run(), name="stream")
    system.sim.run(until=horizon * crash_fraction)
    if system.checker is not None:
        system.checker.check_all(full=True)
    snapshot = system.crash()
    scheduling = snapshot["metadata"].get("scheduling", {})
    state = recover_image(snapshot, [instance])
    k = len(state.committed_txns)
    return {
        "workload": workload,
        "crash_fraction": crash_fraction,
        "committed": list(state.committed_txns),
        "demoted": list(state.demoted_txns),
        "rolled_back": list(state.rolled_back),
        "digest": instance.logical_digest(state.read),
        "reference_digest": digests.get(k),
        "scheduling": scheduling,
    }


def check_bounded_staleness(workload: str, seed: int = 7,
                            txns: int = 12, items: int = 8,
                            crash_fractions: Sequence[float] =
                            (0.35, 0.6, 0.85),
                            staleness_epochs: int = 2,
                            epoch_writes: int = 32,
                            check: bool = False,
                            shards: int = 1) -> int:
    """The ``async-epoch`` consistency contract, as an oracle.

    For each crash point: (1) the recovered commit set must be the
    prefix ``1..k`` — recovery lands exactly on a closed-epoch
    boundary (on the sharded machine, the cross-shard consistent
    cut), never mid-epoch; (2) every surviving commit must be inside
    the durable watermark; (3) the recovered digest must equal the
    mode-independent reference digest at ``k``; (4) the snapshot
    watermark must witness the staleness bound — at shards=1 the
    exact ``epochs_closed - epochs_flushed <= staleness_epochs``, on
    the sharded machine per shard with one epoch of slack for
    coordinator demand-closes (docs/sharding.md).  Raises
    :class:`OracleMismatch` on any breach; returns the number of
    crash points checked.
    """
    for fraction in crash_fractions:
        record = run_staleness_crash(
            workload, seed=seed, txns=txns, items=items,
            crash_fraction=fraction,
            staleness_epochs=staleness_epochs,
            epoch_writes=epoch_writes, check=check, shards=shards)
        committed = record["committed"]
        k = len(committed)
        tag = f"{workload} @ {fraction}" if shards == 1 \
            else f"{workload} @ {fraction} (shards={shards})"
        if committed != list(range(1, k + 1)):
            raise OracleMismatch(
                f"{tag}: recovered commits {committed} are not the "
                f"prefix 1..{k}", diff=[("committed", committed)])
        flushed = set(record["scheduling"].get("flushed_txns", ()))
        outside = [t for t in committed if t not in flushed]
        if outside:
            raise OracleMismatch(
                f"{tag}: commits {outside} survived recovery outside "
                f"the durable watermark {sorted(flushed)}",
                diff=[("outside", outside)])
        if record["digest"] != record["reference_digest"]:
            raise OracleMismatch(
                f"{tag}: digest at k={k} diverges from the reference "
                f"trajectory",
                diff=[("reference", record["reference_digest"]),
                      ("got", record["digest"])])
        per_shard = record["scheduling"].get("per_shard")
        if per_shard:
            for shard_id, meta in enumerate(per_shard):
                debt = meta["epochs_closed"] - meta["epochs_flushed"]
                if debt > staleness_epochs + 1:
                    raise OracleMismatch(
                        f"{tag}: shard {shard_id} holds {debt} "
                        f"unflushed epochs, exceeding the bound "
                        f"{staleness_epochs} + 1 demand-close",
                        diff=[("scheduling",
                               record["scheduling"])])
        else:
            closed = record["scheduling"].get("epochs_closed", 0)
            done = record["scheduling"].get("epochs_flushed", 0)
            if closed - done > staleness_epochs:
                raise OracleMismatch(
                    f"{tag}: {closed - done} unflushed epochs exceeds "
                    f"the staleness bound {staleness_epochs}",
                    diff=[("scheduling", record["scheduling"])])
    return len(tuple(crash_fractions))
