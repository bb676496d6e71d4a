"""The recovery-idempotence oracle over every workload and mode.

PR 8's tentpole contract: ``recover(crash(recover(s))) == recover(s)``
at *every* instrumented crash point of the recovery path —
``check_recovery_idempotent`` arms a seeded ``recovery_crash`` at each
step 1..N, recovers again from the mutated snapshot + quarantine, and
compares the observable outcome (committed/rolled-back verdicts,
overlay hash, quarantine set) against an uninterrupted reference.

These tests exercise the oracle on a real mid-run power failure for
all seven workloads in both serialized and janus modes, and once more
with live media damage so the heal/poison steps are in the crash set.
"""

import pytest

from repro.harness.crash_campaign import build
from repro.validate.oracles import check_recovery_idempotent
from repro.workloads import WORKLOADS, WorkloadParams

SEED = 7
PARAMS = WorkloadParams(n_items=8, value_size=64, n_transactions=12)


def crash_snapshot(name, mode, frac=0.6, bmos=None):
    """Run a workload partway, pull the plug, return the snapshot."""
    calib, [twin] = build(name, mode, PARAMS, SEED, bmos=bmos)
    horizon = calib.run_programs([twin.run()])
    system, [workload] = build(name, mode, PARAMS, SEED, bmos=bmos)
    system.sim.process(workload.run(), name="stream")
    system.sim.run(until=max(1.0, frac * horizon))
    return system.crash(), [(workload.log.base, workload.log.capacity)]


class TestEveryWorkloadEveryMode:
    @pytest.mark.parametrize("name", WORKLOADS)
    @pytest.mark.parametrize("mode", ["serialized", "janus"])
    def test_idempotent_at_every_crash_point(self, name, mode):
        snapshot, regions = crash_snapshot(name, mode)
        points = check_recovery_idempotent(snapshot, regions,
                                           verify_macs=True)
        assert points > 0


class TestWithMediaDamage:
    def test_idempotent_across_heal_and_poison_steps(self):
        # ECC in the pipeline + a stored-line flip: the reference
        # recovery heals it back, which is one of the two persistent
        # mutations the contract allows — crashes around the heal
        # step must still converge.
        snapshot, regions = crash_snapshot(
            "queue", "serialized",
            bmos=("dedup", "encryption", "integrity", "ecc"))
        codes = snapshot["metadata"].get("ecc", {}).get("codes", {})
        victim = next(a for a in sorted(codes)
                      if a in snapshot["nvm_lines"])
        line = bytearray(snapshot["nvm_lines"][victim])
        line[9] ^= 0x04  # single-bit: correctable, heals on fetch
        snapshot["nvm_lines"][victim] = bytes(line)
        points = check_recovery_idempotent(snapshot, regions,
                                           verify_macs=True)
        assert points > 0
