"""The coalesced and async-epoch scheduling modes.

Contract under test (``docs/scheduling-modes.md``):

* ``coalesced`` is a pure *timing* optimization — final NVM images
  match the serialized baseline byte-for-byte, and batching shared
  integrity-node charges never makes a run slower than plain
  ``parallel``;
* ``async-epoch`` relaxes durability to epoch granularity — completed
  runs still match the baseline (``run_programs`` quiesces the open
  epoch), while a mid-run crash recovers to the last fully-flushed
  epoch boundary with staleness bounded by the dial
  (:func:`repro.validate.oracles.check_bounded_staleness`, the
  satellite torn-epoch campaign).
"""

import argparse

import pytest

from repro.bmo.policy import POLICIES, build_policy
from repro.common.config import (
    ConfigError,
    SchedulingConfig,
    SystemConfig,
    default_config,
)
from repro.common.errors import SimulationError
from repro.harness.runner import run_point
from repro.validate.oracles import (
    check_bounded_staleness,
    check_mode_equivalence,
    check_workload_equivalence,
    run_staleness_crash,
)
from repro.workloads import WorkloadParams

SMALL = WorkloadParams(n_items=12, value_size=64, n_transactions=6)


class TestSchedulingConfig:
    def test_defaults_validate(self):
        default_config(mode="async-epoch")
        default_config(mode="coalesced")

    def test_every_mode_has_a_policy(self):
        assert set(SystemConfig.MODES) == set(POLICIES)

    @pytest.mark.parametrize("field,value", [
        ("epoch_writes", 0),
        ("staleness_epochs", 0),
        ("buffer_ns", -1.0),
    ])
    def test_bad_dials_rejected(self, field, value):
        sched = SchedulingConfig(**{field: value})
        with pytest.raises(ConfigError):
            sched.validate()

    def test_unknown_mode_rejected_by_policy_factory(self):
        cfg = default_config().replace(mode="no-such-mode")

        class FakeController:
            def __init__(self):
                self.cfg = cfg
        with pytest.raises(SimulationError, match="no-such-mode"):
            build_policy(FakeController())


class TestCoalesced:
    def test_final_image_matches_serialized(self):
        ops = [("store", 0, 1), ("store", 1, 2), ("hinted", 2, 3),
               ("store", 0, 4), ("split", 3, 5)]
        check_mode_equivalence(ops, modes=("coalesced",), n_lines=8)

    def test_workload_digest_matches_serialized(self):
        check_workload_equivalence(
            "array_swap", txns=6, items=12, modes=("coalesced",))

    def test_never_slower_than_parallel(self):
        # The discount only ever *removes* charged latency.
        par = run_point("queue", mode="parallel", params=SMALL)
        coal = run_point("queue", mode="coalesced", params=SMALL)
        assert coal.elapsed_ns <= par.elapsed_ns

    def test_batches_and_discounts_are_counted(self):
        res = run_point("btree", mode="coalesced", params=SMALL,
                        cores=2)
        assert res.stats.get("sched.coalesce_batches", 0) > 0
        # With two cores writebacks overlap, so some shared ancestor
        # nodes must have been discounted.
        assert res.stats.get("sched.coalesced_node_updates", 0) > 0


class TestAsyncEpoch:
    def test_completed_run_matches_serialized(self):
        # run_programs closes the open epoch and drains the flusher,
        # so a clean run is fully durable: final-image equivalence.
        check_workload_equivalence(
            "queue", txns=6, items=12, modes=("async-epoch",))

    def test_ops_program_equivalence(self):
        ops = [("store", 0, 1), ("stale", 1, 2, 3), ("store", 2, 4),
               ("swap", 0, 2), ("store", 1, 5)]
        check_mode_equivalence(ops, modes=("async-epoch",), n_lines=8)

    def test_epoch_stats_are_emitted(self):
        res = run_point("hash_table", mode="async-epoch", params=SMALL)
        assert res.stats.get("sched.epochs_closed", 0) >= 1
        assert res.stats["sched.epochs_closed"] == \
            res.stats.get("sched.epochs_flushed", 0)

    @pytest.mark.parametrize("workload",
                             ["array_swap", "queue", "hash_table"])
    def test_torn_epoch_recovery_lands_on_boundary(self, workload):
        # Satellite 4: seeded crash points inside open epochs across
        # three workloads — committed set is a prefix covered by the
        # watermark, digest matches the reference trajectory, zero
        # invariant violations (check=True runs the checkers).
        points = check_bounded_staleness(
            workload, txns=8, items=8,
            crash_fractions=(0.4, 0.75), check=True)
        assert points == 2

    def test_crash_mid_run_demotes_beyond_watermark(self):
        out = run_staleness_crash("array_swap", txns=10, items=8,
                                  crash_fraction=0.5)
        sched = out["scheduling"]
        assert sched["mode"] == "async-epoch"
        flushed = set(sched["flushed_txns"])
        assert set(out["committed"]) <= flushed
        assert not flushed.intersection(out["demoted"])
        assert sched["epochs_closed"] - sched["epochs_flushed"] \
            <= sched["staleness_epochs"]


class TestCliDials:
    @staticmethod
    def point_args(staleness_epochs, epoch_writes):
        return argparse.Namespace(
            mode="async-epoch", variant=None, cores=1, txns=4, items=8,
            value_size=64, staleness_epochs=staleness_epochs,
            epoch_writes=epoch_writes)

    def test_scheduling_overrides_thread_into_config(self):
        from repro.cli import _point_kwargs
        from repro.harness.crash_campaign import build
        kwargs = _point_kwargs(self.point_args(4, 16))
        sched = kwargs["scheduling"]
        assert (sched.staleness_epochs, sched.epoch_writes) == (4, 16)
        system, _workloads = build("queue", **kwargs)
        assert system.cfg.scheduling.staleness_epochs == 4

    def test_no_dials_means_no_overrides(self):
        from repro.cli import _point_kwargs
        assert "scheduling" not in _point_kwargs(
            self.point_args(None, None))

    def test_dials_shrink_staleness_window(self):
        out = run_staleness_crash("queue", txns=10, items=8,
                                  crash_fraction=0.6,
                                  staleness_epochs=1, epoch_writes=8)
        sched = out["scheduling"]
        assert sched["staleness_epochs"] == 1
        assert sched["epochs_closed"] - sched["epochs_flushed"] <= 1
