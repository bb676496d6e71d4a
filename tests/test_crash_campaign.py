"""The crash-point campaign: determinism, invariants, mid-BMO crashes.

The campaign is the repo's end-to-end robustness gate; these tests
pin its three contracts:

1. identical seed + config => byte-identical report JSON;
2. a fault-free sweep never violates an invariant — every crash point
   recovers onto a committed-transaction boundary whose logical
   digest matches the reference trajectory, in both modes (which also
   proves Janus pre-execution never changes post-crash recoverable
   state versus the serialized baseline);
3. a crash in the mid-BMO window (metadata committed at the persist
   point, data write not yet accepted) recovers cleanly for every
   workload — the window the paper's metadata-atomicity argument is
   about.
"""

import dataclasses

import pytest

from repro.consistency import recover
from repro.harness import crash_campaign as cc
from repro.harness.report import render_json, write_json
from repro.workloads import WORKLOADS, WorkloadParams

SEED = 7
SMALL = cc.CampaignConfig(workloads=("array_swap", "queue"),
                          points=3, seed=SEED, n_transactions=6)


@pytest.fixture(scope="module")
def small_reports():
    """The same small campaign run twice (for the determinism test;
    every other test reuses the first run)."""
    return cc.run_campaign(SMALL), cc.run_campaign(SMALL)


class TestCampaignConfig:
    def test_default_meets_issue_floor(self):
        config = cc.CampaignConfig()
        assert config.points >= 20
        assert tuple(config.workloads) == tuple(WORKLOADS)
        assert set(config.modes) == {"serialized", "janus"}

    def test_quick_config_is_smaller(self):
        quick = cc.quick_config()
        assert quick.points < cc.CampaignConfig().points
        assert len(quick.workloads) < len(WORKLOADS)


class TestCampaignInvariants:
    def test_report_is_byte_identical_across_runs(self, small_reports):
        first, second = small_reports
        assert render_json(first) == render_json(second)

    def test_no_violations_in_fault_free_sweep(self, small_reports):
        report, _ = small_reports
        assert report["violations"] == []
        for name, entry in report["workloads"].items():
            for mode, mode_entry in entry["modes"].items():
                for point in mode_entry["points"]:
                    assert point["result"] == "recovered", \
                        f"{name}/{mode}: {point}"
                    assert point["digest_ok"] and point["prefix_ok"]
                    assert point["scrub"]["clean"]

    def test_modes_share_the_reference_trajectory(self, small_reports):
        report, _ = small_reports
        for entry in report["workloads"].values():
            digest_sets = [m["reference_digests"]
                           for m in entry["modes"].values()]
            assert all(d == digest_sets[0] for d in digest_sets)

    def test_fault_scenarios_all_accounted(self, small_reports):
        report, _ = small_reports
        assert len(report["fault_scenarios"]) == len(cc.FAULT_SCENARIOS)
        for scenario in report["fault_scenarios"]:
            assert scenario["injected"], \
                f"{scenario['label']} never fired"
            assert scenario["accounted"], scenario
            assert not scenario["silent"]

    def test_summary_counts_match(self, small_reports):
        report, _ = small_reports
        summary = report["summary"]
        expected_points = (len(SMALL.workloads) * len(SMALL.modes)
                           * SMALL.points)
        assert summary["crash_points"] == expected_points
        assert summary["recovered"] + summary["rejected"] \
            == expected_points
        assert summary["violations"] == 0

    def test_render_json_has_no_timestamps(self, small_reports):
        report, _ = small_reports
        # Dates live in the report *filename* only; the body must be
        # reproducible byte-for-byte.
        assert "20" + "26" not in render_json(report).split(
            '"schema"')[0]
        assert report["schema"] == cc.SCHEMA

    def test_write_report_roundtrip(self, small_reports, tmp_path):
        import json
        report, _ = small_reports
        path = tmp_path / "CRASHTEST_test.json"
        write_json(report, str(path))
        assert json.loads(path.read_text()) == report


class TestMidBmoCrash:
    """Crash between sub-op commit and data acceptance, per workload."""

    PARAMS = WorkloadParams(n_items=8, value_size=64,
                            n_transactions=10)

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_recovers_onto_committed_boundary(self, name):
        digests, _horizon = cc.reference_trajectory(
            name, "janus", self.PARAMS, SEED)
        _system, workload, snapshot = cc.crash_mid_bmo(
            name, "janus", commit_index=5, params=self.PARAMS,
            seed=SEED)
        state = recover(snapshot,
                        [(workload.log.base, workload.log.capacity)],
                        verify_macs=True)
        committed = state.committed_txns
        assert committed == list(range(1, len(committed) + 1))
        assert workload.logical_digest(state.read) \
            == digests[len(committed)]


class TestRunToAccept:
    """The ``wq_*`` crash instant on the sharded machine: the stop is
    the Nth write-queue acceptance counted across every shard's
    queue, the Nth entry still sits undrained in the ADR domain, and
    every queue loses its acceptance observer again."""

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_stops_at_nth_acceptance_system_wide(self, shards):
        system, [workload] = cc.build("queue", "janus", SMALL.params(),
                                      SEED, shards=shards)
        originals = [queue.accept for queue in system.write_queues]
        cc.run_to_accept(system, workload.run(), 5)
        accepted = {name: value for name, value
                    in system.metrics.as_flat_dict().items()
                    if name.startswith("wq")
                    and name.endswith(".accepted")}
        assert len(accepted) == shards
        assert sum(accepted.values()) == 5
        assert [queue.accept for queue in system.write_queues] \
            == originals
        assert all(queue.on_accept is None
                   for queue in system.write_queues)
        assert any(queue._pending for queue in system.write_queues)


class TestProgramErrors:
    """A program that raises before its crash point fails the crash
    point: the error reaches the caller, not a record that reads
    ``recovered`` over a run cut short."""

    @pytest.fixture
    def planted_e3(self, monkeypatch):
        """Every system the campaign builds raises at its third E3."""
        build = cc.build

        def planted(*args, **kwargs):
            system, workloads = build(*args, **kwargs)
            graph = system.pipeline.graph
            op, runs = graph.subops["E3"], []

            def run(ctx):
                runs.append(ctx)
                if len(runs) == 3:
                    raise RuntimeError("E3 #3")
                op.run(ctx)

            graph.subops["E3"] = dataclasses.replace(op, run=run)
            return system, workloads

        monkeypatch.setattr(cc, "build", planted)

    @pytest.mark.parametrize("cut", [{"crash_at": 20000},
                                     {"crash_at": 0, "crash_on_accept": 30}],
                             ids=["until", "on-accept"])
    def test_crash_point_raises_the_program_error(self, planted_e3, cut):
        params = WorkloadParams(n_items=8, n_transactions=12)
        with pytest.raises(RuntimeError, match="E3 #3"):
            cc.run_crash_point("btree", "serialized", params, SEED, **cut)

    def test_mid_bmo_crash_raises_the_program_error(self, planted_e3):
        with pytest.raises(RuntimeError, match="E3 #3"):
            cc.crash_mid_bmo("btree", mode="serialized")


class TestShardedCampaign:
    """The crash-point sweep on the sharded machine: every seeded
    crash — including async-epoch points caught with one shard's
    epoch flusher behind the others — recovers onto the cross-shard
    consistent cut, and the report JSON is byte-identical at --jobs 1
    vs 2 (docs/sharding.md)."""

    def sharded_config(self):
        return cc.CampaignConfig(
            workloads=("queue",), modes=("serialized", "async-epoch"),
            points=3, seed=SEED, n_transactions=6,
            fault_scenarios=False, shards=2)

    def test_sharded_points_recover_on_committed_boundaries(self):
        report = cc.run_campaign(self.sharded_config(), jobs=1)
        assert report["violations"] == []
        assert report["config"]["shards"] == 2
        for entry in report["workloads"].values():
            for mode_entry in entry["modes"].values():
                for point in mode_entry["points"]:
                    assert point["result"] == "recovered"
                    assert point["prefix_ok"]
                    assert point["digest_ok"]

    def test_sharded_report_byte_identical_at_any_jobs(self):
        inline = render_json(
            cc.run_campaign(self.sharded_config(), jobs=1))
        fanned = render_json(
            cc.run_campaign(self.sharded_config(), jobs=2))
        assert inline == fanned

    def test_unsharded_config_dict_has_no_shards_key(self):
        assert "shards" not in SMALL.to_dict()
        assert self.sharded_config().to_dict()["shards"] == 2
