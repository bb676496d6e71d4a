"""The multi-cycle soak harness: determinism and report identity.

The soak report is a committed artifact, so its bytes are part of the
contract: the same config must render byte-identically regardless of
``jobs`` (submission-order merge over the parallel executor) and
across repeated runs (no wall-clock, no unseeded randomness).
"""

import json

from repro.harness.report import render_json
from repro.harness.soak import (
    ROTATION,
    SoakConfig,
    render_summary,
    run_soak,
    summarise,
)

CONFIG = dict(workloads=("queue",), modes=("serialized", "janus"),
              cycles=4, txns_per_cycle=6, seed=7)


def small_config():
    return SoakConfig(**CONFIG)


class TestDeterminism:
    def test_same_seed_same_bytes_and_jobs_invariance(self):
        first = render_json(run_soak(small_config(), jobs=1))
        again = render_json(run_soak(small_config(), jobs=1))
        fanned = render_json(run_soak(small_config(), jobs=2))
        assert first == again
        assert first == fanned

    def test_different_seed_different_campaign(self):
        base = render_json(run_soak(small_config(), jobs=1))
        other = SoakConfig(**{**CONFIG, "seed": 8})
        assert render_json(run_soak(other, jobs=1)) != base


class TestReportContract:
    def test_quick_campaign_is_clean_and_accounted(self):
        report = run_soak(small_config(), jobs=1)
        assert report["violations"] == []
        summary = report["summary"]
        assert summary == summarise(report)
        assert summary["cycles"] == 8
        # Cycle 2 of the rotation is a seeded mid-recovery crash: the
        # quick campaign must exercise re-runnable recovery.
        assert ROTATION[2] == "recovery_crash"
        assert summary["mid_recovery_crashes"] >= 1
        assert summary["idempotence_points"] > 0
        # Every cycle resumed on the recovered image and matched its
        # fault-free twin at the committed-transaction boundary.
        assert summary["recovered"] == 8
        assert summary["digests_ok"] == 8

    def test_cycle_records_carry_lifecycle_evidence(self):
        report = run_soak(small_config(), jobs=1)
        cell = report["cells"]["queue"]["serialized"]
        assert len(cell["cycles"]) == 4
        for record in cell["cycles"]:
            assert record["fault"] in ROTATION
            assert record["result"] == "recovered"
            assert "committed" in record and "digest_ok" in record

    def test_render_json_is_canonical(self):
        report = run_soak(small_config(), jobs=1)
        text = render_json(report)
        assert text.endswith("\n")
        assert json.loads(text) == report
        assert text == json.dumps(report, indent=2,
                                  sort_keys=True) + "\n"

    def test_render_summary_mentions_cells(self):
        report = run_soak(small_config(), jobs=1)
        text = render_summary(report)
        assert "queue" in text
        assert "recovered" in text


class TestShardedSoak:
    """The lifecycle campaign on the sharded machine
    (docs/sharding.md): a lifetime of crash/recover/resume cycles —
    including async-epoch cycles whose per-shard flushers sit at
    different depths at the crash — always recovers onto a
    cross-shard consistent cut, and the report stays byte-identical
    at any job count."""

    def sharded_config(self):
        return SoakConfig(workloads=("queue",),
                          modes=("serialized", "async-epoch"),
                          cycles=3, txns_per_cycle=6, seed=7,
                          shards=2)

    def test_sharded_cells_recover_cleanly(self):
        report = run_soak(self.sharded_config(), jobs=1)
        assert report["violations"] == []
        assert report["config"]["shards"] == 2
        for mode in ("serialized", "async-epoch"):
            cell = report["cells"]["queue"][mode]
            assert cell["recovered"] == 3
            assert cell["digests_ok"] == 3

    def test_sharded_report_byte_identical_at_any_jobs(self):
        inline = render_json(run_soak(self.sharded_config(), jobs=1))
        fanned = render_json(run_soak(self.sharded_config(), jobs=2))
        assert inline == fanned

    def test_unsharded_config_dict_has_no_shards_key(self):
        # Pre-sharding reports must stay byte-identical: the shards
        # knob only appears in the serialised config when != 1.
        assert "shards" not in small_config().to_dict()
        assert self.sharded_config().to_dict()["shards"] == 2
