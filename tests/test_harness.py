"""Tests for the experiment harness, the figure drivers and the
ablations of the design choices DESIGN.md calls out."""

import dataclasses

import pytest

from repro.common.config import default_config
from repro.harness.crash_campaign import build
from repro.harness.experiments import (
    fig3_timeline,
    fig6_dependency_graph,
    fig10_ideal_comparison,
    fig11_compiler,
    fig14_resources,
    overhead_analysis,
    table1_bmo_catalog,
)
from repro.harness.runner import run_point, speedup_over
from repro.workloads import WorkloadParams

FAST = WorkloadParams(n_items=16, value_size=64, n_transactions=5)


class TestRunner:
    def test_run_point_returns_populated_result(self):
        result = run_point("array_swap", mode="serialized", params=FAST)
        assert result.transactions == 5
        assert result.elapsed_ns > 0
        assert result.ns_per_transaction > 0
        assert result.stats["mc.writebacks"] > 0

    def test_variant_defaults(self):
        ser = run_point("array_swap", mode="serialized", params=FAST)
        jan = run_point("array_swap", mode="janus", params=FAST)
        assert ser.variant == "baseline"
        assert jan.variant == "manual"

    def test_speedup_over(self):
        ser = run_point("array_swap", mode="serialized", params=FAST)
        jan = run_point("array_swap", mode="janus", params=FAST)
        assert speedup_over(ser, jan) > 1.0
        assert speedup_over(ser, ser) == pytest.approx(1.0)

    def test_unknown_workload_rejected(self):
        from repro.common.errors import ConfigError
        with pytest.raises(ConfigError):
            run_point("nonsense", params=FAST)

    def test_deterministic_across_runs(self):
        a = run_point("queue", mode="janus", params=FAST)
        b = run_point("queue", mode="janus", params=FAST)
        assert a.elapsed_ns == b.elapsed_ns


class TestStaticFigures:
    def test_table1_covers_all_bmo_classes(self):
        result = table1_bmo_catalog()
        assert len(result.data["rows"]) == 7
        assert "360 ns" in result.rendered  # 9-level Merkle tree
        assert "ORAM" in result.rendered

    def test_fig3_ordering(self):
        result = fig3_timeline()
        assert result.data["pre_executed_ns"] == 0.0
        assert result.data["parallel_ns"] < result.data["serialized_ns"]

    def test_fig6_matches_paper_classification(self):
        labels = fig6_dependency_graph().data["classification"]
        assert labels["E1"] == labels["E2"] == "addr"
        assert labels["D1"] == labels["D2"] == "data"
        assert labels["E3"] == "both"

    def test_overhead_numbers(self):
        # The paper quotes a 9.25 KB IRB, 0.51% of the 2 MB LLC and
        # 300k gates of BMO units (§5.2.7).
        data = overhead_analysis().data
        assert 9.0 < data["irb_kib"] < 9.5
        assert data["irb_entry_bits"] == 1179
        assert 0.004 < data["fraction_of_llc"] < 0.006
        assert data["bmo_gates"] == 300_000


class TestDynamicFigures:
    def test_fig10_small_scale(self):
        result = fig10_ideal_comparison(scale=0.2,
                                        workloads=["array_swap"])
        row = result.data["array_swap"]
        assert row["serialized"] > row["janus"] > 1.0

    def test_fig11_small_scale(self):
        result = fig11_compiler(scale=0.2, workloads=["array_swap",
                                                      "rbtree"])
        assert result.data["rbtree"]["auto"] <= \
            result.data["rbtree"]["manual"] + 1e-9

    def test_fig14_fixed_baseline(self):
        result = fig14_resources(scale=0.4, scales=(1, 4),
                                 value_size=2048,
                                 workloads=["array_swap"])
        series = result.data["array_swap"]
        assert set(series) == {"1x", "4x"}
        assert all(v > 0 for v in series.values())


class TestAblations:
    """Each design choice against the paper's default configuration,
    on a workload where it matters."""

    PARAMS = WorkloadParams(n_items=32, value_size=64, n_transactions=12)

    def _speedup(self, workload, config=None):
        ser = run_point(workload, mode="serialized", params=self.PARAMS,
                        config=config)
        jan = run_point(workload, mode="janus", params=self.PARAMS,
                        config=config)
        return speedup_over(ser, jan)

    def test_strict_sibling_invalidation_costs_speedup(self):
        # Charging Merkle-path rework from concurrent commits on the
        # critical path erases part of the pre-execution benefit.
        cfg = default_config()
        cfg = cfg.replace(integrity=dataclasses.replace(
            cfg.integrity, strict_sibling_invalidation=True))
        assert self._speedup("array_swap", cfg) < \
            self._speedup("array_swap")

    def test_metadata_atomicity_selective_and_always(self):
        # Every write's metadata acceptance costs critical-path time
        # only once the write queue fills, which takes janus-speed
        # writes from several cores; at one core, or serialized, both
        # settings take the same sim-ns.
        params = WorkloadParams(n_items=32, n_transactions=24)
        selective = run_point("tpcc", mode="janus", cores=8, params=params)
        always = run_point("tpcc", mode="janus", cores=8, params=params,
                           selective_metadata_atomicity=False)

        def stalls(result):
            return result.snapshot["histograms"]["wq.full_stall_ns"][
                "count"]

        assert stalls(selective) == 0 < stalls(always)
        assert always.elapsed_ns > selective.elapsed_ns

    def test_non_pipelined_units_still_speed_up(self):
        blocking = default_config().replace(bmo_unit_pipeline_fraction=1.0)
        assert self._speedup("btree") > 1.0
        assert self._speedup("btree", blocking) > 1.0

    def test_deferred_interface_coalesces_same_line_requests(self):
        # TATP's manual plan uses the deferred (_BUF) interface: its
        # same-line field updates merge in the request queue.
        system, workloads = build("tatp", "janus", self.PARAMS)
        system.run_programs([w.run() for w in workloads])
        assert system.janus.request_queue.coalesced >= \
            self.PARAMS.n_transactions
