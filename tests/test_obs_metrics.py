"""Tests for the central metrics registry (repro.obs.metrics)."""

import json

import pytest

from repro.obs.metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
    MetricsScope,
)


class TestHistogramReservoir:
    def test_reservoir_is_bounded(self):
        h = Histogram("lat", reservoir_size=100)
        for i in range(5000):
            h.observe(float(i))
        assert h.count == 5000
        assert len(h._samples) == 100
        # Streaming aggregates still see every sample.
        assert h.min == 0.0 and h.max == 4999.0
        assert h.mean == pytest.approx(2499.5)

    def test_reservoir_percentile_is_representative(self):
        h = Histogram("lat", reservoir_size=256)
        for i in range(10_000):
            h.observe(float(i))
        p50 = h.percentile(50)
        # Uniform input: the sampled median is near the true median.
        assert 3000 < p50 < 7000

    def test_reservoir_is_deterministic(self):
        def build():
            h = Histogram("same-name", reservoir_size=32)
            for i in range(1000):
                h.observe(float(i))
            return h._samples

        assert build() == build()

    def test_small_counts_keep_exact_samples(self):
        h = Histogram("lat")
        for v in (1.0, 2.0, 3.0):
            h.observe(v)
        assert h.percentile(0) == 1.0
        assert h.percentile(100) == 3.0
        assert h.percentile(50) == pytest.approx(2.0)

    def test_discarded_samples_percentile_is_none(self):
        h = Histogram("lat", keep_samples=False)
        h.observe(42.0)
        assert h.count == 1 and h.mean == 42.0
        assert h.percentile(50) is None  # not a silent 0.0

    def test_empty_histogram_percentile_zero(self):
        assert Histogram("lat").percentile(50) == 0.0

    def test_summary_includes_percentiles_when_sampled(self):
        h = Histogram("lat")
        for v in (1.0, 2.0, 3.0, 4.0):
            h.observe(v)
        s = h.summary()
        assert s["count"] == 4
        assert "p50" in s and "p95" in s and "p99" in s
        assert "p50" not in Histogram("x", keep_samples=False).summary()


class TestHistogramFoldIn:
    """merge_summary / fold tolerance for sparse worker snapshots."""

    def test_empty_worker_summary_is_a_noop(self):
        h = Histogram("lat")
        h.observe(5.0)
        h.merge_summary({"count": 0, "mean": 0.0, "min": 0.0,
                         "max": 0.0})
        assert h.count == 1 and h.min == 5.0 and h.max == 5.0

    def test_single_sample_worker_summary_merges_exactly(self):
        h = Histogram("lat")
        h.merge_summary({"count": 1, "mean": 7.0, "min": 7.0,
                         "max": 7.0})
        s = h.summary()
        assert s["count"] == 1 and s["mean"] == 7.0
        assert s["min"] == 7.0 and s["max"] == 7.0

    def test_summary_missing_min_max_falls_back_to_mean(self):
        h = Histogram("lat")
        h.merge_summary({"count": 3, "mean": 4.0})
        s = h.summary()
        assert s["min"] == 4.0 and s["max"] == 4.0  # never inf

    def test_folded_only_histogram_reports_no_percentiles(self):
        """count > 0 from fold-ins alone must not surface p50=0.0 —
        that reads as a real zero latency."""
        h = Histogram("lat")
        h.merge_summary({"count": 10, "mean": 3.0, "min": 1.0,
                         "max": 5.0})
        s = h.summary()
        assert s["count"] == 10
        assert "p50" not in s and "p95" not in s and "p99" not in s

    def test_fold_does_not_skew_reservoir_admission(self):
        """Algorithm R admission must use the locally-seen count: a
        large folded-in count would otherwise make later local
        samples nearly inadmissible, freezing percentiles on the
        early prefix."""
        plain = Histogram("skew-check", reservoir_size=64)
        folded = Histogram("skew-check", reservoir_size=64)
        folded.merge_summary({"count": 1_000_000, "mean": 0.0,
                              "min": 0.0, "max": 0.0})
        for i in range(2000):
            plain.observe(float(i))
            folded.observe(float(i))
        # Same seed stream + same local sample sequence -> identical
        # reservoirs, regardless of the folded count.
        assert folded._samples == plain._samples
        assert folded.percentile(50) == plain.percentile(50)

    def test_registry_fold_tolerates_empty_histograms(self):
        parent = MetricsRegistry()
        parent.scope("wq").histogram("depth").observe(2.0)
        worker = MetricsRegistry()
        worker.scope("wq").histogram("depth")  # created, never observed
        worker.scope("wq").histogram("burst").observe(9.0)
        parent.fold(worker.snapshot())
        snap = parent.snapshot()
        depth = snap["histograms"]["wq.depth"]
        assert depth["count"] == 1 and depth["min"] == 2.0
        burst = snap["histograms"]["wq.burst"]
        assert burst["count"] == 1
        assert burst["min"] == 9.0 and burst["max"] == 9.0


class TestScope:
    def test_statset_compatibility(self):
        scope = MetricsScope("irb")
        scope.counter("hits").add(3)
        scope.histogram("lat").observe(10.0)
        assert scope.counters["hits"].value == 3
        assert scope.histograms["lat"].count == 1
        d = scope.as_dict()
        assert d["hits"] == 3 and d["lat.mean"] == 10.0

    def test_labeled_counters_are_distinct(self):
        scope = MetricsScope("mc")
        scope.counter("writes", labels={"kind": "data"}).add(2)
        scope.counter("writes", labels={"kind": "meta"}).add(5)
        scope.counter("writes").add(1)
        assert scope.counters["writes{kind=data}"].value == 2
        assert scope.counters["writes{kind=meta}"].value == 5
        assert scope.counters["writes"].value == 1

    def test_counter_repr_includes_labels(self):
        c = Counter("hits", labels={"mode": "janus"})
        c.add(2)
        assert repr(c) == "hits{mode=janus}=2"


class TestRegistry:
    def build(self):
        reg = MetricsRegistry()
        reg.scope("irb").counter("hits").add(7)
        reg.scope("irb").counter("misses").add(3)
        reg.scope("mc").histogram("write_ns").observe(100.0)
        reg.scope("mc").histogram("write_ns").observe(300.0)
        return reg

    def test_scope_is_memoized(self):
        reg = MetricsRegistry()
        assert reg.scope("a") is reg.scope("a")

    def test_flat_dict_uses_dotted_paths(self):
        flat = self.build().as_flat_dict()
        assert flat["irb.hits"] == 7
        assert flat["mc.write_ns.mean"] == pytest.approx(200.0)
        assert flat["mc.write_ns.count"] == 2

    def test_snapshot_json_round_trip(self):
        reg = self.build()
        snap = reg.snapshot(meta={"workload": "hash_table"})
        loaded = json.loads(json.dumps(snap))
        assert loaded == snap
        assert loaded["schema"] == "repro-stats-v1"
        assert loaded["counters"]["irb.hits"] == 7
        assert loaded["histograms"]["mc.write_ns"]["count"] == 2
        assert loaded["meta"]["workload"] == "hash_table"

    def test_snapshot_is_point_in_time(self):
        reg = self.build()
        before = reg.snapshot()
        reg.scope("irb").counter("hits").add(100)
        assert before["counters"]["irb.hits"] == 7

    def test_delta(self):
        reg = self.build()
        before = reg.snapshot()
        reg.scope("irb").counter("hits").add(5)
        reg.scope("mc").histogram("write_ns").observe(500.0)
        after = reg.snapshot()
        delta = MetricsRegistry.delta(before, after)
        assert delta["counters"]["irb.hits"] == 5
        assert delta["counters"]["irb.misses"] == 0
        h = delta["histograms"]["mc.write_ns"]
        assert h["count"] == 1
        assert h["mean"] == pytest.approx(500.0)  # mean of new samples

    def test_delta_handles_one_sided_metrics(self):
        a = MetricsRegistry().snapshot()
        reg = MetricsRegistry()
        reg.scope("x").counter("c").add(4)
        delta = MetricsRegistry.delta(a, reg.snapshot())
        assert delta["counters"]["x.c"] == 4

    def test_json_and_csv_export(self, tmp_path):
        reg = self.build()
        jpath = tmp_path / "stats.json"
        text = reg.to_json(str(jpath))
        assert json.loads(jpath.read_text()) == json.loads(text)
        csv_text = reg.to_csv(str(tmp_path / "stats.csv"))
        lines = csv_text.strip().splitlines()
        assert lines[0] == "metric,field,value"
        assert any(line.startswith("irb.hits,count,7") for line in lines)

    def test_adopt_external_scope(self):
        reg = MetricsRegistry()
        legacy = MetricsScope("legacy")
        legacy.counter("n").add(2)
        reg.adopt("legacy", legacy)
        assert reg.as_flat_dict()["legacy.n"] == 2


class TestExactAggregatesAndApproximateMarking:
    """PR 6 satellite: exact sum alongside the reservoir, and honest
    marking of reservoir-derived percentiles."""

    def test_summary_carries_exact_sum_min_max(self):
        h = Histogram("lat", reservoir_size=8)
        for i in range(100):
            h.observe(float(i))
        s = h.summary()
        assert s["sum"] == sum(range(100))
        assert s["min"] == 0.0 and s["max"] == 99.0
        assert s["count"] == 100

    def test_exact_percentiles_not_marked(self):
        h = Histogram("lat", reservoir_size=128)
        for i in range(50):
            h.observe(float(i))
        s = h.summary()
        assert "approximate" not in s
        assert h.percentiles_approximate is False

    def test_reservoir_eviction_marks_approximate(self):
        h = Histogram("lat", reservoir_size=16)
        for i in range(1000):
            h.observe(float(i))
        s = h.summary()
        assert s["approximate"] is True
        assert h.percentiles_approximate is True

    def test_summary_fold_in_marks_approximate(self):
        target = Histogram("lat", reservoir_size=64)
        target.observe(1.0)
        source = Histogram("lat", reservoir_size=64)
        for i in range(10):
            source.observe(float(i))
        target.merge_summary(source.summary())
        # Folded counts have no samples in this reservoir: percentiles
        # no longer reflect every observation.
        assert target.percentiles_approximate is True
        assert target.summary()["approximate"] is True
        # ...but the exact aggregates folded exactly.
        assert target.summary()["sum"] == 1.0 + sum(range(10))
        assert target.summary()["count"] == 11

    def test_merge_summary_prefers_exact_sum(self):
        target = Histogram("lat")
        target.merge_summary({"count": 3, "mean": 2.0, "sum": 6.5,
                              "min": 1.0, "max": 4.0})
        assert target.total == 6.5

    def test_csv_export_carries_approximate_and_sum(self):
        registry = MetricsRegistry()
        h = registry.scope("wq").histogram("residency_ns",
                                           reservoir_size=8)
        for i in range(100):
            h.observe(float(i))
        rows = registry.to_csv().splitlines()
        fields = {tuple(r.split(",")[:2]) for r in rows[1:]}
        assert ("wq.residency_ns", "approximate") in fields
        assert ("wq.residency_ns", "sum") in fields
