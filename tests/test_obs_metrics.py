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

    def test_csv_export(self, tmp_path):
        reg = self.build()
        csv_text = reg.to_csv(str(tmp_path / "stats.csv"))
        lines = csv_text.strip().splitlines()
        assert lines[0] == "metric,field,value"
        assert any(line.startswith("irb.hits,count,7") for line in lines)


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
