"""Tests for the central metrics registry (repro.obs.metrics)."""

import json
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.obs.metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
    MetricsScope,
)


def interpolated(observations, p):
    """The percentile rule over the full sorted observation list."""
    data = sorted(observations)
    if len(data) == 1:
        return data[0]
    rank = (p / 100.0) * (len(data) - 1)
    lo = int(math.floor(rank))
    hi = min(lo + 1, len(data) - 1)
    frac = rank - lo
    return data[lo] * (1 - frac) + data[hi] * frac


class TestExactHistogram:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 3000), distinct=st.integers(1, 600),
           seed=st.integers(0, 2**32 - 1))
    # Generated n is mostly small; pin one case far past 1,024.
    @example(n=3000, distinct=60, seed=0)
    def test_percentiles_are_exact_and_order_independent(self, n,
                                                         distinct, seed):
        # Up to 3,000 integer observations of a few distinct values,
        # like the simulator's sim-ns histograms.
        rng = random.Random(seed)
        values = rng.sample(range(-10, 10**6), distinct)
        observations = [rng.choice(values) for _ in range(n)]
        summaries = []
        for _ in range(2):
            rng.shuffle(observations)
            h = Histogram("lat")
            for value in observations:
                h.observe(value)
            for p in (0, 1, 50, 95, 99, 100):
                # repr: the same value and type, as the exports print it.
                assert repr(h.percentile(p)) == \
                    repr(interpolated(observations, p))
            summaries.append(json.dumps(h.summary()))
        assert summaries[0] == summaries[1]

    def test_memory_is_one_entry_per_distinct_value(self):
        h = Histogram("lat")
        for i in range(5000):
            h.observe(i % 10)
        assert h.count == 5000
        assert len(h._counts) == 10
        assert h.min == 0 and h.max == 9
        assert h.mean == pytest.approx(4.5)

    def test_percentiles_of_many_observations_are_exact(self):
        h = Histogram("lat")
        for i in range(10_000):
            h.observe(float(i))
        assert h.percentile(50) == 4999.5
        assert h.percentile(99) == pytest.approx(9899.01)

    def test_small_counts_keep_exact_samples(self):
        h = Histogram("lat")
        for v in (1.0, 2.0, 3.0):
            h.observe(v)
        assert h.percentile(0) == 1.0
        assert h.percentile(100) == 3.0
        assert h.percentile(50) == pytest.approx(2.0)

    def test_empty_histogram_percentile_zero(self):
        assert Histogram("lat").percentile(50) == 0.0

    def test_summary_includes_percentiles_once_observed(self):
        h = Histogram("lat")
        for v in (1.0, 2.0, 3.0, 4.0):
            h.observe(v)
        s = h.summary()
        assert s["count"] == 4
        assert "p50" in s and "p95" in s and "p99" in s
        assert "p50" not in Histogram("x").summary()


class TestScope:
    def test_statset_compatibility(self):
        scope = MetricsScope("irb")
        scope.counter("hits").add(3)
        scope.histogram("lat").observe(10.0)
        assert scope.counters["hits"].value == 3
        assert scope.histograms["lat"].count == 1
        d = scope.as_dict()
        assert d["hits"] == 3 and d["lat.mean"] == 10.0

    def test_counter_repr(self):
        c = Counter("hits")
        c.add(2)
        assert repr(c) == "hits=2"


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


class TestExactAggregates:
    def test_summary_carries_exact_sum_min_max(self):
        h = Histogram("lat")
        for i in range(2000):
            h.observe(float(i))
        s = h.summary()
        assert s["sum"] == sum(range(2000))
        assert s["min"] == 0.0 and s["max"] == 1999.0
        assert s["count"] == 2000

    def test_csv_export_carries_sum_and_percentiles(self):
        # Both exports (the --stats JSON and --prom) read the
        # snapshot's summary: it carries the exact sum and every
        # percentile.
        registry = MetricsRegistry()
        h = registry.scope("wq").histogram("residency_ns")
        for i in range(2000):
            h.observe(float(i))
        summary = registry.snapshot()["histograms"]["wq.residency_ns"]
        assert summary["sum"] == sum(range(2000))
        assert set(summary) == {
            "count", "mean", "sum", "min", "max", "p50", "p95", "p99"}
