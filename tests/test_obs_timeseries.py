"""Tests for the sim-time metric sampler (repro.obs.timeseries)."""

import json

import pytest

from repro.harness.runner import run_point
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import (
    TimeSeriesSampler,
    load_jsonl,
    prometheus_exposition,
    render_series,
    series_of,
)
from repro.obs.tracer import Tracer
from repro.workloads import WorkloadParams


def _registry():
    registry = MetricsRegistry()
    scope = registry.scope("wq")
    return registry, scope.counter("accepted")


class TestSampler:
    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            TimeSeriesSampler(0)

    def test_samples_stamped_at_boundaries(self):
        registry, counter = _registry()
        sampler = TimeSeriesSampler(100.0, registry=registry)
        counter.add(3)
        # Clock jumps straight over several boundaries: one sample per
        # crossed boundary, stamped at the boundary, not at 350.
        sampler.on_advance(350.0)
        assert [s["sim_ns"] for s in sampler.samples] == \
            [100.0, 200.0, 300.0]
        assert all(s["metrics"]["wq.accepted"] == 3
                   for s in sampler.samples)
        assert sampler.next_ns == 400.0

    def test_finish_records_partial_interval_once(self):
        registry, counter = _registry()
        sampler = TimeSeriesSampler(100.0, registry=registry)
        sampler.on_advance(100.0)
        counter.add()
        sampler.finish(142.0)
        sampler.finish(142.0)  # idempotent
        assert [s["sim_ns"] for s in sampler.samples] == [100.0, 142.0]
        assert sampler.samples[-1]["metrics"]["wq.accepted"] == 1

    def test_unbound_sampler_raises(self):
        sampler = TimeSeriesSampler(10.0)
        with pytest.raises(ValueError):
            sampler.on_advance(10.0)

    def test_counter_tracks_emitted_to_tracer(self):
        registry, counter = _registry()
        tracer = Tracer()
        sampler = TimeSeriesSampler(50.0, registry=registry,
                                    tracer=tracer,
                                    counter_tracks=("wq.accepted",))
        counter.add(7)
        sampler.on_advance(50.0)
        counters = [e for e in tracer.events if e["ph"] == "C"]
        assert len(counters) == 1
        assert counters[0]["name"] == "ts:wq.accepted"
        assert counters[0]["args"] == {"wq.accepted": 7}
        assert counters[0]["ts"] == 50.0

    def test_jsonl_round_trip(self, tmp_path):
        registry, counter = _registry()
        sampler = TimeSeriesSampler(10.0, registry=registry,
                                    meta={"workload": "queue"})
        counter.add()
        sampler.on_advance(10.0)
        counter.add()
        sampler.finish(15.0)
        path = tmp_path / "ts.jsonl"
        sampler.write_jsonl(str(path))
        header, samples = load_jsonl(str(path))
        assert header["schema"] == "repro-ts-v1"
        assert header["interval_ns"] == 10.0
        assert header["samples"] == 2
        assert header["workload"] == "queue"
        assert series_of(samples, "wq.accepted") == \
            [(10.0, 1), (15.0, 2)]

    def test_load_rejects_other_files(self, tmp_path):
        path = tmp_path / "other.jsonl"
        path.write_text(json.dumps({"schema": "nope"}) + "\n")
        with pytest.raises(ValueError):
            load_jsonl(str(path))

    def test_render_series_chart_and_missing_metric(self):
        samples = [{"sim_ns": float(t),
                    "metrics": {"wq.accepted": float(t // 10)}}
                   for t in range(0, 100, 10)]
        chart = render_series(samples, "wq.accepted", width=20,
                              height=5)
        assert "wq.accepted" in chart and "*" in chart
        missing = render_series(samples, "no.such")
        assert "no samples" in missing and "wq.accepted" in missing


class TestSimulatorIntegration:
    def _series(self):
        sampler = TimeSeriesSampler(500.0)
        run_point("queue", mode="janus", sampler=sampler,
                  params=WorkloadParams(n_transactions=4))
        return sampler

    def test_byte_identical_across_runs(self):
        assert self._series().to_jsonl() == self._series().to_jsonl()

    def test_sampling_does_not_perturb_the_run(self):
        params = WorkloadParams(n_transactions=4)
        plain = run_point("queue", mode="janus", params=params)
        sampler = TimeSeriesSampler(500.0)
        sampled = run_point("queue", mode="janus", sampler=sampler,
                            params=params)
        # Same event count, same sim time: the sampler rides the
        # dispatch loop instead of scheduling events.
        assert sampled.elapsed_ns == plain.elapsed_ns
        assert sampled.stats == plain.stats
        assert len(sampler.samples) >= 2
        assert sampler.samples[-1]["sim_ns"] == sampled.elapsed_ns


class TestPrometheusExposition:
    def _snapshot(self):
        registry = MetricsRegistry()
        scope = registry.scope("wq")
        scope.counter("accepted").add(5)
        hist = scope.histogram("residency_ns")
        for i in range(10):
            hist.observe(float(i))
        return registry.snapshot()

    def test_counter_and_summary_families(self):
        text = prometheus_exposition(self._snapshot())
        assert "# TYPE repro_wq_accepted counter" in text
        assert "repro_wq_accepted 5" in text
        assert "# TYPE repro_wq_residency_ns summary" in text
        assert "repro_wq_residency_ns_count 10" in text
        assert "repro_wq_residency_ns_sum 45.0" in text
        assert 'quantile="0.95"' in text

    def test_exact_percentiles_carry_no_approximate_label(self):
        text = prometheus_exposition(self._snapshot())
        assert 'approximate="true"' not in text

    def test_large_histograms_expose_exact_quantiles(self):
        registry = MetricsRegistry()
        hist = registry.scope("wq").histogram("residency_ns")
        for i in range(2000):
            hist.observe(float(i))
        text = prometheus_exposition(registry.snapshot())
        assert 'repro_wq_residency_ns{quantile="0.5"} 999.5' in text
        assert "approximate=" not in text
