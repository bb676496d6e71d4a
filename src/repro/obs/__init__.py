"""Unified observability: metrics, tracing, profiling, telemetry.

* :mod:`repro.obs.metrics` — hierarchical :class:`MetricsRegistry` of
  counters and exact histograms (one count per distinct value, so
  memory grows with distinct values, not observations), with
  snapshots and snapshot deltas;
* :mod:`repro.obs.tracer` — structured span/event :class:`Tracer`
  with a no-op :data:`NULL_TRACER` for near-zero disabled overhead;
* :mod:`repro.obs.chrome_trace` — Chrome trace-event (Perfetto) JSON
  exporter, the live-run analogue of the paper's Fig. 3 timeline;
* :mod:`repro.obs.profile` — deterministic simulation profiler:
  per-event-type dispatch attribution, per-component sim-time
  self/cumulative aggregation, folded-stack (speedscope) export;
* :mod:`repro.obs.timeseries` — sim-time-driven metric sampler
  (byte-deterministic JSONL series) plus a Prometheus text-exposition
  exporter;
* :mod:`repro.obs.log` — structured JSONL run logging correlated with
  traces and time series by ``run_id`` / ``seed`` / ``sim_ns``.
"""

from repro.obs.chrome_trace import export_chrome_trace, to_chrome_trace
from repro.obs.metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
    MetricsScope,
)
from repro.obs.profile import (
    SimProfiler,
    fold_spans,
    profile_report,
    render_hotspots,
)
from repro.obs.timeseries import TimeSeriesSampler, prometheus_exposition
from repro.obs.tracer import NULL_TRACER, NullTracer, Tracer

__all__ = [
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "MetricsScope",
    "NULL_TRACER",
    "NullTracer",
    "SimProfiler",
    "TimeSeriesSampler",
    "Tracer",
    "export_chrome_trace",
    "fold_spans",
    "profile_report",
    "prometheus_exposition",
    "render_hotspots",
    "to_chrome_trace",
]
