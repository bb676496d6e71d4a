"""Deterministic sim-time-driven metric time series.

A :class:`TimeSeriesSampler` snapshots the metrics registry every
``interval_ns`` *simulated* nanoseconds.  Because the trigger is the
simulation clock — not wall time, threads, or timers — the sampled
series is a pure function of the run: byte-identical across hosts,
repeat runs, and ``--jobs`` counts, the same merge discipline the
parallel sweep executor guarantees for its reports.

The sampler deliberately does **not** schedule simulator events: a
self-rescheduling "sampler process" would inflate the event count,
keep the event queue non-empty forever, and perturb
``run(until=...)`` semantics.  Instead the sampler is a hook on
:meth:`Simulator.run <repro.sim.engine.Simulator.run>`: the dispatch
loop calls :meth:`on_advance` whenever the clock crosses the next
sample boundary.  The clock only advances *between* same-time
batches, so the boundary check runs once per batch rather than once
per event, and an unsampled run skips it on one ``is None`` test.
The sample points are those a per-event check would find, because a
boundary can only be crossed where time advances.

Outputs:

* :meth:`to_jsonl` — one header line plus one JSON object per sample
  (``repro-ts-v1``), the format ``repro chart`` plots;
* :func:`prometheus_exposition` — any registry snapshot (including a
  sample) rendered in the Prometheus text exposition format, for
  scraping a long-running service;
* optional live counter tracks: give the sampler a tracer and a list
  of metric names and every sample also lands as a Chrome-trace
  counter event, so Perfetto plots the series under the timeline.
"""

import json
import re
from typing import Dict, Iterable, List, Optional, Tuple

TS_SCHEMA = "repro-ts-v1"

#: Metrics mirrored onto tracer counter tracks by default: the
#: write-path occupancy/progress signals Fig. 3-style timelines need.
DEFAULT_COUNTER_TRACKS = (
    "wq.accepted", "wq.drained", "mc.writes_persisted",
    "janus.fully_pre_executed", "janus.partially_pre_executed",
)


class TimeSeriesSampler:
    """Samples a :class:`~repro.obs.metrics.MetricsRegistry` every
    ``interval_ns`` of simulation time.

    Attach by assignment: ``sim.sampler = sampler`` (after
    ``bind(system.metrics)``); the simulator's dispatch loop drives
    :meth:`on_advance`.  Call :meth:`finish` once the run ends to
    record the final partial interval.
    """

    def __init__(self, interval_ns: float,
                 registry=None, tracer=None,
                 counter_tracks: Iterable[str] = DEFAULT_COUNTER_TRACKS,
                 meta: Optional[Dict] = None):
        if interval_ns <= 0:
            raise ValueError(
                f"sample interval must be positive, got {interval_ns}")
        self.interval_ns = interval_ns
        #: Next sim-time boundary at which to take a sample.  The
        #: dispatch loop compares against this directly.
        self.next_ns = interval_ns
        self.registry = registry
        self.tracer = tracer
        self.counter_tracks = tuple(counter_tracks)
        self.meta = dict(meta) if meta else {}
        self.samples: List[Dict] = []
        self._finished = False

    def bind(self, registry, tracer=None) -> "TimeSeriesSampler":
        """Late-bind the registry (and optionally tracer) to sample."""
        self.registry = registry
        if tracer is not None:
            self.tracer = tracer
        return self

    # -- driven by the simulator loop -----------------------------------
    def on_advance(self, now: float) -> None:
        """The clock reached ``now`` (>= :attr:`next_ns`): take every
        sample boundary passed, stamped at the boundary itself.

        Samples are stamped at the *boundary* time, not the event time
        that crossed it, so two runs whose event times differ inside
        an interval still produce identically-stamped samples.
        """
        while now >= self.next_ns:
            self._take(self.next_ns)
            self.next_ns += self.interval_ns

    def finish(self, now: float) -> None:
        """Record the final partial interval at end-of-run time."""
        if self._finished:
            return
        self._finished = True
        if not self.samples or self.samples[-1]["sim_ns"] < now:
            self._take(now)

    def _take(self, sim_ns: float) -> None:
        if self.registry is None:
            raise ValueError("sampler has no registry; call bind()")
        metrics = self.registry.as_flat_dict()
        self.samples.append({"sim_ns": sim_ns, "metrics": metrics})
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            for name in self.counter_tracks:
                value = metrics.get(name)
                if value is not None:
                    scope = name.rpartition(".")[0] or name
                    tracer.counter(f"ts:{name}",
                                   ("timeseries", scope), sim_ns,
                                   {name: value})

    # -- exports --------------------------------------------------------
    def header(self) -> Dict:
        return {"schema": TS_SCHEMA,
                "interval_ns": self.interval_ns,
                "samples": len(self.samples),
                **{k: self.meta[k] for k in sorted(self.meta)}}

    def to_jsonl(self) -> str:
        """Header line + one sorted-key JSON object per sample."""
        lines = [json.dumps(self.header(), sort_keys=True)]
        lines.extend(json.dumps(sample, sort_keys=True)
                     for sample in self.samples)
        return "\n".join(lines) + "\n"

    def write_jsonl(self, path: str) -> str:
        from repro.harness.report import ensure_parent
        with open(ensure_parent(path), "w") as handle:
            handle.write(self.to_jsonl())
        return path


def load_jsonl(path: str) -> Tuple[Dict, List[Dict]]:
    """Read a ``repro-ts-v1`` file back as ``(header, samples)``."""
    with open(path) as handle:
        lines = [line for line in handle.read().splitlines() if line]
    if not lines:
        raise ValueError(f"{path}: empty time-series file")
    header = json.loads(lines[0])
    if header.get("schema") != TS_SCHEMA:
        raise ValueError(f"{path}: not a {TS_SCHEMA} file")
    return header, [json.loads(line) for line in lines[1:]]


def series_of(samples: List[Dict], metric: str
              ) -> List[Tuple[float, float]]:
    """``(sim_ns, value)`` pairs for one metric (absent samples skip)."""
    out = []
    for sample in samples:
        value = sample["metrics"].get(metric)
        if value is not None:
            out.append((sample["sim_ns"], value))
    return out


def render_series(samples: List[Dict], metric: str,
                  width: int = 60, height: int = 12) -> str:
    """ASCII metric-over-sim-time chart (the ``repro chart`` view)."""
    points = series_of(samples, metric)
    if not points:
        available = sorted({name for sample in samples
                            for name in sample["metrics"]})
        hint = ", ".join(available[:8])
        return (f"{metric}: no samples"
                + (f" (known metrics include: {hint}, ...)" if hint
                   else ""))
    values = [v for _t, v in points]
    lo, hi = min(values), max(values)
    span = hi - lo
    t_lo, t_hi = points[0][0], points[-1][0]
    t_span = (t_hi - t_lo) or 1.0
    grid = [[" "] * width for _ in range(height)]
    for t, v in points:
        col = min(width - 1, int((t - t_lo) / t_span * (width - 1)))
        row = 0 if span == 0 else \
            min(height - 1, int((v - lo) / span * (height - 1)))
        grid[height - 1 - row][col] = "*"
    lines = [f"{metric}  [{lo:g} .. {hi:g}]  "
             f"{len(points)} samples over {t_hi - t_lo:,.0f} sim-ns"]
    for index, row in enumerate(grid):
        edge = f"{hi:>10g} |" if index == 0 else (
            f"{lo:>10g} |" if index == height - 1 else
            " " * 10 + " |")
        lines.append(edge + "".join(row))
    lines.append(" " * 11 + "+" + "-" * width)
    lines.append(" " * 12 + f"{t_lo:,.0f} ns"
                 + " " * max(1, width - 24) + f"{t_hi:,.0f} ns")
    return "\n".join(lines)


# -- Prometheus text exposition ------------------------------------------
_PROM_BAD = re.compile(r"[^a-zA-Z0-9_]")


def _prom_name(name: str, prefix: str) -> str:
    return _PROM_BAD.sub("_", f"{prefix}_{name}")


def prometheus_exposition(snapshot: Dict, prefix: str = "repro") -> str:
    """Render a ``repro-stats-v1`` snapshot (from
    :meth:`MetricsRegistry.snapshot`) as Prometheus text exposition.

    Counters become ``counter`` metrics; histograms become
    ``summary``-style families (``_count`` / ``_sum`` plus quantile
    samples, exact like the snapshot's percentiles).
    """
    lines: List[str] = []
    typed = set()

    def declare(name: str, kind: str) -> None:
        if name not in typed:
            typed.add(name)
            lines.append(f"# TYPE {name} {kind}")

    for name in sorted(snapshot.get("counters", {})):
        prom = _prom_name(name, prefix)
        declare(prom, "counter")
        lines.append(f"{prom} {snapshot['counters'][name]}")
    for name in sorted(snapshot.get("histograms", {})):
        summary = snapshot["histograms"][name]
        prom = _prom_name(name, prefix)
        declare(prom, "summary")
        lines.append(f"{prom}_count {summary.get('count', 0)}")
        total = summary.get(
            "sum", summary.get("mean", 0.0) * summary.get("count", 0))
        lines.append(f"{prom}_sum {total}")
        for quantile, key in (("0.5", "p50"), ("0.95", "p95"),
                              ("0.99", "p99")):
            if key in summary:
                lines.append(
                    f'{prom}{{quantile="{quantile}"}} {summary[key]}')
    return "\n".join(lines) + ("\n" if lines else "")
