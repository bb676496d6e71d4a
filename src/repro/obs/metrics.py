"""Central metrics registry: counters, histograms, snapshots, exports.

One hierarchy for every statistic the simulator produces.  Components
register a :class:`MetricsScope` (``registry.scope("irb")``) and create
labeled counters/histograms inside it; the registry can then take a
point-in-time :meth:`MetricsRegistry.snapshot`, diff two snapshots
with :meth:`MetricsRegistry.delta`, and export everything as CSV.  A
component built without a registry gets a free-standing
``MetricsScope(name)`` with the same ``.counters`` / ``.histograms``
dicts and ``counter()`` / ``histogram()`` / ``as_dict()`` methods.

Histograms use *bounded reservoir sampling* (Algorithm R, seeded from
``repro.common.rng`` by metric name) so arbitrarily long runs keep a
constant memory footprint while ``percentile()`` stays available.

Hot-path convention: ``scope.counter(name)`` / ``scope.histogram(name)``
are get-or-create lookups keyed by string — cheap, but not free when
called once per simulated write.  Components on the write critical
path resolve their handles **once at construction** (``self._c_hits =
stats.counter("hits")``) and call ``.add()`` / ``.observe()`` on the
cached handle; see ``docs/performance.md``.
"""

import csv
import io
import math
from typing import Dict, List, Optional

from repro.common.rng import DeterministicRng

#: Default number of samples a histogram retains for percentiles.
DEFAULT_RESERVOIR_SIZE = 1024


def _labels_suffix(labels: Optional[Dict[str, str]]) -> str:
    if not labels:
        return ""
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return "{" + inner + "}"


class Counter:
    """A named monotonically-increasing counter."""

    __slots__ = ("name", "value", "labels")

    def __init__(self, name: str, labels: Optional[Dict[str, str]] = None):
        self.name = name
        self.value = 0
        self.labels = dict(labels) if labels else None

    def add(self, amount: int = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:
        return f"{self.name}{_labels_suffix(self.labels)}={self.value}"


class Histogram:
    """Streaming mean/min/max summary plus a bounded sample reservoir.

    ``keep_samples=True`` (the default) retains at most
    ``reservoir_size`` samples via reservoir sampling — Algorithm R,
    driven by a :class:`DeterministicRng` stream derived from the
    histogram's name, so runs stay bit-reproducible.  Memory is O(k)
    no matter how many samples are observed.

    ``keep_samples=False`` discards samples entirely; in that case
    :meth:`percentile` returns ``None`` (not ``0.0``) so callers
    cannot silently misread "samples were discarded" as a latency.
    """

    __slots__ = ("name", "labels", "count", "total", "min", "max",
                 "reservoir_size", "_samples", "_rng")

    def __init__(self, name: str, keep_samples: bool = True,
                 reservoir_size: int = DEFAULT_RESERVOIR_SIZE,
                 labels: Optional[Dict[str, str]] = None):
        self.name = name
        self.labels = dict(labels) if labels else None
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.reservoir_size = reservoir_size
        self._samples: Optional[List[float]] = [] if keep_samples else None
        self._rng = None  # created lazily on first reservoir eviction

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        # Inline compares: two builtin min/max calls per observation
        # showed up in write-path dispatch profiles.
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if self._samples is None:
            return
        if len(self._samples) < self.reservoir_size:
            self._samples.append(value)
            return
        # Reservoir full: keep each of the samples seen with equal
        # probability k/count (Algorithm R).
        if self._rng is None:
            self._rng = DeterministicRng(0).stream(
                f"histogram:{self.name}")
        slot = self._rng.randrange(self.count)
        if slot < self.reservoir_size:
            self._samples[slot] = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> Optional[float]:
        """Linear-interpolated percentile over the retained reservoir.

        Returns ``None`` when the histogram was created with
        ``keep_samples=False`` — there is nothing to interpolate, and
        returning ``0.0`` would read as a real (zero) latency.
        """
        if self._samples is None:
            return None
        if not self._samples:
            return 0.0
        data = sorted(self._samples)
        if len(data) == 1:
            return data[0]
        rank = (p / 100.0) * (len(data) - 1)
        lo = int(math.floor(rank))
        hi = min(lo + 1, len(data) - 1)
        frac = rank - lo
        return data[lo] * (1 - frac) + data[hi] * frac

    @property
    def percentiles_approximate(self) -> bool:
        """True when the reservoir no longer holds *every* observed
        sample (Algorithm R evicted some), so percentiles are reservoir
        estimates, not exact order statistics.
        """
        if self._samples is None:
            return False
        return self.count > len(self._samples)

    def summary(self) -> Dict[str, float]:
        """Exact running aggregates plus (possibly sampled) percentiles.

        ``count`` / ``sum`` / ``min`` / ``max`` / ``mean`` are exact —
        tracked streaming, independent of the reservoir.  Percentiles
        come from the reservoir; once it has dropped samples they are
        estimates, flagged with ``approximate: true`` so exports never
        silently present sampled percentiles as exact.
        """
        out = {
            "count": self.count,
            "mean": self.mean,
            "sum": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
        }
        # Percentiles only when the reservoir holds samples: an empty
        # histogram would otherwise report p50 = 0.0, reading as a
        # latency.
        if self._samples:
            out["p50"] = self.percentile(50)
            out["p95"] = self.percentile(95)
            out["p99"] = self.percentile(99)
            if self.percentiles_approximate:
                out["approximate"] = True
        return out


class MetricsScope:
    """A namespaced bag of counters and histograms inside a registry.

    Exposes ``counters`` and ``histograms`` dicts keyed by short
    (label-free) name.  Labeled variants of a metric live alongside
    the unlabeled one, keyed by ``name{k=v}``.  A scope built on its
    own stands alone (a component built outside a system).
    """

    def __init__(self, name: str = "stats"):
        self.name = name
        self.counters: Dict[str, Counter] = {}
        self.histograms: Dict[str, Histogram] = {}

    def counter(self, name: str,
                labels: Optional[Dict[str, str]] = None) -> Counter:
        key = name + _labels_suffix(labels)
        if key not in self.counters:
            self.counters[key] = Counter(name, labels=labels)
        return self.counters[key]

    def histogram(self, name: str,
                  labels: Optional[Dict[str, str]] = None,
                  keep_samples: bool = True,
                  reservoir_size: int = DEFAULT_RESERVOIR_SIZE
                  ) -> Histogram:
        key = name + _labels_suffix(labels)
        if key not in self.histograms:
            full = f"{self.name}.{name}" if self.name else name
            self.histograms[key] = Histogram(
                full, keep_samples=keep_samples,
                reservoir_size=reservoir_size, labels=labels)
        return self.histograms[key]

    def as_dict(self) -> Dict[str, float]:
        """Flat name -> value view: counters, histogram mean/count."""
        out: Dict[str, float] = {}
        for name, counter in self.counters.items():
            out[name] = counter.value
        for name, hist in self.histograms.items():
            out[f"{name}.mean"] = hist.mean
            out[f"{name}.count"] = hist.count
        return out


class MetricsRegistry:
    """The hierarchical root: dotted-path scopes, snapshots, exports."""

    def __init__(self) -> None:
        self._scopes: Dict[str, MetricsScope] = {}

    def scope(self, name: str) -> MetricsScope:
        """Return (creating if needed) the scope at dotted path ``name``."""
        if name not in self._scopes:
            self._scopes[name] = MetricsScope(name)
        return self._scopes[name]

    # -- flat views -----------------------------------------------------
    def as_flat_dict(self) -> Dict[str, float]:
        """``scope.metric`` -> value, matching the historical
        ``f"{prefix}.{k}"`` keys the harness exported."""
        out: Dict[str, float] = {}
        for scope_name, scope in sorted(self._scopes.items()):
            for key, value in scope.as_dict().items():
                out[f"{scope_name}.{key}"] = value
        return out

    # -- snapshots ------------------------------------------------------
    def snapshot(self, meta: Optional[Dict] = None) -> Dict:
        """Point-in-time copy of every metric, JSON-serialisable."""
        counters: Dict[str, int] = {}
        histograms: Dict[str, Dict[str, float]] = {}
        for scope_name, scope in sorted(self._scopes.items()):
            for key, counter in scope.counters.items():
                counters[f"{scope_name}.{key}"] = counter.value
            for key, hist in scope.histograms.items():
                histograms[f"{scope_name}.{key}"] = hist.summary()
        snap = {"schema": "repro-stats-v1",
                "counters": counters, "histograms": histograms}
        if meta:
            snap["meta"] = dict(meta)
        return snap

    @staticmethod
    def delta(before: Dict, after: Dict) -> Dict:
        """Difference of two snapshots (``after - before``).

        Counters subtract; histograms report the sample-count delta
        and the mean of just the *new* samples (from total/count
        deltas).  Metrics present on only one side appear with the
        other side treated as zero/absent.
        """
        counters: Dict[str, int] = {}
        names = set(before.get("counters", {})) | \
            set(after.get("counters", {}))
        for name in sorted(names):
            diff = after.get("counters", {}).get(name, 0) \
                - before.get("counters", {}).get(name, 0)
            counters[name] = diff
        histograms: Dict[str, Dict[str, float]] = {}
        hnames = set(before.get("histograms", {})) | \
            set(after.get("histograms", {}))
        for name in sorted(hnames):
            b = before.get("histograms", {}).get(name, {})
            a = after.get("histograms", {}).get(name, {})
            dcount = a.get("count", 0) - b.get("count", 0)
            btotal = b.get("mean", 0.0) * b.get("count", 0)
            atotal = a.get("mean", 0.0) * a.get("count", 0)
            histograms[name] = {
                "count": dcount,
                "mean": (atotal - btotal) / dcount if dcount else 0.0,
            }
        return {"schema": "repro-stats-delta-v1",
                "counters": counters, "histograms": histograms}

    # -- exports --------------------------------------------------------
    def to_csv(self, path: Optional[str] = None) -> str:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["metric", "field", "value"])
        snap = self.snapshot()
        for name, value in snap["counters"].items():
            writer.writerow([name, "count", value])
        for name, summary in snap["histograms"].items():
            for field in sorted(summary):
                writer.writerow([name, field, summary[field]])
        text = buffer.getvalue()
        if path is not None:
            with open(path, "w") as handle:
                handle.write(text)
        return text
