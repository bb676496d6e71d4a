"""Central metrics registry: counters, histograms, snapshots.

One hierarchy for every statistic the simulator produces.  Components
register a :class:`MetricsScope` (``registry.scope("irb")``) and create
counters/histograms inside it; the registry can then take a
point-in-time :meth:`MetricsRegistry.snapshot` (the ``--stats`` JSON)
and diff two snapshots with :meth:`MetricsRegistry.delta`.  A
component built without a registry gets a free-standing
``MetricsScope(name)`` with the same ``.counters`` / ``.histograms``
dicts and ``counter()`` / ``histogram()`` / ``as_dict()`` methods.

Histograms are *exact*: each keeps one count per distinct observed
value, so every percentile is the order statistic of every
observation, whatever their order.  Memory grows with the number of
distinct values, not with the number of observations.  The observed
values are integer sim-ns (or queue depths) and repeat heavily: the
benchmark cells see at most 49 distinct values per histogram.  The
largest measured is the write queue's residency on an 8-core btree
run under ``ideal``: 456 distinct values in 1,124 observations at 24
transactions per core, 2,837 in 29,339 at 800.  Its 128 entries and
150 ns channel writes cap a residency at 19,200 ns.

Hot-path convention: ``scope.counter(name)`` / ``scope.histogram(name)``
are get-or-create lookups keyed by string — cheap, but not free when
called once per simulated write.  Components on the write critical
path resolve their handles **once at construction** (``self._c_hits =
stats.counter("hits")``) and call ``.add()`` / ``.observe()`` on the
cached handle; see ``docs/performance.md``.
"""

import math
from typing import Dict, Optional


class Counter:
    """A named monotonically-increasing counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def add(self, amount: int = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:
        return f"{self.name}={self.value}"


class Histogram:
    """Exact streaming summary: count, sum, min, max and one count per
    distinct observed value.

    :meth:`percentile` interpolates over the sorted observations as if
    every one were kept, so a summary does not depend on the order the
    values arrived in.
    """

    __slots__ = ("name", "count", "total", "min", "max", "_counts")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._counts: Dict[float, int] = {}

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        # Inline compares: two builtin min/max calls per observation
        # showed up in write-path dispatch profiles.
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        counts = self._counts
        counts[value] = counts.get(value, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Linear interpolation at rank ``p/100 * (count - 1)`` of the
        sorted observations; ``0.0`` when nothing was observed."""
        if not self.count:
            return 0.0
        if self.count == 1:
            # The observation itself: an int stays an int in exports.
            return self.max
        rank = (p / 100.0) * (self.count - 1)
        lo = int(math.floor(rank))
        hi = min(lo + 1, self.count - 1)
        frac = rank - lo
        # Walk the distinct values in order: ``seen`` observations lie
        # at or below ``value``, so ranks ``< seen`` read ``value``.
        counts = self._counts
        low = high = None
        seen = 0
        for value in sorted(counts):
            seen += counts[value]
            if low is None and lo < seen:
                low = value
            if hi < seen:
                high = value
                break
        return low * (1 - frac) + high * frac

    def summary(self) -> Dict[str, float]:
        """Count, mean, sum, min, max and, once something was
        observed, p50/p95/p99; all exact."""
        out = {
            "count": self.count,
            "mean": self.mean,
            "sum": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
        }
        # Percentiles only once something was observed: an empty
        # histogram would otherwise report p50 = 0.0, reading as a
        # latency.
        if self.count:
            out["p50"] = self.percentile(50)
            out["p95"] = self.percentile(95)
            out["p99"] = self.percentile(99)
        return out


class MetricsScope:
    """A namespaced bag of counters and histograms inside a registry.

    Exposes ``counters`` and ``histograms`` dicts keyed by short name.
    A scope built on its own stands alone (a component built outside a
    system).
    """

    def __init__(self, name: str = "stats"):
        self.name = name
        self.counters: Dict[str, Counter] = {}
        self.histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        if name not in self.counters:
            self.counters[name] = Counter(name)
        return self.counters[name]

    def histogram(self, name: str) -> Histogram:
        if name not in self.histograms:
            full = f"{self.name}.{name}" if self.name else name
            self.histograms[name] = Histogram(full)
        return self.histograms[name]

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
    """The hierarchical root: dotted-path scopes and snapshots."""

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
