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
from collections import defaultdict
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
    """Exact streaming summary: one count per distinct observed value.

    :meth:`observe` is a single dict update.  Count, sum, min and max
    are derived from the counts when read, and :meth:`percentile`
    interpolates over the sorted observations as if every one were
    kept, so a summary does not depend on the order the values
    arrived in.
    """

    __slots__ = ("name", "_counts")

    def __init__(self, name: str):
        self.name = name
        self._counts: Dict[float, int] = defaultdict(int)

    def observe(self, value: float) -> None:
        self._counts[value] += 1

    @property
    def count(self) -> int:
        return sum(self._counts.values())

    @property
    def total(self) -> float:
        # Integer observations (every sim-ns histogram) sum exactly,
        # so the result is the running float sum's, in any order.
        total = 0.0
        for value, n in self._counts.items():
            total += value * n
        return total

    @property
    def min(self) -> float:
        return min(self._counts) if self._counts else math.inf

    @property
    def max(self) -> float:
        return max(self._counts) if self._counts else -math.inf

    @property
    def mean(self) -> float:
        count = self.count
        return self.total / count if count else 0.0

    def percentile(self, p: float) -> float:
        """Linear interpolation at rank ``p/100 * (count - 1)`` of the
        sorted observations; ``0.0`` when nothing was observed."""
        return _percentile(sorted(self._counts.items()), self.count, p)

    def summary(self) -> Dict[str, float]:
        """Count, mean, sum, min and max and, once something was
        observed, p50/p95/p99; all exact."""
        count = self.count
        if not count:
            # No percentiles: an empty histogram would otherwise
            # report p50 = 0.0, reading as a latency.
            return {"count": 0, "mean": 0.0, "sum": 0.0,
                    "min": 0.0, "max": 0.0}
        ordered = sorted(self._counts.items())
        total = self.total
        return {
            "count": count,
            "mean": total / count,
            "sum": total,
            "min": ordered[0][0],
            "max": ordered[-1][0],
            "p50": _percentile(ordered, count, 50),
            "p95": _percentile(ordered, count, 95),
            "p99": _percentile(ordered, count, 99),
        }


def _percentile(ordered, count: int, p: float) -> float:
    """Percentile ``p`` of ``count`` observations given as sorted
    ``(value, n)`` pairs."""
    if not count:
        return 0.0
    if count == 1:
        # The observation itself: an int stays an int in exports.
        return ordered[0][0]
    rank = (p / 100.0) * (count - 1)
    lo = int(math.floor(rank))
    hi = min(lo + 1, count - 1)
    frac = rank - lo
    # Walk the distinct values in order: ``seen`` observations lie at
    # or below ``value``, so ranks ``< seen`` read ``value``.
    low = high = None
    seen = 0
    for value, n in ordered:
        seen += n
        if low is None and lo < seen:
            low = value
        if hi < seen:
            high = value
            break
    return low * (1 - frac) + high * frac


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
