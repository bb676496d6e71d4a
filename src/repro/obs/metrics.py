"""Central metrics registry: counters, histograms, snapshots, exports.

One hierarchy for every statistic the simulator produces.  Components
register a :class:`MetricsScope` (``registry.scope("irb")``) and create
labeled counters/histograms inside it; the registry can then take a
point-in-time :meth:`MetricsRegistry.snapshot`, diff two snapshots
with :meth:`MetricsRegistry.delta`, and export everything as JSON or
CSV.  ``MetricsScope`` is API-compatible with the old
``repro.sim.stats.StatSet`` (``.counters`` / ``.histograms`` dicts,
``counter()`` / ``histogram()`` / ``as_dict()``), so all existing
call sites and tests keep working.

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
import json
import math
import weakref
from typing import Dict, List, Optional

from repro.common.rng import DeterministicRng

#: Default number of samples a histogram retains for percentiles.
DEFAULT_RESERVOIR_SIZE = 1024


def _split_metric(name: str) -> "tuple":
    """``scope.path.metric{labels}`` -> (``scope.path``, ``metric{labels}``).

    The metric (short) name is everything after the last dot *before*
    any label suffix; scope paths may themselves contain dots
    (``parallel.worker``), metric names by convention do not.
    """
    brace = name.find("{")
    base, suffix = (name, "") if brace < 0 \
        else (name[:brace], name[brace:])
    scope, sep, key = base.rpartition(".")
    if not sep:
        return "", base + suffix
    return scope, key + suffix


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
                 "reservoir_size", "_samples", "_rng", "_local_count")

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
        #: Samples observed *locally* (excludes folded-in summary
        #: counts, which carry no samples).  Algorithm R's admission
        #: probability must be k/local-seen: using the inflated
        #: ``count`` would under-admit real samples after a fold.
        self._local_count = 0

    def observe(self, value: float) -> None:
        self.count += 1
        self._local_count += 1
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
        # Reservoir full: keep each of the locally-seen samples with
        # equal probability k/local_count (Algorithm R).
        if self._rng is None:
            self._rng = DeterministicRng(0).stream(
                f"histogram:{self.name}")
        slot = self._rng.randrange(self._local_count)
        if slot < self.reservoir_size:
            self._samples[slot] = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def keeps_samples(self) -> bool:
        return self._samples is not None

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

    def merge_summary(self, summary: Dict[str, float]) -> None:
        """Fold another histogram's :meth:`summary` into this one.

        Used for cross-process metric fold-in: a worker ships its
        snapshot back and the parent merges count/total/min/max.  The
        *reservoir* cannot be merged from a summary — percentiles on a
        folded histogram reflect only locally-observed samples.

        Tolerant of sparse worker summaries: an empty one (count 0)
        is a no-op, and a summary missing min/max (a worker that
        never filled them in) falls back to its mean rather than
        leaving ``inf`` bounds behind.
        """
        count = summary.get("count", 0)
        if not count:
            return
        mean = summary.get("mean", 0.0)
        self.count += count
        # Prefer the exact running sum when the summary carries one;
        # mean * count loses the low bits of a long-run total.
        self.total += summary.get("sum", mean * count)
        low = summary.get("min", mean)
        high = summary.get("max", mean)
        self.min = min(self.min, mean if math.isinf(low) else low)
        self.max = max(self.max, mean if math.isinf(high) else high)

    @property
    def percentiles_approximate(self) -> bool:
        """True when the reservoir no longer holds *every* observed
        sample — it dropped local samples (Algorithm R eviction) or
        absorbed sample-less summary fold-ins — so percentiles are
        reservoir estimates, not exact order statistics.
        """
        if self._samples is None:
            return False
        return (self._local_count > len(self._samples)
                or self.count != self._local_count)

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
        # Percentiles only when the reservoir holds real samples: a
        # histogram populated purely by summary fold-ins would
        # otherwise report p50/p95/p99 = 0.0 — reading as a latency.
        if self._samples:
            out["p50"] = self.percentile(50)
            out["p95"] = self.percentile(95)
            out["p99"] = self.percentile(99)
            if self.percentiles_approximate:
                out["approximate"] = True
        return out


class MetricsScope:
    """A namespaced bag of counters and histograms inside a registry.

    Drop-in compatible with the old ``StatSet``: exposes ``counters``
    and ``histograms`` dicts keyed by short (label-free) name, and the
    same ``counter()`` / ``histogram()`` / ``as_dict()`` methods.
    Labeled variants of a metric live alongside the unlabeled one,
    keyed by ``name{k=v}``.
    """

    def __init__(self, name: str = "stats",
                 registry: Optional["MetricsRegistry"] = None):
        self.name = name
        #: The owning registry, held weakly: the registry owns its
        #: scopes, so a strong back-reference would make every registry
        #: a reference cycle that outlives its system.
        self.registry = None if registry is None \
            else weakref.proxy(registry)
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
        """Flat name -> value view (StatSet-compatible)."""
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
            self._scopes[name] = MetricsScope(name, registry=self)
        return self._scopes[name]

    def adopt(self, name: str, scope: MetricsScope) -> MetricsScope:
        """Register an externally-created scope (e.g. a legacy StatSet)."""
        scope.registry = weakref.proxy(self)
        self._scopes[name] = scope
        return scope

    def scopes(self) -> Dict[str, MetricsScope]:
        return dict(self._scopes)

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

    def fold(self, snapshot: Dict) -> None:
        """Merge a :meth:`snapshot` (typically from another process)
        into this registry's live metrics.

        Counters add; histograms merge their count/total/min/max via
        :meth:`Histogram.merge_summary`.  Snapshot keys are
        ``<scope>.<metric>`` — the split assumes dot-free metric
        names (the repo-wide convention), with any ``{label=...}``
        suffix kept out of the split.  This is the cross-process
        fold-in used by :mod:`repro.harness.parallel`: workers account
        locally, ship one snapshot, and the parent folds it in.
        """
        for name, value in snapshot.get("counters", {}).items():
            scope_name, key = _split_metric(name)
            scope = self.scope(scope_name)
            if key not in scope.counters:
                scope.counters[key] = Counter(key)
            scope.counters[key].add(value)
        for name, summary in snapshot.get("histograms", {}).items():
            scope_name, key = _split_metric(name)
            scope = self.scope(scope_name)
            if key not in scope.histograms:
                scope.histograms[key] = Histogram(name)
            scope.histograms[key].merge_summary(summary)

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
    def to_json(self, path: Optional[str] = None,
                meta: Optional[Dict] = None) -> str:
        text = json.dumps(self.snapshot(meta=meta), indent=2,
                          sort_keys=True)
        if path is not None:
            with open(path, "w") as handle:
                handle.write(text)
        return text

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
