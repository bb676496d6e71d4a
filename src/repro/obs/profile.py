"""Deterministic simulation profiler (``repro profile``).

Answers the question the event-core rewrite campaign needs answered
before touching anything: *where does simulation cost go?*  Two
complementary attributions, both derived from a single run:

* **Dispatch profile** — the :class:`~repro.sim.engine.Simulator`
  dispatch loop, with this profiler hooked in, classifies every
  dispatched callback into a stable *event-type* key
  (``subopschedule``, ``process:clwb``, ``event:bmo-subops``, ...)
  and records counts plus host wall-clock nanoseconds.  Counts are a
  pure function of the run (deterministic and byte-stable);
  wall-clock is host-measured and reported separately, never written
  into the byte-stable artifacts.
* **Component profile** — the span stream of an enabled
  :class:`~repro.obs.tracer.Tracer` is folded into per-track call
  stacks by interval containment, yielding per-``(track, name)``
  counts and cumulative / self **sim-time** nanoseconds, plus a
  Brendan-Gregg *folded stacks* rendering (``a;b;c <weight>``) that
  speedscope and standard flamegraph tooling load directly.

The profiler is attach-by-assignment: ``sim.profile = SimProfiler()``
is a hook on :meth:`Simulator.run`, the one dispatch loop.  The loop
reads it once per ``run()`` call and, when it is set, gives each
same-instant batch a timed drain that calls :meth:`SimProfiler.record`
per callback.  With no profiler the batch takes the bare drain, so
the disabled path does no per-event work.  The dispatch order is the
same either way, so a profile never changes what it measures
(pinned by ``tests/test_obs_overhead.py``).
"""

import re
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple

PROFILE_SCHEMA = "repro-profile-v1"

_NUMERIC = re.compile(r"^(0[xX][0-9a-fA-F]+|\d+(\.\d+)?)$")
#: Containment slack for float span arithmetic (sim-ns).
_EPS = 1e-6


def normalize_event_name(name: str) -> str:
    """Collapse a process/event name to a bounded-cardinality key.

    Strips call-site arguments (``timeout(15.0)`` -> ``timeout``),
    drops pure-numeric path segments (``clwb:0x180`` -> ``clwb``) and
    trailing instance digits (``program0`` -> ``program``), so keys
    aggregate across addresses/cores instead of exploding per line.
    """
    name = name.split("(", 1)[0]
    parts = []
    for token in name.split(":"):
        token = token.strip()
        if not token or _NUMERIC.match(token):
            continue
        stripped = token.rstrip("0123456789")
        parts.append(stripped or token)
    return ":".join(parts)


def classify_callback(fn: Callable) -> str:
    """Stable event-type key for one dispatched simulator callback."""
    owner = getattr(fn, "__self__", None)
    if owner is None:
        return f"fn:{getattr(fn, '__qualname__', repr(fn))}"
    kind = type(owner).__name__.lower()
    if kind == "simevent":
        kind = "event"
    name = normalize_event_name(getattr(owner, "name", "") or "")
    if not name or name == kind or name == "all_of":
        return kind
    return f"{kind}:{name}"


class SimProfiler:
    """Per-event-type dispatch accounting for one simulator run.

    Assign to ``sim.profile`` *before* running.  ``dispatch`` maps
    event-type key -> ``[count, wall_ns]``; counts are deterministic,
    wall-ns are host noise and excluded from :func:`profile_report`.
    """

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self.dispatch: Dict[str, List[int]] = {}
        self._key_cache: Dict[Tuple[type, str], str] = {}
        self.total_events = 0
        self.total_wall_ns = 0

    def record(self, fn: Callable, wall_ns: int) -> None:
        """Called by the dispatch loop's timed drain, once per event."""
        owner = getattr(fn, "__self__", None)
        if owner is None:
            key = classify_callback(fn)
        else:
            cache_key = (type(owner), getattr(owner, "name", "") or "")
            key = self._key_cache.get(cache_key)
            if key is None:
                key = self._key_cache[cache_key] = classify_callback(fn)
        entry = self.dispatch.get(key)
        if entry is None:
            entry = self.dispatch[key] = [0, 0]
        entry[0] += 1
        entry[1] += wall_ns
        self.total_events += 1
        self.total_wall_ns += wall_ns

    def rows(self) -> List[Dict]:
        """Dispatch rows ranked by count (deterministic order)."""
        return [
            {"key": key, "count": self.dispatch[key][0],
             "wall_ns": self.dispatch[key][1]}
            for key in sorted(self.dispatch,
                              key=lambda k: (-self.dispatch[k][0], k))
        ]


# -- span folding ---------------------------------------------------------
class _Frame:
    __slots__ = ("name", "start", "end", "dur", "child_ns")

    def __init__(self, name: str, start: float, dur: float):
        self.name = name
        self.start = start
        self.end = start + dur
        self.dur = dur
        self.child_ns = 0.0


def fold_spans(events: Iterable[dict]
               ) -> Tuple[Dict[str, float], Dict[Tuple, List[float]]]:
    """Nest tracer spans by interval containment, per track.

    Returns ``(folded, frames)``:

    * ``folded`` — folded-stack path (``process;thread;a;b``) ->
      total *self* sim-ns along that path;
    * ``frames`` — ``(process, thread, name)`` ->
      ``[count, cum_ns, self_ns]`` aggregates.

    Spans on the same track that merely overlap (concurrent
    writebacks on one core) are siblings, not parents: a span only
    becomes a child when its interval is contained in the top of
    stack.  Sorting is by ``(start, -dur, emission index)``, so the
    nesting — and therefore every output byte — is a deterministic
    function of the span set.
    """
    per_track: Dict[Tuple[str, str], List[Tuple]] = {}
    for index, event in enumerate(events):
        if event.get("ph") != "X":
            continue
        track = tuple(event["track"])
        per_track.setdefault(track, []).append(
            (event["ts"], -event["dur"], index, event))

    folded: Dict[str, float] = {}
    frames: Dict[Tuple, List[float]] = {}

    for track in sorted(per_track):
        prefix = f"{track[0]};{track[1]}"
        stack: List[_Frame] = []
        path: List[str] = []

        def pop() -> None:
            frame = stack.pop()
            self_ns = max(0.0, frame.dur - frame.child_ns)
            key = ";".join([prefix] + path)
            folded[key] = folded.get(key, 0.0) + self_ns
            path.pop()
            row = frames.setdefault((track[0], track[1], frame.name),
                                    [0, 0.0, 0.0])
            row[0] += 1
            row[1] += frame.dur
            row[2] += self_ns
            if stack:
                stack[-1].child_ns += frame.dur

        for start, _negdur, _index, event in sorted(per_track[track]):
            dur = event["dur"]
            end = start + dur
            while stack and not (stack[-1].start <= start + _EPS
                                 and end <= stack[-1].end + _EPS):
                pop()
            stack.append(_Frame(event["name"], start, dur))
            path.append(event["name"])
        while stack:
            pop()
    return folded, frames


def folded_stacks_text(folded: Dict[str, float]) -> str:
    """Folded stacks in the ``stack;frames;leaf weight`` flat format
    (speedscope's "Brendan Gregg folded stacks" importer).  Weights
    are integer sim-ns; zero-weight paths are dropped."""
    lines = []
    for path in sorted(folded):
        weight = int(round(folded[path]))
        if weight > 0:
            lines.append(f"{path} {weight}")
    return "\n".join(lines) + ("\n" if lines else "")


def component_rows(frames: Dict[Tuple, List[float]]) -> List[Dict]:
    """Per-(track, name) aggregates ranked by self sim-ns."""
    rows = [
        {"process": process, "thread": thread, "name": name,
         "count": int(stats[0]),
         "cum_ns": round(stats[1], 3),
         "self_ns": round(stats[2], 3)}
        for (process, thread, name), stats in frames.items()
    ]
    rows.sort(key=lambda r: (-r["self_ns"], -r["cum_ns"], r["process"],
                             r["thread"], r["name"]))
    return rows


# -- report assembly ------------------------------------------------------
def profile_report(profiler: Optional[SimProfiler], tracer,
                   meta: Optional[Dict] = None) -> Dict:
    """Assemble the deterministic (byte-stable) profile report.

    Everything in the returned dict is a pure function of the
    simulated run: dispatch *counts*, component sim-ns, folded
    stacks.  Host wall-clock stays on the live :class:`SimProfiler`
    object for the CLI's table — it is never written here, which is
    what lets same-seed reports compare byte-identical.
    """
    folded, frames = fold_spans(tracer.events if tracer else [])
    report = {
        "schema": PROFILE_SCHEMA,
        "meta": dict(meta or {}),
        "dispatch": [
            {"key": row["key"], "count": row["count"]}
            for row in (profiler.rows() if profiler else [])
        ],
        "components": component_rows(frames),
        "folded": folded_stacks_text(folded),
    }
    if profiler is not None:
        report["meta"]["dispatched_events"] = profiler.total_events
    return report


def render_hotspots(report: Dict, profiler: Optional[SimProfiler] = None,
                    top: int = 12) -> str:
    """The ranked hotspot table ``repro profile`` prints.

    Component ranks and sim-ns come from the deterministic report;
    the dispatch section appends live host wall-clock (marked as
    such) when the profiler that measured it is still at hand.
    """
    meta = report.get("meta", {})
    title = " x ".join(str(meta[k]) for k in ("workload", "mode")
                       if k in meta) or "run"
    lines = [f"repro profile — {title}"
             + (f"  ({meta['elapsed_ns']:,.0f} sim-ns, "
                f"{meta.get('dispatched_events', 0):,} events)"
                if "elapsed_ns" in meta else "")]
    components = report.get("components", [])
    total_self = sum(r["self_ns"] for r in components) or 1.0
    lines.append(f"{'rank':>4s} {'track':24s} {'span':20s} "
                 f"{'count':>8s} {'self sim-ns':>14s} "
                 f"{'cum sim-ns':>14s} {'self%':>6s}")
    for rank, row in enumerate(components[:top], start=1):
        track = f"{row['process']}/{row['thread']}"
        lines.append(
            f"{rank:>4d} {track:24s} {row['name']:20s} "
            f"{row['count']:>8d} {row['self_ns']:>14,.0f} "
            f"{row['cum_ns']:>14,.0f} "
            f"{100.0 * row['self_ns'] / total_self:>5.1f}%")
    if len(components) > top:
        lines.append(f"     ... {len(components) - top} more "
                     f"(full list in the report JSON)")
    dispatch = report.get("dispatch", [])
    if dispatch:
        lines.append("")
        lines.append("dispatch by event type"
                     + (" (wall-clock is host-measured, "
                        "not byte-stable)" if profiler else ""))
        header = f"{'key':32s} {'count':>10s}"
        if profiler:
            header += f" {'wall ms':>10s} {'ns/event':>9s}"
        lines.append(header)
        wall = {row["key"]: row["wall_ns"]
                for row in profiler.rows()} if profiler else {}
        for row in dispatch[:top]:
            line = f"{row['key']:32s} {row['count']:>10,d}"
            if profiler:
                wall_ns = wall.get(row["key"], 0)
                line += (f" {wall_ns / 1e6:>10.2f}"
                         f" {wall_ns / max(1, row['count']):>9,.0f}")
            lines.append(line)
    return "\n".join(lines)
