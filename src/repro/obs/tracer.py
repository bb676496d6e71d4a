"""Structured span/event tracing with near-zero disabled overhead.

The simulator's components hold a reference to one :class:`Tracer`
(or the shared :data:`NULL_TRACER`).  Hot paths guard every emission
with a single attribute lookup::

    if self.tracer.enabled:
        self.tracer.complete("aes", "bmo", ("bmo", "encryption"),
                             start_ns=t0, dur_ns=now - t0)

Events are stored as plain dicts in a normalized, Chrome-trace-like
shape with **nanosecond** timestamps::

    {"name": ..., "cat": ..., "ph": "X" | "i" | "C",
     "ts": <ns>, "dur": <ns, "X" only>,
     "track": (<process name>, <thread name>), "args": {...}}

``track`` identifies the timeline row: a ``(process, thread)`` pair of
human-readable names.  ``repro.obs.chrome_trace`` maps tracks to the
integer ``pid``/``tid`` the Chrome trace-event format wants and emits
the matching metadata records, so the same events open directly in
``ui.perfetto.dev``.
"""

from typing import Dict, List, Optional, Tuple

Track = Tuple[str, str]


class NullTracer:
    """The disabled tracer: every emission is a no-op.

    ``enabled`` is a plain class attribute, so the hot-path guard
    ``if tracer.enabled:`` costs one attribute lookup and no call.
    """

    enabled = False
    events: List[dict] = []  # always empty; shared intentionally

    def complete(self, *args, **kwargs) -> None:
        pass

    def instant(self, *args, **kwargs) -> None:
        pass

    def counter(self, *args, **kwargs) -> None:
        pass

    def __len__(self) -> int:
        return 0


#: Shared disabled tracer — the default for every component.
NULL_TRACER = NullTracer()


class Tracer:
    """Collects normalized span/instant/counter events.

    A tracer records from construction (the CLI builds one when
    ``--trace`` is given); tracing off is :data:`NULL_TRACER`.
    """

    enabled = True

    def __init__(self) -> None:
        self.events: List[dict] = []

    def __len__(self) -> int:
        return len(self.events)

    # -- emission -------------------------------------------------------
    def complete(self, name: str, cat: str, track: Track,
                 start_ns: float, dur_ns: float,
                 args: Optional[Dict] = None) -> None:
        """A span: work named ``name`` occupied ``track`` for
        ``[start_ns, start_ns + dur_ns)``."""
        event = {"name": name, "cat": cat, "ph": "X",
                 "ts": start_ns, "dur": dur_ns, "track": track}
        if args:
            event["args"] = args
        self.events.append(event)

    def instant(self, name: str, cat: str, track: Track, ts_ns: float,
                args: Optional[Dict] = None) -> None:
        """A zero-duration marker (IRB hit/miss, invalidation, ...)."""
        event = {"name": name, "cat": cat, "ph": "i",
                 "ts": ts_ns, "track": track}
        if args:
            event["args"] = args
        self.events.append(event)

    def counter(self, name: str, track: Track, ts_ns: float,
                values: Dict[str, float]) -> None:
        """A sampled counter series (write-queue occupancy, ...)."""
        self.events.append({"name": name, "cat": "counter", "ph": "C",
                            "ts": ts_ns, "track": track,
                            "args": dict(values)})

    # -- queries --------------------------------------------------------
    def spans(self, cat: Optional[str] = None,
              name: Optional[str] = None) -> List[dict]:
        """Stored complete ("X") events, optionally filtered."""
        return [e for e in self.events
                if e["ph"] == "X"
                and (cat is None or e["cat"] == cat)
                and (name is None or e["name"] == name)]
