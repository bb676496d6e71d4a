"""Structured run logging: one JSONL event stream per run.

Before this module, diagnostics were ad-hoc ``print`` calls scattered
over the CLI and harness: a fault injection, an invariant violation,
a degraded-mode retry, and a sweep-worker death all rendered as
unrelated prose on stderr, impossible to correlate with the span
tracer or the time-series stream.  ``repro.obs.log`` replaces that
with one structured channel:

* every record is one JSON object per line (JSONL) with a fixed
  envelope — ``run_id``, ``seed``, ``seq``, ``sim_ns``,
  ``component``, ``event``, ``level`` — plus free-form fields;
* ``sim_ns`` is *simulation* time, so log records line up exactly
  with tracer spans and time-series samples from the same run.  No
  wall-clock timestamps are recorded: a same-seed run produces a
  byte-identical log;
* the logger is **disabled by default** and every emission site
  guards with one module-level check, so the cost of the
  instrumentation is a single ``is None`` test when no log is
  configured (the same discipline as ``tracer.enabled``).

Usage — the CLI configures a run log when ``--log PATH`` (or
``$REPRO_LOG``) is given::

    from repro.obs import log as runlog

    runlog.configure(path="run.jsonl", run_id="tpcc-janus-s7", seed=7)
    ...
    runlog.event("faults", "injected", sim_ns=sim.now,
                 kind="media_write_flip", addr=0x1240)
    runlog.close()

Library code never configures the log; it only calls
:func:`event` (a no-op unless something configured one).  Components
with a live simulator pass ``sim_ns``; harness-level events (worker
retries, report writes) omit it.
"""

import io
import json
from typing import Dict, List, Optional, Tuple

#: Severity order for :meth:`RunLog.min_level` filtering.
LEVELS = ("debug", "info", "warn", "error")


class RunLog:
    """A structured JSONL event sink for one run (or one campaign).

    Records are dicts rendered with sorted keys, one per line.  The
    envelope fields are stable and always first-class:

    ``run_id``
        Caller-chosen identifier tying the log to a trace/time-series
        file (the CLI derives it from workload/mode/seed — never from
        wall-clock, so logs stay byte-reproducible).
    ``seed``
        The deterministic seed of the run, when there is one.
    ``seq``
        Monotone per-log sequence number — the total order of events
        as emitted, including harness events with no ``sim_ns``.
    ``sim_ns``
        Simulation time of the event (omitted for harness events).
    ``component`` / ``event`` / ``level``
        Dotted component name (``faults``, ``harness.parallel``),
        short event name, severity.
    ``span``
        Optional correlation id shared with a tracer span.
    """

    def __init__(self, stream=None, path: Optional[str] = None,
                 run_id: Optional[str] = None,
                 seed: Optional[int] = None,
                 min_level: str = "debug"):
        if min_level not in LEVELS:
            raise ValueError(f"unknown log level {min_level!r}")
        self._own_stream = stream is None and path is not None
        if stream is not None:
            self._stream = stream
        elif path is not None:
            from repro.harness.report import ensure_parent
            self._stream = open(ensure_parent(path), "w")
        else:
            self._stream = io.StringIO()
        self.path = path
        self.run_id = run_id
        self.seed = seed
        self.seq = 0
        #: Bound envelope fields stamped onto every record until
        #: unbound (the soak harness binds the cycle index here so
        #: recovery/scrub events carry it without plumbing).
        self.context: Dict = {}
        self._threshold = LEVELS.index(min_level)

    # -- emission -------------------------------------------------------
    def event(self, component: str, event: str,
              sim_ns: Optional[float] = None, level: str = "info",
              span: Optional[int] = None, **fields) -> None:
        """Emit one structured record (sorted-key JSON, one line)."""
        if LEVELS.index(level) < self._threshold:
            return
        record: Dict = {"seq": self.seq, "component": component,
                        "event": event, "level": level}
        if self.run_id is not None:
            record["run_id"] = self.run_id
        if self.seed is not None:
            record["seed"] = self.seed
        if sim_ns is not None:
            record["sim_ns"] = sim_ns
        if span is not None:
            record["span"] = span
        for key, value in {**self.context, **fields}.items():
            if value is not None:
                record[key] = value
        self.seq += 1
        self._stream.write(json.dumps(record, sort_keys=True,
                                      default=str) + "\n")

    # -- lifecycle / inspection ----------------------------------------
    def flush(self) -> None:
        self._stream.flush()

    def close(self) -> None:
        self.flush()
        if self._own_stream:
            self._stream.close()

    def text(self) -> str:
        """The accumulated JSONL (in-memory logs only)."""
        if isinstance(self._stream, io.StringIO):
            return self._stream.getvalue()
        raise ValueError("text() is only available for in-memory logs")

    def records(self) -> List[Dict]:
        """Parsed records (in-memory logs only) — test convenience."""
        return [json.loads(line) for line in
                self.text().splitlines() if line]


class CapturedLog(RunLog):
    """A sweep worker's stand-in for the log it inherited, whose
    stream it shares with the parent: it keeps each event, with the
    fields bound when it fired, in ``kept``.  The parent emits them in
    task order, as if the task had run inline."""

    def __init__(self, parent: RunLog):
        super().__init__()
        self.context = dict(parent.context)
        self.kept: List[Tuple[Tuple, Dict]] = []

    def event(self, *args, **fields) -> None:
        self.kept.append((args, {**self.context, **fields}))


#: The process-wide current log, or ``None`` (logging disabled).
_CURRENT: Optional[RunLog] = None


def configure(path: Optional[str] = None, stream=None,
              run_id: Optional[str] = None,
              seed: Optional[int] = None,
              min_level: str = "debug") -> RunLog:
    """Install a :class:`RunLog` as the process-wide current log.

    Replaces (and closes) any previously configured log.  Returns the
    new log so callers can also hold a direct reference.
    """
    global _CURRENT
    if _CURRENT is not None:
        _CURRENT.close()
    _CURRENT = RunLog(stream=stream, path=path, run_id=run_id,
                      seed=seed, min_level=min_level)
    return _CURRENT


def current() -> Optional[RunLog]:
    """The configured log, or ``None`` when logging is disabled."""
    return _CURRENT


def capture() -> List[Tuple[Tuple, Dict]]:
    """In a forked sweep worker: swap the inherited log for a
    :class:`CapturedLog` without writing, flushing or closing it;
    returns the list its events go to (none when logging is off)."""
    global _CURRENT
    if _CURRENT is None:
        return []
    _CURRENT = CapturedLog(_CURRENT)
    return _CURRENT.kept


def close() -> None:
    """Close and uninstall the current log (no-op when disabled)."""
    global _CURRENT
    if _CURRENT is not None:
        _CURRENT.close()
        _CURRENT = None


def bind(**fields) -> None:
    """Stamp ``fields`` onto every subsequent record's envelope (e.g.
    ``bind(cycle=3)`` in the soak harness).  No-op when disabled."""
    if _CURRENT is not None:
        _CURRENT.context.update(fields)


def unbind(*names: str) -> None:
    """Remove previously bound envelope fields (missing names are
    ignored).  No-op when disabled."""
    if _CURRENT is not None:
        for name in names:
            _CURRENT.context.pop(name, None)


def event(component: str, event_name: str,
          sim_ns: Optional[float] = None, level: str = "info",
          span: Optional[int] = None, **fields) -> None:
    """Emit to the current log; a cheap no-op when none is configured.

    This is the call every instrumentation site uses — the disabled
    cost is one module-global ``is None`` check.
    """
    if _CURRENT is None:
        return
    _CURRENT.event(component, event_name, sim_ns=sim_ns, level=level,
                   span=span, **fields)
