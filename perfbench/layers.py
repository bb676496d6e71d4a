"""Per-layer host attribution for the traced run.

Two instruments, both owned by the benchmark:

* :class:`LayerProfile` wraps ``cProfile`` and charges every function's
  self time to the ``repro.<package>`` that owns its source file.  C
  builtins (``hashlib``, ``dict.get``, ...) have no file; their self
  time is split over their callers and charged to each caller's layer.
* :class:`Spans` records host-time spans (name, start, end, parent)
  around the public calls the benchmark makes into the simulator.
  Spans stay in memory until :meth:`Spans.write`.
"""

import cProfile
import functools
import json
import os
import pstats
import time
from contextlib import contextmanager
from typing import Dict, List, Optional

#: The layers a traced run reports, in report order.  Every other
#: ``repro`` package (common, compiler, harness, faults, validate),
#: the standard library and this benchmark's own driver are ``other``.
LAYERS = ("sim", "bmo", "crypto", "janus", "mem", "core", "consistency",
          "workloads", "obs", "other")

_MARKER = os.sep + "repro" + os.sep


def layer_of(filename: str) -> str:
    """The layer that owns ``filename`` (a code object's file)."""
    head, sep, tail = filename.rpartition(_MARKER)
    if not sep:
        return "other"
    package = tail.split(os.sep, 1)[0]
    return package if package in LAYERS else "other"


def _is_builtin(func) -> bool:
    return func[0] == "~"


class LayerProfile:
    """cProfile over the timed sections of traced rounds only."""

    def __init__(self):
        self._profile = cProfile.Profile()

    @contextmanager
    def active(self):
        self._profile.enable()
        try:
            yield
        finally:
            self._profile.disable()

    def attribute(self) -> Dict[str, Dict[str, float]]:
        """``{"self_s": {layer: s}, "calls": {layer: n}}``.

        The self-time shares sum to the profile's total self time.
        ``calls`` counts calls into Python functions each layer owns.
        """
        self_s = dict.fromkeys(LAYERS, 0.0)
        calls = dict.fromkeys(LAYERS, 0)
        stats = pstats.Stats(self._profile).stats
        for func, (_, ncalls, tottime, _, callers) in stats.items():
            if not _is_builtin(func):
                layer = layer_of(func[0])
                self_s[layer] += tottime
                calls[layer] += ncalls
                continue
            # A builtin's self time goes to the layers that called it,
            # in proportion to the time spent under each caller.
            shares = {}
            for caller, caller_stats in callers.items():
                owner = "other" if _is_builtin(caller) \
                    else layer_of(caller[0])
                shares[owner] = shares.get(owner, 0.0) + caller_stats[2]
            spent = sum(shares.values())
            if spent <= 0.0:
                self_s["other"] += tottime
                continue
            for owner, share in shares.items():
                self_s[owner] += tottime * share / spent
        return {"self_s": self_s, "calls": calls}


class Spans:
    """In-memory host-time spans around public simulator calls.

    A disabled recorder hands back the callable unchanged, so the
    untraced path carries no span cost at all.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.records: List[Dict] = []
        self._open: List[int] = []
        self.attrs: Dict = {}

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        index = len(self.records)
        parent = self._open[-1] if self._open else None
        record = {"id": index, "name": name, "parent": parent,
                  "start": time.perf_counter(), "end": None}
        record.update(self.attrs)
        self.records.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            record["end"] = time.perf_counter()

    def wrap(self, name: str, fn):
        """``fn`` with a span around every call.

        Only for functions that do their work when called: a wrapper
        around a generator function would time the generator's
        creation, not its execution.
        """
        if not self.enabled:
            return fn

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return spanned

    def durations(self, name: str, **match) -> List[float]:
        """Durations (s) of every closed span called ``name`` whose
        attributes equal ``match``."""
        return [r["end"] - r["start"] for r in self.records
                if r["name"] == name and r["end"] is not None
                and all(r.get(k) == v for k, v in match.items())]

    def self_times(self) -> Dict[str, float]:
        """Host self time (s) per span name: duration minus the part
        covered by child spans."""
        child = [0.0] * len(self.records)
        for record in self.records:
            if record["parent"] is not None and record["end"] is not None:
                child[record["parent"]] += record["end"] - record["start"]
        out: Dict[str, float] = {}
        for record in self.records:
            if record["end"] is None:
                continue
            own = record["end"] - record["start"] - child[record["id"]]
            out[record["name"]] = out.get(record["name"], 0.0) + own
        return out

    def write(self, path: str, meta: Optional[Dict] = None) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            json.dump({"meta": meta or {}, "spans": self.records,
                       "self_s": self.self_times()}, handle)
