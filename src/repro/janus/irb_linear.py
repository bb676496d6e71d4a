"""Linear-scan reference IRB — the pre-index implementation.

This is the O(n)-per-operation buffer the indexed
:class:`repro.janus.irb.IntermediateResultBuffer` replaced, kept with
*identical observable semantics* (including the documented
"address match wins, most-recently-created breaks ties" rule) for
three purposes:

* the equivalence property test (``tests/test_irb_equivalence.py``)
  drives both implementations with the same randomized operation
  sequence and asserts identical behavior;
* ``repro fuzz``'s IRB lockstep
  (:class:`repro.validate.oracles.IrbLockstep`) runs it beside the
  indexed buffer on every fuzzed trace;
* the speed-floor test (``tests/test_irb_speed.py``) checks that the
  indexed implementation stays at least 2x faster than this baseline
  at high occupancy.

It is **not** used on any simulation path.
"""

from typing import Callable, List, Optional

from repro.janus.irb import IrbEntry
from repro.obs.metrics import MetricsScope
from repro.obs.tracer import NULL_TRACER
from repro.sim import Simulator


class LinearScanIrb:
    """Reference buffer: every operation scans the entry list."""

    def __init__(self, sim: Simulator, capacity: int,
                 max_age_ns: float = 1_000_000.0,
                 stats=None, tracer=None):
        self.sim = sim
        self.capacity = capacity
        self.max_age_ns = max_age_ns
        self._entries: List[IrbEntry] = []
        self.stats = stats if stats is not None else MetricsScope("irb")
        self.tracer = tracer if tracer is not None else NULL_TRACER
        # Register the same base counters the indexed IRB caches, so
        # stats snapshots of the two implementations are comparable.
        for name in ("inserted", "merged", "dropped_full", "hits",
                     "misses", "consumed", "expired"):
            self.stats.counter(name)

    def __len__(self) -> int:
        return len(self._entries)

    # -- insertion ------------------------------------------------------
    def insert(self, entry: IrbEntry) -> Optional[IrbEntry]:
        self._expire_old()
        existing = self._find_mergeable(entry)
        if existing is not None:
            self._merge(existing, entry)
            self.stats.counter("merged").add()
            return existing
        if len(self._entries) >= self.capacity:
            self.stats.counter("dropped_full").add()
            return None
        entry.created_at = self.sim.now
        self._entries.append(entry)
        self.stats.counter("inserted").add()
        return entry

    def _find_mergeable(self, entry: IrbEntry) -> Optional[IrbEntry]:
        for existing in self._entries:
            if existing.key() != entry.key():
                continue
            if (existing.line_addr is not None
                    and entry.line_addr is not None):
                if existing.line_addr == entry.line_addr:
                    return existing
                continue
            if existing.data_seq == entry.data_seq:
                return existing
        return None

    @staticmethod
    def _merge(existing: IrbEntry, incoming: IrbEntry) -> None:
        existing.ctx.merge_from(incoming.ctx)
        if existing.line_addr is None:
            existing.line_addr = incoming.line_addr
        if existing.data is None:
            existing.data = incoming.data
        existing.complete = False

    # -- lookup by the arriving write -------------------------------------
    def match_write(self, thread_id: int, line_addr: int,
                    data: bytes) -> Optional[IrbEntry]:
        self._expire_old()
        best: Optional[IrbEntry] = None
        best_is_addr = False
        for entry in self._entries:
            if entry.thread_id != thread_id:
                continue
            if entry.line_addr is not None:
                if entry.line_addr == line_addr:
                    if (not best_is_addr or best is None
                            or entry.created_at >= best.created_at):
                        best = entry
                        best_is_addr = True
            elif (not best_is_addr and entry.data is not None
                    and entry.data == data):
                if best is None or entry.created_at >= best.created_at:
                    best = entry
        if best is not None:
            self.stats.counter("hits").add()
        else:
            self.stats.counter("misses").add()
        return best

    def consume(self, entry: IrbEntry) -> None:
        try:
            self._entries.remove(entry)
            self.stats.counter("consumed").add()
        except ValueError:
            pass

    # -- invalidation ------------------------------------------------------
    def invalidate_where(self, predicate: Callable[[IrbEntry], bool],
                         reason: str = "predicate") -> int:
        victims = [e for e in self._entries if predicate(e)]
        for victim in victims:
            self._entries.remove(victim)
        if victims:
            self.stats.counter(f"invalidated_{reason}").add(len(victims))
        return len(victims)

    def invalidate_line(self, line_addr: int) -> int:
        return self.invalidate_where(
            lambda e: e.line_addr == line_addr, reason="line")

    def invalidate_range(self, lo: int, hi: int) -> int:
        return self.invalidate_where(
            lambda e: e.line_addr is not None and lo <= e.line_addr < hi,
            reason="swap")

    def clear_thread(self, thread_id: int) -> int:
        return self.invalidate_where(
            lambda e: e.thread_id == thread_id, reason="thread_exit")

    # -- aging ----------------------------------------------------------------
    def _expire_old(self) -> None:
        if self.max_age_ns is None:
            return
        cutoff = self.sim.now - self.max_age_ns
        expired = [e for e in self._entries if e.created_at < cutoff]
        for entry in expired:
            self._entries.remove(entry)
        if expired:
            self.stats.counter("expired").add(len(expired))

    def entries(self) -> List[IrbEntry]:
        return list(self._entries)
