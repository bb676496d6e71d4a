"""The Intermediate Result Buffer (IRB).

The IRB lives in the memory controller and holds the outputs of
pre-executed sub-operations, keyed by ``(ThreadID, PRE_ID,
TransactionID)`` and the physical line address (paper Fig. 7c).  Its
contract (§3.2, §4.3.1):

1. pre-execution results never touch processor/memory state — they
   stay in IRB entries (here: a :class:`repro.bmo.base.BmoContext`);
2. stale results are detected and invalidated — via the stored data
   copy (compared against the arriving write) and via metadata-change
   notifications from the BMOs;
3. bounded capacity: newer insertions are dropped when full (§4.3.2);
4. entries age out, and a terminating thread's entries are cleared
   (§4.6).

Every operation on the write critical path is index-backed instead of
scanning the buffer (the hardware analogue is a CAM; see
``docs/performance.md``):

* ``_order`` — insertion-ordered dict of resident entries.  Because
  simulation time is monotone, insertion order *is* ``created_at``
  order, so aging pops expired entries from the front in O(expired).
* ``_by_key`` — ``key() -> entries`` for O(bucket) merge lookup.
* ``_by_thread_line`` — ``(thread_id, line_addr) -> entries`` so an
  arriving write's address match is a dict probe plus a scan of the
  (tiny) bucket, picking the highest ``link_seq`` — merges can append
  older entries to a bucket, so bucket order alone is not creation
  order.
* ``_data_only`` — per-thread address-less entries for the byte-compare
  fallback match.
* ``_by_line`` / ``_by_thread`` — invalidation indexes for
  ``invalidate_line`` and ``clear_thread``.

The inner ``Dict[IrbEntry, None]`` buckets are insertion-ordered sets
with O(1) add/remove (``IrbEntry`` hashes by identity).  A
linear-scan reference implementation with identical semantics is kept
in ``tests/irb_reference.py`` for the equivalence property test and
the speed-floor test.
"""

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.bmo.base import BmoContext
from repro.obs.metrics import MetricsScope
from repro.obs.tracer import NULL_TRACER
from repro.sim import Simulator


@dataclass(eq=False)
class IrbEntry:
    """One line-granularity pre-execution result.

    Entries compare (and hash) by identity: two buffer slots holding
    equal field values are still distinct slots.
    """

    pre_id: int
    thread_id: int
    transaction_id: int
    line_addr: Optional[int]
    #: Copy of the data used for pre-execution (None for addr-only).
    data: Optional[bytes]
    ctx: BmoContext = field(default_factory=BmoContext)
    created_at: float = 0.0
    #: Complete bit: all sub-ops runnable with the entry's inputs done.
    complete: bool = False
    #: Event that fires when in-flight pre-execution finishes.
    inflight: Optional[object] = field(default=None, repr=False)
    #: For address-less data entries: ordinal within the request.
    data_seq: int = 0
    #: Insertion rank assigned by the indexed buffer at link time —
    #: the entry's position in the linear reference's list.  A merge
    #: re-files an entry under new index keys but never changes it.
    link_seq: int = field(default=0, repr=False)

    def key(self) -> Tuple[int, int, int]:
        return (self.thread_id, self.pre_id, self.transaction_id)


#: An insertion-ordered set of entries (dict keys, values unused).
_EntrySet = Dict[IrbEntry, None]


class IntermediateResultBuffer:
    """Bounded, fully indexed buffer of :class:`IrbEntry`."""

    #: Trace track shared by all IRB events.
    TRACK = ("janus", "irb")

    def __init__(self, sim: Simulator, capacity: int,
                 max_age_ns: float = 1_000_000.0,
                 stats=None, tracer=None):
        self.sim = sim
        self.capacity = capacity
        self.max_age_ns = max_age_ns
        self.stats = stats if stats is not None else MetricsScope("irb")
        self.tracer = tracer if tracer is not None else NULL_TRACER
        # -- indexes (see module docstring) --
        self._order: _EntrySet = {}
        self._by_key: Dict[Tuple[int, int, int], _EntrySet] = {}
        self._by_thread_line: Dict[Tuple[int, int], _EntrySet] = {}
        self._data_only: Dict[int, _EntrySet] = {}
        self._by_line: Dict[int, _EntrySet] = {}
        self._by_thread: Dict[int, _EntrySet] = {}
        #: Monotone link counter backing ``IrbEntry.link_seq``.
        self._link_seq = 0
        # -- hot metric handles: resolved once, not per write --
        self._c_inserted = self.stats.counter("inserted")
        self._c_merged = self.stats.counter("merged")
        self._c_dropped_full = self.stats.counter("dropped_full")
        self._c_hits = self.stats.counter("hits")
        self._c_misses = self.stats.counter("misses")
        self._c_consumed = self.stats.counter("consumed")
        self._c_expired = self.stats.counter("expired")
        self._c_invalidated: Dict[str, object] = {}

    def __len__(self) -> int:
        return len(self._order)

    # -- index maintenance ---------------------------------------------
    def _link(self, entry: IrbEntry) -> None:
        self._link_seq += 1
        entry.link_seq = self._link_seq
        self._order[entry] = None
        self._by_key.setdefault(entry.key(), {})[entry] = None
        self._by_thread.setdefault(entry.thread_id, {})[entry] = None
        if entry.line_addr is not None:
            self._by_thread_line.setdefault(
                (entry.thread_id, entry.line_addr), {})[entry] = None
            self._by_line.setdefault(entry.line_addr, {})[entry] = None
        else:
            self._data_only.setdefault(entry.thread_id, {})[entry] = None

    def _unlink(self, entry: IrbEntry) -> None:
        del self._order[entry]
        self._drop_from(self._by_key, entry.key(), entry)
        self._drop_from(self._by_thread, entry.thread_id, entry)
        if entry.line_addr is not None:
            self._drop_from(self._by_thread_line,
                            (entry.thread_id, entry.line_addr), entry)
            self._drop_from(self._by_line, entry.line_addr, entry)
        else:
            self._drop_from(self._data_only, entry.thread_id, entry)

    @staticmethod
    def _drop_from(index: Dict, key, entry: IrbEntry) -> None:
        bucket = index.get(key)
        if bucket is not None and entry in bucket:
            del bucket[entry]
            if not bucket:
                del index[key]

    # -- insertion ------------------------------------------------------
    def insert(self, entry: IrbEntry) -> Optional[IrbEntry]:
        """Add an entry; returns the entry that now owns its results.

        An entry with the same key and line address *merges* instead —
        that is how a ``PRE_ADDR`` and a ``PRE_DATA`` of the same
        ``pre_obj`` combine their results — in which case the existing
        (merged-into) entry is returned.  Returns ``None`` when the
        buffer is full and the entry was dropped (§4.3.2).
        """
        self._expire_old()
        existing = self._find_mergeable(entry)
        if existing is not None:
            self._merge(existing, entry)
            self._c_merged.add()
            return existing
        if len(self._order) >= self.capacity:
            self._c_dropped_full.add()
            if self.tracer.enabled:
                self.tracer.instant("irb-drop-full", "irb", self.TRACK,
                                    self.sim.now)
            return None
        entry.created_at = self.sim.now
        self._link(entry)
        self._c_inserted.add()
        if self.tracer.enabled:
            self.tracer.instant(
                "irb-insert", "irb", self.TRACK, self.sim.now,
                args={"line_addr": entry.line_addr,
                      "occupancy": len(self._order)})
        return entry

    def _find_mergeable(self, entry: IrbEntry) -> Optional[IrbEntry]:
        bucket = self._by_key.get(entry.key())
        if not bucket:
            return None
        for existing in bucket:
            if (existing.line_addr is not None
                    and entry.line_addr is not None):
                if existing.line_addr == entry.line_addr:
                    return existing
                continue
            # One side lacks an address: pair by data ordinal.
            if existing.data_seq == entry.data_seq:
                return existing
        return None

    def _merge(self, existing: IrbEntry, incoming: IrbEntry) -> None:
        existing.ctx.merge_from(incoming.ctx)
        if existing.line_addr is None and incoming.line_addr is not None:
            # The entry gains its address: move it from the data-only
            # index to the address indexes.
            self._drop_from(self._data_only, existing.thread_id, existing)
            existing.line_addr = incoming.line_addr
            self._by_thread_line.setdefault(
                (existing.thread_id, existing.line_addr), {})[existing] = None
            self._by_line.setdefault(
                existing.line_addr, {})[existing] = None
        if existing.data is None:
            existing.data = incoming.data
        existing.complete = False  # more work may now be runnable

    # -- lookup by the arriving write -------------------------------------
    def match_write(self, thread_id: int, line_addr: int,
                    data: bytes) -> Optional[IrbEntry]:
        """Find the pre-execution result for an arriving write access.

        Primary key is the physical line address (paper step 5): an
        address match always beats an address-less data-only match.
        Within each class, the most-recently-created entry wins; an
        address-less data-only entry of the same thread matches by
        byte comparison only when no address match exists.
        """
        self._expire_old()
        best: Optional[IrbEntry] = None
        bucket = self._by_thread_line.get((thread_id, line_addr))
        if bucket:
            # Bucket order is NOT creation order: a data-only entry
            # that gains its address via _merge is appended here after
            # younger entries while keeping its older created_at.
            # link_seq is the linear reference's list position, in
            # which created_at is nondecreasing — so the highest rank
            # is the newest entry, ties broken by insertion order
            # exactly as the reference scan does.  Buckets are small.
            for candidate in bucket:
                if best is None or candidate.link_seq > best.link_seq:
                    best = candidate
        else:
            data_bucket = self._data_only.get(thread_id)
            if data_bucket:
                for entry in reversed(data_bucket):
                    if entry.data is not None and entry.data == data:
                        best = entry
                        break
        if best is not None:
            self._c_hits.add()
        else:
            self._c_misses.add()
        if self.tracer.enabled:
            self.tracer.instant(
                "irb-hit" if best is not None else "irb-miss", "irb",
                self.TRACK, self.sim.now,
                args={"line_addr": line_addr, "thread": thread_id})
        return best

    def consume(self, entry: IrbEntry) -> None:
        """Remove an entry whose results were used by a write."""
        if entry in self._order:
            self._unlink(entry)
            self._c_consumed.add()

    # -- invalidation ------------------------------------------------------
    def _invalidate(self, victims: List[IrbEntry], reason: str) -> int:
        for victim in victims:
            self._unlink(victim)
        if victims:
            counter = self._c_invalidated.get(reason)
            if counter is None:
                counter = self.stats.counter(f"invalidated_{reason}")
                self._c_invalidated[reason] = counter
            counter.add(len(victims))
            if self.tracer.enabled:
                self.tracer.instant(
                    "irb-invalidate", "irb", self.TRACK, self.sim.now,
                    args={"reason": reason, "count": len(victims)})
        return len(victims)

    def invalidate_where(self, predicate: Callable[[IrbEntry], bool],
                         reason: str = "predicate") -> int:
        """Drop entries matching ``predicate``; returns the count.

        Generic slow path (full scan) — rare events only.  The hot
        invalidation causes have dedicated index-backed entry points
        (:meth:`invalidate_line`, :meth:`clear_thread`).
        """
        return self._invalidate(
            [e for e in self._order if predicate(e)], reason)

    def invalidate_line(self, line_addr: int) -> int:
        """A store to ``line_addr`` happened outside this entry's
        write (cache-line sharing / buggy program, §4.3.1 cause 1)."""
        bucket = self._by_line.get(line_addr)
        return self._invalidate(list(bucket) if bucket else [], "line")

    def invalidate_range(self, lo: int, hi: int) -> int:
        """Memory swap: clear entries in the swapped range (§4.6)."""
        return self.invalidate_where(
            lambda e: e.line_addr is not None and lo <= e.line_addr < hi,
            reason="swap")

    def clear_thread(self, thread_id: int) -> int:
        """Thread termination clears its entries (§4.6)."""
        bucket = self._by_thread.get(thread_id)
        return self._invalidate(list(bucket) if bucket else [],
                                "thread_exit")

    def on_metadata_change(self, bmo_name: str, details: dict) -> None:
        """Invalidation hook the BMOs call when shared metadata moves
        (§4.3.1 cause 2 — e.g. a deduplicated source value changed)."""
        fingerprint = details.get("fingerprint")
        if fingerprint is None:
            return
        self.invalidate_where(
            lambda e: e.ctx.values.get("fingerprint") == fingerprint
            or (e.ctx.values.get("is_dup")
                and e.ctx.values.get("fingerprint") == fingerprint),
            reason="metadata")

    # -- aging ----------------------------------------------------------------
    def _expire_old(self) -> None:
        if self.max_age_ns is None or not self._order:
            return
        cutoff = self.sim.now - self.max_age_ns
        expired = 0
        # ``_order`` is created_at-ordered (time is monotone), so the
        # oldest entry is always first: stop at the first survivor.
        while self._order:
            entry = next(iter(self._order))
            if entry.created_at >= cutoff:
                break
            self._unlink(entry)
            expired += 1
        if expired:
            self._c_expired.add(expired)

    def entries(self) -> List[IrbEntry]:
        return list(self._order)
