"""The linear-scan IRB and the lockstep that checks the indexed IRB
against it.

:class:`LinearScanIrb` is the O(n)-per-operation buffer the indexed
:class:`repro.janus.irb.IntermediateResultBuffer` replaced, kept with
*identical observable semantics* (including the documented
"address match wins, most-recently-created breaks ties" rule) as a
reference oracle:

* the equivalence property test (``tests/test_irb_equivalence.py``)
  drives both implementations through :class:`IrbLockstep` with
  seeded random operation traces (:func:`run_random_irb_trace`) and
  compares their observable state after every step;
* the speed-floor test (``tests/test_irb_speed.py``) checks that the
  indexed implementation stays at least 2x faster than this baseline
  at high occupancy.

No simulation runs it.
"""

from typing import Callable, List, Optional

from repro.janus.irb import IntermediateResultBuffer, IrbEntry
from repro.obs.metrics import MetricsScope
from repro.obs.tracer import NULL_TRACER
from repro.sim import Simulator
from repro.validate.oracles import LINE, OracleMismatch


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


# ---------------------------------------------------------------------------
# IRB lockstep: indexed implementation vs linear-scan reference
# ---------------------------------------------------------------------------
LINES = [LINE * i for i in range(12)]
PAYLOADS = [bytes([b]) * LINE for b in (0x11, 0x22, 0x33)]
THREADS = (0, 1, 2)


def canon_entry(entry) -> tuple:
    """Identity-free view of an entry for cross-implementation
    comparison."""
    return (entry.pre_id, entry.thread_id, entry.transaction_id,
            -1 if entry.line_addr is None else entry.line_addr,
            entry.data or b"", entry.data_seq, entry.created_at,
            tuple(sorted(entry.ctx.completed)))


def canon(irb) -> list:
    return sorted(canon_entry(e) for e in irb.entries())


def clone(entry: IrbEntry) -> IrbEntry:
    return IrbEntry(
        pre_id=entry.pre_id, thread_id=entry.thread_id,
        transaction_id=entry.transaction_id,
        line_addr=entry.line_addr, data=entry.data,
        data_seq=entry.data_seq)


def random_entry(rng, lines=LINES, pre_ids: int = 6, txns: int = 2,
                 addr_p: float = 0.7) -> IrbEntry:
    has_addr = rng.random() < addr_p
    has_data = rng.random() < 0.6 or not has_addr
    return IrbEntry(
        pre_id=rng.randrange(pre_ids),
        thread_id=rng.choice(THREADS),
        transaction_id=rng.randrange(txns),
        line_addr=rng.choice(lines) if has_addr else None,
        data=rng.choice(PAYLOADS) if has_data else None,
        data_seq=rng.randrange(2))


class IrbLockstep:
    """Indexed IRB and linear reference driven as one, verified after
    every operation.

    Every mutator applies the operation to both implementations,
    compares the per-op result, then :meth:`verify`-s the full
    observable state (resident entries, occupancy, stats bag).
    Divergence raises :class:`OracleMismatch` tagged with the op.
    """

    def __init__(self, capacity: int = 10, max_age_ns: float = 500.0):
        self.sim_a, self.sim_b = Simulator(), Simulator()
        self.indexed = IntermediateResultBuffer(
            self.sim_a, capacity=capacity, max_age_ns=max_age_ns)
        self.linear = LinearScanIrb(
            self.sim_b, capacity=capacity, max_age_ns=max_age_ns)
        self.steps = 0

    def advance(self, dt: float) -> None:
        """Move both clocks forward in lockstep."""
        self.sim_a.now += dt
        self.sim_b.now += dt

    def _mismatch(self, op: str, detail: str) -> OracleMismatch:
        return OracleMismatch(
            f"IRB lockstep diverged at step {self.steps} ({op}): "
            f"{detail}",
            diff=[("indexed", canon(self.indexed)),
                  ("linear", canon(self.linear))])

    def _compare_pair(self, op: str, got_a, got_b) -> None:
        if (got_a is None) != (got_b is None):
            raise self._mismatch(
                op, f"indexed -> {got_a is not None}, "
                    f"linear -> {got_b is not None}")
        if got_a is not None and canon_entry(got_a) != canon_entry(got_b):
            raise self._mismatch(op, "returned entries differ")

    def insert(self, entry: IrbEntry):
        got_a = self.indexed.insert(entry)
        got_b = self.linear.insert(clone(entry))
        self._compare_pair("insert", got_a, got_b)
        self.verify("insert")
        return got_a

    def match(self, thread_id: int, line_addr: int, data: bytes):
        got_a = self.indexed.match_write(thread_id, line_addr, data)
        got_b = self.linear.match_write(thread_id, line_addr, data)
        self._compare_pair("match", got_a, got_b)
        self.verify("match")
        return got_a

    def consume_nth(self, index: int) -> None:
        """Consume the same logical entry (canon order) on both sides."""
        resident_a = sorted(self.indexed.entries(), key=canon_entry)
        resident_b = sorted(self.linear.entries(), key=canon_entry)
        if not resident_a:
            return
        index %= len(resident_a)
        self.indexed.consume(resident_a[index])
        self.linear.consume(resident_b[index])
        self.verify("consume")

    def invalidate_line(self, line_addr: int) -> int:
        count_a = self.indexed.invalidate_line(line_addr)
        count_b = self.linear.invalidate_line(line_addr)
        if count_a != count_b:
            raise self._mismatch("invalidate_line",
                                 f"{count_a} != {count_b}")
        self.verify("invalidate_line")
        return count_a

    def invalidate_range(self, lo: int, hi: int) -> int:
        count_a = self.indexed.invalidate_range(lo, hi)
        count_b = self.linear.invalidate_range(lo, hi)
        if count_a != count_b:
            raise self._mismatch("invalidate_range",
                                 f"{count_a} != {count_b}")
        self.verify("invalidate_range")
        return count_a

    def clear_thread(self, thread_id: int) -> int:
        count_a = self.indexed.clear_thread(thread_id)
        count_b = self.linear.clear_thread(thread_id)
        if count_a != count_b:
            raise self._mismatch("clear_thread",
                                 f"{count_a} != {count_b}")
        self.verify("clear_thread")
        return count_a

    def verify(self, op: str = "verify") -> None:
        """Full observable-state comparison; raises on divergence."""
        self.steps += 1
        if len(self.indexed) != len(self.linear):
            raise self._mismatch(
                op, f"occupancy {len(self.indexed)} != "
                    f"{len(self.linear)}")
        if canon(self.indexed) != canon(self.linear):
            raise self._mismatch(op, "resident entries differ")
        if self.indexed.stats.as_dict() != self.linear.stats.as_dict():
            raise self._mismatch(op, "stats bags differ")


def run_random_irb_trace(rng, steps: int = 400, capacity: int = 10,
                         max_age_ns: float = 500.0, lines=LINES,
                         pre_ids: int = 6, txns: int = 2,
                         addr_p: float = 0.7,
                         lockstep: Optional[IrbLockstep] = None) -> None:
    """Drive a seeded random operation trace through the lockstep.

    ``rng`` is any ``random.Random``-like stream (the callers use
    ``repro.common.rng`` named streams so traces replay exactly).
    Raises :class:`OracleMismatch` on the first divergence.
    """
    pair = lockstep if lockstep is not None else IrbLockstep(
        capacity=capacity, max_age_ns=max_age_ns)
    for _ in range(steps):
        # Jumps large enough to trigger aging on both clocks.
        pair.advance(rng.choice([0, 0, 1, 5, 40, 200]))
        roll = rng.random()
        if roll < 0.45:
            pair.insert(random_entry(rng, lines=lines, pre_ids=pre_ids,
                                     txns=txns, addr_p=addr_p))
        elif roll < 0.70:
            pair.match(rng.choice(THREADS), rng.choice(lines),
                       rng.choice(PAYLOADS))
        elif roll < 0.80:
            pair.consume_nth(rng.randrange(1 << 16))
        elif roll < 0.88:
            pair.invalidate_line(rng.choice(lines))
        elif roll < 0.94:
            pair.clear_thread(rng.choice(THREADS))
        else:
            lo = rng.choice(lines)
            pair.invalidate_range(lo, lo + LINE * rng.randrange(1, 4))
