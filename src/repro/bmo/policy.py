"""Write-path scheduling policies (the mode/policy abstraction).

Every :class:`~repro.core.machine.MemoryController` owns exactly one
:class:`SchedulingPolicy`, selected by ``SystemConfig.mode``.  The
controller handles the mode-independent mechanics of a writeback
(cache transfer, reading the dirty line); the policy decides *when*
the BMO work runs and *what a completed writeback means* for
durability — the four-mode consistency contract is documented in
``docs/scheduling-modes.md``.

Strict policies (``serialized``, ``parallel``, ``janus``): a
writeback completes only after the write (and, when required, its
metadata) is accepted into the ADR persist domain, so ``sfence``
implies durability.

A policy drives each write as simulator callbacks carried by the
write's :class:`repro.core.machine.Writeback` event, in the slots a
process per write resumes in (the contract is in the
``repro.core.machine`` docstring).  The work no program waits on —
ideal mode's off-path writes and the async-epoch flusher — runs as
callbacks too, with :class:`_StopRun` as its waiter: its error stops
the run.

``ideal``: BMOs and persistence run off the critical path entirely —
the paper's non-blocking upper bound (oracle, not buildable hardware).

``coalesced`` (Freij et al., *Streamlining Integrity Tree Updates*):
dataflow execution like ``parallel``, plus write-queue-level Merkle
path coalescing — temporally-overlapping writebacks whose integrity
paths share a tree ancestor charge that ancestor's hash once per
batch.  The discount is timing-only: the functional commit path is
byte-identical to ``serialized`` because every commit recomputes its
write's path against the live tree (``IntegrityBmo.commit``), which
is exactly what makes a shared pending node update safe to not
re-hash.

``async-epoch`` (Vilamb-style): writebacks park in a volatile epoch
buffer and ``sfence`` completes once buffered — durability is
*deferred*.  Every ``epoch_writes`` buffered writes the epoch closes
and a background flusher replays it, in order, through the normal
per-write BMO/persist path.  At most ``staleness_epochs`` closed
epochs may be awaiting flush before new writebacks stall (the
staleness dial).  After an epoch's last write is accepted into the
persist domain the policy advances a small durable watermark
(mirroring Vilamb's epoch counter in battery-backed space); recovery
uses it to demote transactions whose commit records landed during a
torn (partially-flushed) epoch — see
``repro.consistency.recovery.RecoveredState.rollback_undo_log``.
"""

import itertools
import weakref
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.common.errors import SimulationError
from repro.sim import SimEvent


class SchedulingPolicy:
    """Base class: one policy instance per memory controller."""

    name = ""
    #: ``True`` when a completed writeback (observed by ``sfence``)
    #: implies the write is in the ADR persist domain.
    durable_at_sfence = True

    def __init__(self, controller):
        # Weak, like the controller's own back-reference: the system
        # must stay free of reference cycles (see MemoryController).
        self.controller = weakref.proxy(controller)
        self.system = controller.system
        self.sim = controller.sim
        self.cfg = controller.cfg
        self.pipeline = controller.pipeline
        self.executor = controller.executor

    # -- the write path ------------------------------------------------
    def writeback(self, wb) -> None:
        """Mode-specific tail of one writeback.

        The controller has already charged the cache transfer and read
        the dirty line into ``wb.data``; the default (strict) shape
        runs the BMOs, then persists, then completes ``wb`` — so
        ``sfence`` implies durability.
        """
        wb.mc_arrival = self.sim.now
        try:
            self.run_bmos(wb)
        except Exception as err:
            wb.fail(err)

    def run_bmos(self, wb) -> None:
        """Run the BMO pipeline for one write into ``wb.ctx``, then
        call :meth:`_bmos_done`; a sub-op's error fails ``wb``."""
        raise NotImplementedError

    def _bmos_done(self, wb, fresh: bool = False) -> None:
        # ``fresh``: this callback ran or checked ``wb.ctx``.
        wb.bmo_done = self.sim.now
        self.controller._persist(wb.ctx, wb.critical, wb, self._persisted,
                                 wb, fresh=fresh)

    def _persisted(self, wb) -> None:
        mc = self.controller
        now = self.sim.now
        mc._h_critical_write.observe(now - wb.start)
        mc._trace(wb.thread_id, wb.line_addr, wb.start, wb.mc_arrival,
                  wb.bmo_done, now, wb.critical)
        self.release(wb)
        wb.succeed()

    def release(self, wb) -> None:
        """``wb`` is about to complete or fail: drop any per-write
        state the policy keeps."""

    # -- lifecycle hooks -----------------------------------------------
    def quiesce(self) -> None:
        """Flush any relaxed state at clean shutdown (called by
        ``NvmSystem.run_programs`` before the background drain)."""

    def crash_metadata(self) -> Optional[Dict]:
        """Durable policy state contributed to the crash snapshot
        (``metadata["scheduling"]``), or ``None``."""
        return None


class SerializedPolicy(SchedulingPolicy):
    """Baseline: BMOs as one monolithic serial block per write."""

    name = "serialized"

    def run_bmos(self, wb):
        wb.ctx = self.pipeline.make_context(addr=wb.line_addr,
                                            data=wb.data)
        # The block ends in the callback that commits: fresh.
        self.executor.run_serialized(wb.ctx, wb, self._bmos_done, wb,
                                     True)


class ParallelPolicy(SchedulingPolicy):
    """Dataflow execution of the sub-op graph (oracle-only mode —
    see docs/scheduling-modes.md: real BMT engines cannot start
    dependent sub-ops before their inputs exist without the Janus
    pre-execution hardware, so this point is an upper bound used by
    the differential oracles and Fig. 9/13, not a buildable design)."""

    name = "parallel"

    def run_bmos(self, wb):
        wb.ctx = self.pipeline.make_context(addr=wb.line_addr,
                                            data=wb.data)
        done = self.executor.start(wb.ctx)
        if done is None:
            self._bmos_done(wb)
        else:
            done.then(wb, self._bmos_done, wb)


class JanusPolicy(SchedulingPolicy):
    """Pre-execution: consume IRB results, finish what is stale."""

    name = "janus"

    def run_bmos(self, wb):
        # This controller's own engine: on the sharded machine each
        # shard pre-executes (and IRB-matches) only lines it owns.
        self.controller.janus.service_write(
            wb.thread_id, wb.line_addr, wb.data, wb, self._serviced, wb)

    def _serviced(self, ctx, fully, wb):
        wb.ctx = ctx
        self._bmos_done(wb, fresh=fully is not None)  # IRB-matched


class _StopRun:
    """The waiter of work no program waits on: its ``fail`` raises,
    so the error stops the run (as a raising drain does)."""

    @staticmethod
    def fail(exc: BaseException) -> None:
        raise exc


class IdealPolicy(SchedulingPolicy):
    """Non-blocking writeback: all BMO/persist work off the critical
    path.  Same-line writes chain so commits keep program order —
    being off the critical path must not reorder a line's final
    contents (hypothesis found exactly that bug).  No program waits on
    that work, so a sub-op or commit error in it stops the run."""

    name = "ideal"

    def __init__(self, controller):
        super().__init__(controller)
        #: line -> completion event of its latest background write.
        self._line_chains: Dict[int, SimEvent] = {}

    def writeback(self, wb):
        mc = self.controller
        mc_arrival = self.sim.now
        line_addr = wb.line_addr
        previous = self._line_chains.get(line_addr)
        chain = SimEvent(self.sim, "ideal-bg")
        self.sim._schedule_now(self._background, line_addr, wb.data,
                               wb.critical, previous, chain)
        self._line_chains[line_addr] = chain
        mc._h_critical_write.observe(self.sim.now - wb.start)
        mc._trace(wb.thread_id, line_addr, wb.start, mc_arrival,
                  mc_arrival, self.sim.now, wb.critical)
        wb.succeed()

    def _background(self, line_addr, data, critical, previous, chain):
        """Run one write's BMOs and persist it, after the line's
        previous background write; ``chain`` fires when it is done."""
        if previous is not None and not previous.triggered:
            previous.then(_StopRun, self._background, line_addr, data,
                          critical, None, chain)
            return
        ctx = self.pipeline.make_context(addr=line_addr, data=data)
        done = self.executor.start(ctx)
        if done is None:
            self.controller._persist(ctx, critical, _StopRun,
                                     chain.succeed)
        else:
            done.then(_StopRun, self.controller._persist, ctx, critical,
                      _StopRun, chain.succeed)


class TimingPolicyMux:
    """Route the executor's timing hook across sharded policies.

    ``BmoExecutor.timing_policy`` is a single slot; the sharded
    coalesced machine hangs this mux there and each shard's
    :class:`CoalescedPolicy` registers under its shard id.  Contexts
    are routed by the line address they operate on, which is the same
    key the writeback itself was routed by — so a shard's batch ledger
    only ever sees its own traffic.
    """

    def __init__(self, router):
        self.router = router
        #: shard id -> policy exposing ``adjust_timing`` (a weak
        #: proxy; the policy's controller owns it).
        self.policies: Dict[int, "CoalescedPolicy"] = {}
        #: Sub-ops some shard's ledger may discount (its integrity
        #: levels); every other sub-op returns before routing.
        self.discounted: Set[str] = set()

    def adjust_timing(self, name: str, ctx, total: int,
                      occupancy: int) -> Tuple[int, int]:
        if name not in self.discounted or ctx.addr is None:
            return total, occupancy
        policy = self.policies.get(self.router.shard_of(ctx.addr))
        if policy is None:
            return total, occupancy
        return policy.adjust_timing(name, ctx, total, occupancy)


class CoalescedPolicy(ParallelPolicy):
    """Write-queue-level Merkle path coalescing (Freij et al.).

    Timing model: writebacks in flight at the same time form a
    *batch*; within a batch, the first write touching an integrity
    tree node at a given level pays that level's hash, every other
    write sharing the node rides the same pending update for free.
    The ledger is per-``(sub-op level, node index)`` keyed by batch
    id; a batch ends when the in-flight count drains to zero, so
    batching is deterministic (simulation order, not wall clock).

    Functional model: unchanged.  Every commit hands its leaf to the
    live tree, which hashes it in at its next read, so the final image
    is byte-identical to ``serialized`` — asserted by
    ``repro.validate.oracles.check_mode_equivalence``.
    """

    name = "coalesced"

    def __init__(self, controller):
        super().__init__(controller)
        integrity = self.pipeline.by_name.get("integrity")
        self._integrity = integrity
        #: sub-op name -> leaves covered per node at that level.
        self._strides: Dict[str, int] = {}
        if integrity is not None:
            arity = integrity.tree.arity
            self._strides = {
                f"I{level}": arity ** (level - 1)
                for level in range(1, integrity.tree.height + 1)}
        self._batch = 0
        self._inflight = 0
        #: (sub-op, node index) -> batch id that already paid for it.
        self._charged: Dict[Tuple[str, int], int] = {}
        stats = self.system.metrics.scope(
            self.system.scope_name("sched", controller.shard_id))
        self._c_batches = stats.counter("coalesce_batches")
        self._c_coalesced = stats.counter("coalesced_node_updates")
        self._c_charged = stats.counter("charged_node_updates")
        # The executor exposes a single timing hook.  Unsharded: this
        # policy installs itself directly (legacy).  Sharded: all the
        # per-shard policies share one mux that routes each context to
        # the policy of the shard owning its line, so batching (and
        # the coalescing discount) stays per-controller.  Either way
        # the hook holds the policy weakly: the policy holds the
        # executor, so a strong link back would close a cycle.
        hook = weakref.proxy(self)
        if self.cfg.shards == 1:
            self.executor.timing_policy = hook
        else:
            mux = self.executor.timing_policy
            if not isinstance(mux, TimingPolicyMux):
                mux = TimingPolicyMux(self.system.router)
                self.executor.timing_policy = mux
            mux.policies[controller.shard_id] = hook
            mux.discounted.update(self._strides)

    def writeback(self, wb):
        if self._inflight == 0:
            self._batch += 1
            self._charged.clear()
            self._c_batches.add()
        self._inflight += 1
        super().writeback(wb)

    def release(self, wb):
        self._inflight -= 1

    def adjust_timing(self, name: str, ctx, total: int,
                      occupancy: int) -> Tuple[int, int]:
        """Executor hook: discount an integrity level whose tree node
        was already charged by an overlapping write in this batch."""
        stride = self._strides.get(name)
        if stride is None or self._integrity is None \
                or ctx.addr is None:
            return total, occupancy
        node = self._integrity.leaf_index(ctx.addr) // stride
        key = (name, node)
        if self._charged.get(key) == self._batch:
            self._c_coalesced.value += 1
            return 0, 0
        self._charged[key] = self._batch
        self._c_charged.value += 1
        return total, occupancy


class TxnOrderCoordinator:
    """Cross-shard write-ahead ordering for async-epoch flushers.

    One instance per sharded async-epoch machine (``shards > 1``),
    shared by every shard's :class:`AsyncEpochPolicy`.  Each buffered
    write is tagged with a global sequence number at buffer time
    (:meth:`tag`); before a flusher persists a write it calls
    :meth:`wait_turn`, which blocks until every *earlier* write of the
    same transaction — on any shard — has reached the persist domain.
    That restores the write-ahead property the single-shard sequential
    flusher gives for free: a transaction's undo backup can never
    still be volatile while its in-place data write is already
    durable, so torn-epoch demotion stays possible.

    Blocking a flusher on a write that is still sitting in another
    shard's *open* epoch would deadlock if that shard never fills its
    epoch again, so :meth:`wait_turn` also *demands* the close of any
    open epoch holding an earlier write of the transaction.  Deadlock
    freedom follows by induction on the global sequence: the smallest
    unpersisted sequence a flusher waits on is, by construction, at
    the head of its transaction's queue, every write before it on its
    own shard is already persisted, and the demand guarantees its
    epoch is (or becomes) closed — so its flusher can always reach and
    persist it.

    Writes outside any transaction (``txn == 0``) are not ordered —
    they carry no undo semantics.
    """

    def __init__(self, sim):
        self.sim = sim
        #: Every shard's AsyncEpochPolicy (self-registered).
        self.policies: List["AsyncEpochPolicy"] = []
        self._seq = itertools.count(1)
        #: txn -> globally-ordered sequence numbers of its buffered,
        #: not-yet-persisted writes (across all shards).
        self._pending: Dict[int, List[int]] = {}
        #: txn -> flusher gates waiting for its head to advance.
        self._gates: Dict[int, List] = {}

    def tag(self, txn: int) -> int:
        """Assign the next global sequence to a buffered write."""
        seq = next(self._seq)
        if txn:
            self._pending.setdefault(txn, []).append(seq)
        return seq

    def wait_turn(self, txn: int, seq: int, fn: Callable, *args) -> None:
        """Call ``fn(*args)`` once ``seq`` heads its transaction's
        queue (``txn`` 0 has none): at once if it does, else from the
        dispatch of a gate :meth:`mark_persisted` opens, checking again
        there."""
        queue = self._pending.get(txn)
        if not queue or queue[0] == seq:
            fn(*args)
            return
        # The blocking write may still be in another shard's open
        # epoch; demand it be sealed so that shard's flusher can
        # reach it (the demand may transiently push that shard one
        # epoch past its staleness bound — see docs/sharding.md).
        for policy in self.policies:
            policy.demand_close(txn, seq)
        gate = self.sim.event("txn-order")
        self._gates.setdefault(txn, []).append(gate)
        gate.then(_StopRun, self.wait_turn, txn, seq, fn, *args)

    def mark_persisted(self, txn: int, seq: int) -> None:
        """A write of ``txn`` reached the persist domain."""
        if not txn:
            return
        queue = self._pending.get(txn)
        if queue is not None:
            try:
                queue.remove(seq)
            except ValueError:  # pragma: no cover - tag/mark pair
                pass
            if not queue:
                self._pending.pop(txn, None)
        for gate in self._gates.pop(txn, []):
            gate.succeed()

    def unsafe_txns(self) -> Set[int]:
        """Transactions with any unpersisted buffered write, anywhere."""
        return {txn for txn, seqs in self._pending.items() if seqs}


class AsyncEpochPolicy(SchedulingPolicy):
    """Vilamb-style epoch-batched BMO scheduling with bounded
    staleness.  See the module docstring and
    ``docs/scheduling-modes.md`` for the durability contract; the
    sharded extension (per-shard epochs and watermarks, cross-shard
    write-ahead ordering, the merged consistent cut) is documented in
    ``docs/sharding.md``."""

    name = "async-epoch"
    durable_at_sfence = False

    def __init__(self, controller):
        super().__init__(controller)
        sched = self.cfg.scheduling
        self.epoch_writes = sched.epoch_writes
        self.staleness_epochs = sched.staleness_epochs
        self._buffer_ns = sched.buffer_ns
        #: Open epoch: (thread_id, line_addr, data, critical, txn,
        #: seq) in buffer order — which respects each core's fence
        #: order, because a fence only retires once its writes are
        #: buffered.  ``txn`` is the issuing core's transaction at
        #: buffer time; ``seq`` the global buffer sequence (0 when no
        #: coordinator — the single-shard machine needs neither).
        self._open: List[Tuple[int, int, bytes, bool, int, int]] = []
        #: Transactions whose commit record was buffered into the
        #: open epoch (critical writes carry the commit records).
        self._open_txns: Set[int] = set()
        #: Closed epochs awaiting (or under) flush, FIFO.
        self._closed: List[Tuple[List, Set[int]]] = []
        #: From the close that starts the flusher until it runs dry.
        self._flushing = False
        self._stall_gates: List = []
        #: Durable watermark: transactions whose containing epoch has
        #: fully reached the persist domain.  Transaction ids are
        #: per-core counters; the watermark keeps a flat set because
        #: recovery scans one undo-log region per workload stream
        #: (the campaign/soak shape) — a multi-log split would key
        #: this by thread.
        self._flushed_txns: Set[int] = set()
        self._epochs_closed = 0
        self._epochs_flushed = 0
        #: Shared cross-shard write-ahead coordinator (``None`` on the
        #: single-shard machine).
        self._coordinator = self.system.txn_coordinator
        if self._coordinator is not None:
            # Weak: the system owns both the coordinator and this
            # policy, so a strong link back would close a cycle.
            self._coordinator.policies.append(weakref.proxy(self))
        stats = self.system.metrics.scope(
            self.system.scope_name("sched", controller.shard_id))
        self._c_buffered = stats.counter("epoch_buffered_writes")
        self._c_epochs_closed = stats.counter("epochs_closed")
        self._c_epochs_flushed = stats.counter("epochs_flushed")
        self._c_stalls = stats.counter("staleness_stalls")
        self._h_flush = stats.histogram("epoch_flush_ns")

    def writeback(self, wb):
        # Bounded staleness: stall while the maximum number of closed
        # epochs is still awaiting flush.  The invariant afterwards:
        # closed - flushed <= staleness_epochs at every instant (a
        # cross-shard demand-close may transiently add one epoch).
        if self._epochs_closed - self._epochs_flushed \
                >= self.staleness_epochs:
            self._c_stalls.add()
            gate = self.sim.event("epoch-room")
            self._stall_gates.append(gate)
            gate.then(wb, self.writeback, wb)
            return
        self.sim._schedule(self._buffer_ns, self._buffer, wb)

    def _buffer(self, wb):
        mc = self.controller
        thread_id, line_addr, critical = \
            wb.thread_id, wb.line_addr, wb.critical
        txn = self.system.cores[thread_id].current_txn_id
        seq = self._coordinator.tag(txn) \
            if self._coordinator is not None else 0
        self._open.append((thread_id, line_addr, wb.data, critical,
                           txn, seq))
        self._c_buffered.add()
        if critical and txn:
            # Critical writebacks carry transaction commit records;
            # remember the owning transaction so the watermark can
            # promote it when this epoch is fully durable.
            self._open_txns.add(txn)
        now = self.sim.now
        mc._h_critical_write.observe(now - wb.start)
        mc._trace(thread_id, line_addr, wb.start, now, now, now, critical)
        if len(self._open) >= self.epoch_writes:
            self._close_epoch()
        wb.succeed()

    def run_bmos(self, wb):  # pragma: no cover
        raise SimulationError(
            "async-epoch runs BMOs from its flusher, not inline")

    def _close_epoch(self) -> None:
        if not self._open:
            return
        self._closed.append((self._open, self._open_txns))
        self._open, self._open_txns = [], set()
        self._epochs_closed += 1
        self._c_epochs_closed.add()
        if not self._flushing:
            self._flushing = True
            self.sim._schedule_now(self._flush)

    def demand_close(self, txn: int, before_seq: int) -> None:
        """Coordinator callback: seal the open epoch if it holds an
        earlier write of ``txn`` that another shard's flusher is
        blocked on."""
        for entry in self._open:
            if entry[4] == txn and entry[5] < before_seq:
                self._close_epoch()
                return

    def _flush(self) -> None:
        """The flusher: replay closed epochs, oldest first, through the
        normal per-write BMO/persist path.  Strictly sequential, so the
        persist domain always holds a *prefix* of this shard's
        buffered write stream — the property torn-epoch recovery
        stands on.  On the sharded machine each write also waits its
        cross-shard turn within its transaction before persisting
        (write-ahead across shards).  No program waits on it, so an
        error in it stops the run (:class:`_StopRun`)."""
        if self._closed:
            self._flush_write(self._closed[0][0], 0, self.sim.now)
        else:
            self._flushing = False

    def _flush_write(self, writes: List, index: int, start: int) -> None:
        """Replay ``writes[index]`` of the oldest closed epoch, whose
        flush began at ``start``; past its last write, advance the
        durable watermark and go on to the next epoch."""
        if index == len(writes):
            # Everything in this epoch is accepted into the ADR
            # domain: advance the durable watermark atomically (no
            # wait between the last persist and this update).
            _writes, txns = self._closed.pop(0)
            self._epochs_flushed += 1
            self._c_epochs_flushed.add()
            self._h_flush.observe(self.sim.now - start)
            self._flushed_txns.update(txns)
            gates, self._stall_gates = self._stall_gates, []
            for gate in gates:
                gate.succeed()
            self._flush()
            return
        _thread_id, line_addr, data, critical, txn, seq = writes[index]
        ctx = self.pipeline.make_context(addr=line_addr, data=data)
        # Once the sub-ops ran: persist, after the write's cross-shard
        # turn on the sharded machine.
        step = (self.controller._persist, ctx, critical, _StopRun,
                self._flushed, writes, index, start)
        if self._coordinator is not None:
            step = (self._coordinator.wait_turn, txn, seq) + step
        done = self.executor.start(ctx)
        if done is None:
            step[0](*step[1:])
        else:
            done.then(_StopRun, *step)

    def _flushed(self, writes: List, index: int, start: int) -> None:
        if self._coordinator is not None:
            self._coordinator.mark_persisted(*writes[index][4:])
        self._flush_write(writes, index + 1, start)

    def quiesce(self) -> None:
        # Clean shutdown: seal the open epoch; the caller's background
        # drain runs the flusher to empty, so a completed run is fully
        # durable and its final image matches the strict modes.
        self._close_epoch()

    def known_txns(self) -> Set[int]:
        """Every transaction whose commit record this shard has seen
        (buffered, awaiting flush, or watermarked) — the id universe
        the merged consistent cut walks."""
        txns = set(self._flushed_txns) | set(self._open_txns)
        for _writes, epoch_txns in self._closed:
            txns |= epoch_txns
        return txns

    def crash_metadata(self) -> Dict:
        return {
            "mode": self.name,
            "epoch_writes": self.epoch_writes,
            "staleness_epochs": self.staleness_epochs,
            "epochs_closed": self._epochs_closed,
            "epochs_flushed": self._epochs_flushed,
            "flushed_txns": sorted(self._flushed_txns),
        }


def merge_crash_metadata(policies, coordinator) -> Optional[Dict]:
    """Merge per-shard policy crash metadata into one scheduling dict.

    ``shards=1``: the single policy's dict (or ``None``), verbatim —
    recovery sees exactly the pre-sharding snapshot.

    Sharded async-epoch: the merged ``flushed_txns`` is the **minimum
    cross-shard consistent cut** — the longest prefix, in transaction
    id order over every transaction any shard has seen, of
    transactions that are watermarked on the shard holding their
    commit record *and* have no unpersisted write on any shard.  A
    transaction failing either test is demoted, and so is everything
    after it (a later transaction may depend on its state); demotion
    is always possible because the write-ahead coordinator persisted
    undo backups before data.  Legacy keys keep their meaning
    (``epochs_closed``/``epochs_flushed`` become totals) so
    ``repro.consistency.recovery`` is topology-blind; the per-shard
    detail rides along under ``per_shard``.
    """
    metas = [policy.crash_metadata() for policy in policies]
    if len(metas) == 1:
        return metas[0]
    if all(meta is None for meta in metas):
        return None
    flushed: Set[int] = set()
    known: Set[int] = set()
    for policy in policies:
        flushed |= policy._flushed_txns
        known |= policy.known_txns()
    unsafe = coordinator.unsafe_txns() if coordinator is not None \
        else set()
    candidate = flushed - unsafe
    cut = []
    for txn in sorted(known | unsafe):
        if txn not in candidate:
            break
        cut.append(txn)
    return {
        "mode": metas[0]["mode"],
        "epoch_writes": metas[0]["epoch_writes"],
        "staleness_epochs": metas[0]["staleness_epochs"],
        "epochs_closed": sum(m["epochs_closed"] for m in metas),
        "epochs_flushed": sum(m["epochs_flushed"] for m in metas),
        "flushed_txns": cut,
        "shards": len(metas),
        "per_shard": metas,
    }


POLICIES = {
    policy.name: policy
    for policy in (SerializedPolicy, ParallelPolicy, JanusPolicy,
                   IdealPolicy, CoalescedPolicy, AsyncEpochPolicy)
}


def build_policy(controller) -> SchedulingPolicy:
    """Instantiate the policy for ``controller.cfg.mode``."""
    cls = POLICIES.get(controller.cfg.mode)
    if cls is None:  # pragma: no cover - validated by SystemConfig
        raise SimulationError(
            f"no scheduling policy for mode {controller.cfg.mode!r}")
    return cls(controller)
