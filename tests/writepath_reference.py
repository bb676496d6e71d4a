"""The generator write path the callback write path replaced, kept
verbatim as a lockstep oracle.

Each function below is the old body of the method named in the
comment above it: every writeback ran as a ``clwb`` process, each
acceptance as an ``accept-data``/``accept-meta`` process joined by an
``AllOf``, each drain as a ``wq-drain`` process, the serialized BMO
block and the Janus write service as generator steps of the
writeback, an ideal-mode write's background work as an ``ideal-bg``
process, each admitted Janus operation's pre-execution as a
``janus-preexec`` process and the async-epoch flusher as an
``epoch-flush`` process, waiting its cross-shard turn in a generator
``wait_turn``.  (``CoalescedPolicy.writeback`` calls
``ParallelPolicy.writeback`` where it called ``super()``: a function
outside its class has no ``super``.  ``AsyncEpochPolicy._close_epoch``
reads its flusher with ``getattr``: the policy no longer makes the
attribute.)  :func:`install` patches them over the production
methods, the way ``tests/test_executor_lockstep.py`` patches its
reference executor in; ``tests/test_writepath_lockstep.py`` then
checks that both write paths produce the same run, dispatch for
dispatch.

The kernel grants units to callbacks only (``Resource.request``);
:func:`acquire`, :func:`cancel` and :func:`use` give these processes
the grant they yielded on, and :func:`run_subops` the sub-op calls
(:meth:`BmoExecutor.start`) they waited on.
"""

from repro.bmo.base import BmoContext, ExternalInput
from repro.bmo.executor import BmoExecutor
from repro.bmo.policy import (
    AsyncEpochPolicy,
    CoalescedPolicy,
    IdealPolicy,
    JanusPolicy,
    ParallelPolicy,
    SchedulingPolicy,
    SerializedPolicy,
    TxnOrderCoordinator,
)
from repro.common.errors import SimulationError
from repro.common.units import CACHE_LINE_BYTES, line_span
from repro.core.machine import Core, MemoryController
from repro.janus.engine import JanusEngine
from repro.janus.irb import IrbEntry
from repro.mem.nvm_device import NvmDevice
from repro.mem.write_queue import WriteEntry, WriteQueue
from repro.sim import SimEvent


def _grant(event: SimEvent) -> None:
    """Trigger ``event`` and resume its waiters in this dispatch."""
    event.triggered = True
    event._dispatch()


def acquire(resource) -> SimEvent:
    """An event that fires once ``resource`` grants a slot.

    The grant is one callback that triggers the event and resumes its
    waiter in the same dispatch.  A process that yields the event at
    once therefore resumes where these references need it to: behind
    the callbacks already queued at this instant when a slot is free,
    or in the slot of the ``release`` that hands one over.
    """
    event = SimEvent(resource.sim, f"{resource.name}.acquire")
    resource.request(_grant, event)
    return event


def cancel(resource, grant: SimEvent) -> None:
    """Withdraw an :func:`acquire` whose waiter died: drop it from the
    queue, or give back a slot it was already granted."""
    if grant.triggered:
        resource.release()
        return
    try:
        resource._waiters.remove((_grant, (grant,)))
    except ValueError:
        pass


def use(resource, service_ns):
    """Process helper: acquire, hold for ``service_ns``, release."""
    grant = acquire(resource)
    try:
        yield grant
    except BaseException:
        cancel(resource, grant)
        raise
    try:
        yield resource.sim.delay(service_ns)
    finally:
        resource.release()


def run_subops(executor, ctx: BmoContext, names=None):
    """Process helper: start ``names`` (default: all not yet
    completed) on ``executor`` and wait until they ran."""
    done = executor.start(ctx, names)
    if done is not None:
        yield done
    return ctx


# Core.clwb
def core_clwb(self, addr: int, size: int, critical: bool = False):
    """Issue writebacks for every line of [addr, addr+size).

    Non-blocking (like the instruction): completion is observed by
    the next :meth:`sfence`.
    """
    for line in line_span(addr, size):
        # Route each line to its owning shard's controller; a
        # transaction touching several shards accumulates pending
        # writebacks on all of them, and the next sfence becomes
        # a barrier over every controller touched.
        proc = self.sim.process(
            self.system.controller_for(line).writeback(
                self.core_id, line, critical=critical),
            name="clwb")
        self._outstanding.append(proc)
        self._c_clwbs.add()
    yield self.sim.delay(self.cfg.core.instruction_ns)


# MemoryController.writeback
def mc_writeback(self, thread_id: int, line_addr: int,
              critical: bool = False):
    """Process: one cache-line writeback to the persist domain.

    Returns when the write reaches the point its scheduling policy
    calls complete — durable acceptance for the strict modes, the
    epoch buffer for ``async-epoch``.  This is what a ``clwb``'s
    completion — observed by the next ``sfence`` — waits for.
    """
    self._c_writebacks.add()
    start = self.sim.now
    # Cache hierarchy -> memory controller transfer (~15 ns).
    yield self.sim.delay(self.cfg.cache.writeback_ns)
    data = self.system.volatile.read_line(line_addr)
    yield from self.policy.writeback(thread_id, line_addr, data,
                                     critical, start)


# MemoryController._persist
def mc_persist(self, ctx, critical: bool):
    """Commit BMO state and enter the persist domain."""
    system = self.system
    pipeline = self.pipeline
    # Refresh any staleness that crept in while queued (janus mode
    # already guarantees freshness; serialized/parallel contexts
    # executed just now, but concurrent cores may interleave).
    stale = pipeline.stale_subops(ctx)
    while stale:
        pipeline.invalidate(ctx, stale)
        yield from run_subops(self.executor, ctx)
        stale = pipeline.stale_subops(ctx)
    action = pipeline.commit(ctx)

    accepts = []
    if action.write_data:
        entry = WriteEntry(
            addr=action.device_addr, data=action.payload,
            on_drain=self._drain_to_nvm)
        # Route by the *device* address: dedup may have redirected
        # the payload to a shadow line on another shard, making
        # this a cross-shard transaction — the sfence barrier
        # below (``accepts`` joined by the caller) spans every
        # controller touched.
        queue = system.write_queue_for(action.device_addr)
        accepts.append(self.sim.process(
            queue.accept(entry), name="accept-data"))
    else:
        self._c_dedup_cancelled.add()
    for i in range(action.metadata_lines):
        wait_for_meta = critical or \
            not self.cfg.selective_metadata_atomicity
        if not wait_for_meta:
            # The counter/Merkle caches absorb non-critical
            # metadata updates; they reach the device lazily on
            # eviction, off both the critical path and the write
            # queue (selective counter-atomicity, §4.3).
            self._c_metadata_lazy.add()
            continue
        meta_addr = self._metadata_line_for(ctx.addr, i)
        meta_entry = WriteEntry(addr=meta_addr,
                                data=bytes(CACHE_LINE_BYTES),
                                metadata={"kind": "metadata"})
        proc = self.sim.process(
            system.write_queue_for(meta_addr).accept(meta_entry),
            name="accept-meta")
        accepts.append(proc)
        self._c_metadata_atomic_waits.add()
    if accepts:
        yield self.sim.all_of(accepts)
    self._c_writes_persisted.add()


# WriteQueue.accept
def wq_accept(self, entry: WriteEntry):
    """Process: block until a slot is free, then persist ``entry``.

    Returns once the entry is durably in the persist domain; the
    device write continues in the background.
    """
    arrival = self.sim.now
    grant = acquire(self._slots)
    try:
        yield grant
    except BaseException:
        # Killed while stalled on a full queue: withdraw the slot
        # request so the dead waiter can't leak capacity.
        cancel(self._slots, grant)
        raise
    self._c_accepted.add()
    self._h_occupancy.observe(self.outstanding)
    if arrival < self.sim.now:
        # Back-pressure: the queue was full and this write stalled.
        self._h_full_stall.observe(self.sim.now - arrival)
    entry.accepted_at = self.sim.now
    self._pending[entry] = None
    if self.tracer.enabled:
        self.tracer.counter("wq-occupancy", self.TRACK, self.sim.now,
                            {"outstanding": self.outstanding})
    self.sim.process(self._drain(entry), name="wq-drain")


# WriteQueue._drain
def wq_drain(self, entry: WriteEntry):
    try:
        yield from self.device.write_access(entry.addr)
        if entry in self._pending:  # not already ADR-flushed
            del self._pending[entry]
            if entry.on_drain is not None:
                entry.on_drain(entry)
            if self.injector is not None:
                self.injector.on_device_write(entry)
        self._c_drained.add()
        if entry.accepted_at is None:
            raise SimulationError(
                f"drain of unaccepted write entry {entry.addr:#x}")
        self._h_residency.observe(self.sim.now - entry.accepted_at)
        if self.tracer.enabled:
            self.tracer.complete(
                "wq-residency", "mem", self.TRACK,
                start_ns=entry.accepted_at,
                dur_ns=self.sim.now - entry.accepted_at,
                args={"addr": entry.addr})
            self.tracer.counter(
                "wq-occupancy", self.TRACK, self.sim.now,
                {"outstanding": self.outstanding - 1})
    finally:
        self._slots.release()
        if self.outstanding == 0:
            waiters, self._idle_waiters = self._idle_waiters, []
            for event in waiters:
                event.succeed()


# NvmDevice.write_access
def nvm_write_access(self, addr: int):
    """Process: occupy the line's channel for one line write."""
    self.stats.counter("writes").add()
    self.write_counts[addr] = self.write_counts.get(addr, 0) + 1
    channel = self._channels[self._channel_index(addr)]
    yield from use(channel, self.cfg.write_service_ns)


# BmoExecutor.run_serialized
def executor_run_serialized(self, ctx: BmoContext):
    """Process: run all BMOs as one monolithic, serial block.

    The block occupies a unit for its initiation interval and its
    results appear after the full serial latency — the same
    pipelined-engine model the dataflow path uses, so serialized
    vs. parallel compares latency composition, not unit counts.
    """
    start = self.sim.now
    # Quantized occupancy/shadow split, precomputed in __init__ so
    # the two delays sum to exactly the quantized serial latency
    # (no per-leg rounding).
    total = self._serial_total
    occupancy = self._serial_occupancy
    grant = acquire(self.units)
    try:
        yield grant
    except BaseException:
        cancel(self.units, grant)
        raise
    # The unit frees itself exactly at the end of the initiation
    # interval via a scheduled callback; the process sleeps once
    # for the full latency instead of resuming twice.
    self.sim._schedule(occupancy, self.units.release)
    yield self.sim.delay(total)
    self.pipeline.execute_all(ctx)
    self._h_serialized_block.observe(self.sim.now - start)
    if self.tracer.enabled:
        self.tracer.complete(
            "serialized-bmos", "bmo", ("bmo", "serialized"),
            start_ns=start, dur_ns=self.sim.now - start,
            args={"addr": ctx.addr})
    return ctx


# BmoExecutor.refresh_and_complete
def executor_refresh_and_complete(self, ctx: BmoContext):
    """Process: bring ``ctx`` to a committed-ready state.

    Re-runs stale sub-ops (and their dependents) until the context
    is both complete and fresh.  Called by the memory controller
    with the write's final address and data already installed.
    """
    if ctx.addr is None or ctx.data is None:
        raise SimulationError("write context needs both addr and data")
    while True:
        stale = self.pipeline.stale_subops(ctx)
        if stale:
            self._c_stale_rerun.add(len(stale))
            self.pipeline.invalidate(ctx, stale)
        remaining = [n for n in self._order if n not in ctx.completed]
        if not remaining:
            return ctx
        yield from run_subops(self, ctx, remaining)


# JanusEngine.service_write
def janus_service_write(self, thread_id: int, line_addr: int, data: bytes):
    """Process: produce a commit-ready context for this write.

    Yields until all (remaining) sub-operations have executed.
    Returns ``(ctx, fully_pre_executed)``.
    """
    entry = self.irb.match_write(thread_id, line_addr, data)
    if entry is None:
        ctx = self.pipeline.make_context(addr=line_addr, data=data)
        yield from run_subops(self.executor, ctx)
        return ctx, False

    if entry.inflight is not None:
        # The write arrived before its pre-execution finished —
        # the program left an insufficient window (§4.4 guideline
        # 3).  Record the shortfall for the misuse detector.
        wait_start = self.sim.now
        yield entry.inflight
        self._c_inflight_waits.add()
        self._h_window_shortfall.observe(self.sim.now - wait_start)
        if self.tracer.enabled:
            self.tracer.complete(
                "inflight-wait", "janus",
                ("write-path", f"core{thread_id}"),
                start_ns=wait_start,
                dur_ns=self.sim.now - wait_start,
                args={"line_addr": line_addr})
    self.irb.consume(entry)
    ctx = entry.ctx

    if entry.data is not None and entry.data != data:
        # Stale data copy (§4.3.1 cause 1): every data-dependent
        # result must be recomputed with the fresh bytes.
        self._c_data_mismatches.add()
        graph = self.pipeline.graph
        data_dependent = {
            name for name in ctx.completed
            if ExternalInput.DATA in graph.external_requirements(name)}
        self.pipeline.invalidate(ctx, data_dependent)
    ctx.addr = line_addr
    ctx.data = data

    fully = (not self.pipeline.stale_subops(ctx)
             and set(ctx.completed) == set(self.pipeline.graph.subops))
    if fully:
        self._c_fully_pre_executed.add()
    else:
        self._c_partially_pre_executed.add()
    yield from self.executor.refresh_and_complete(ctx)
    return ctx, fully


# SchedulingPolicy.writeback
def policy_writeback(self, thread_id: int, line_addr: int, data: bytes,
              critical: bool, start: float):
    """Process: mode-specific tail of one writeback.

    The controller has already charged the cache transfer and read
    the dirty line; the default (strict) shape runs the BMOs, then
    persists, then completes — so ``sfence`` implies durability.
    """
    mc = self.controller
    mc_arrival = self.sim.now
    ctx = yield from self.run_bmos(thread_id, line_addr, data)
    bmo_done = self.sim.now
    yield from mc._persist(ctx, critical)
    mc._h_critical_write.observe(self.sim.now - start)
    mc._trace(thread_id, line_addr, start, mc_arrival, bmo_done,
              self.sim.now, critical)


# SerializedPolicy.run_bmos
def serialized_run_bmos(self, thread_id, line_addr, data):
    ctx = self.pipeline.make_context(addr=line_addr, data=data)
    yield from self.executor.run_serialized(ctx)
    return ctx


# ParallelPolicy.run_bmos
def parallel_run_bmos(self, thread_id, line_addr, data):
    ctx = self.pipeline.make_context(addr=line_addr, data=data)
    yield from run_subops(self.executor, ctx)
    return ctx


# JanusPolicy.run_bmos
def janus_run_bmos(self, thread_id, line_addr, data):
    # This controller's own engine: on the sharded machine each
    # shard pre-executes (and IRB-matches) only lines it owns.
    ctx, _fully = yield from self.controller.janus.service_write(
        thread_id, line_addr, data)
    return ctx


# IdealPolicy.writeback
def ideal_writeback(self, thread_id, line_addr, data, critical, start):
    mc = self.controller
    mc_arrival = self.sim.now
    previous = self._line_chains.get(line_addr)
    proc = self.sim.process(
        self._background(line_addr, data, critical,
                         wait_for=previous),
        name="ideal-bg")
    self._line_chains[line_addr] = proc
    mc._h_critical_write.observe(self.sim.now - start)
    mc._trace(thread_id, line_addr, start, mc_arrival, mc_arrival,
              self.sim.now, critical)
    return
    yield  # pragma: no cover — keeps this a generator


# IdealPolicy._background
def ideal_background(self, line_addr, data, critical, wait_for=None):
    if wait_for is not None and not wait_for.triggered:
        yield wait_for
    ctx = self.pipeline.make_context(addr=line_addr, data=data)
    yield from run_subops(self.executor, ctx)
    yield from self.controller._persist(ctx, critical)


# CoalescedPolicy.writeback
def coalesced_writeback(self, thread_id, line_addr, data, critical, start):
    if self._inflight == 0:
        self._batch += 1
        self._charged.clear()
        self._c_batches.add()
    self._inflight += 1
    try:
        yield from ParallelPolicy.writeback(self, thread_id, line_addr, data,
                                     critical, start)
    finally:
        self._inflight -= 1


# AsyncEpochPolicy.writeback
def async_epoch_writeback(self, thread_id, line_addr, data, critical, start):
    mc = self.controller
    # Bounded staleness: stall while the maximum number of closed
    # epochs is still awaiting flush.  The invariant afterwards:
    # closed - flushed <= staleness_epochs at every instant (a
    # cross-shard demand-close may transiently add one epoch).
    while self._epochs_closed - self._epochs_flushed \
            >= self.staleness_epochs:
        self._c_stalls.add()
        gate = self.sim.event("epoch-room")
        self._stall_gates.append(gate)
        yield gate
    yield self.sim.delay(self._buffer_ns)
    txn = self.system.cores[thread_id].current_txn_id
    seq = self._coordinator.tag(txn) \
        if self._coordinator is not None else 0
    self._open.append((thread_id, line_addr, data, critical,
                       txn, seq))
    self._c_buffered.add()
    if critical and txn:
        # Critical writebacks carry transaction commit records;
        # remember the owning transaction so the watermark can
        # promote it when this epoch is fully durable.
        self._open_txns.add(txn)
    now = self.sim.now
    mc._h_critical_write.observe(now - start)
    mc._trace(thread_id, line_addr, start, now, now, now, critical)
    if len(self._open) >= self.epoch_writes:
        self._close_epoch()


# AsyncEpochPolicy._close_epoch
def async_epoch_close_epoch(self) -> None:
    if not self._open:
        return
    self._closed.append((self._open, self._open_txns))
    self._open, self._open_txns = [], set()
    self._epochs_closed += 1
    self._c_epochs_closed.add()
    flusher = getattr(self, "_flusher", None)
    if flusher is None or flusher.triggered:
        self._flusher = self.sim.process(self._flush(),
                                         name="epoch-flush")


# AsyncEpochPolicy._flush
def async_epoch_flush(self):
    """Background process: replay closed epochs, oldest first,
    through the normal per-write BMO/persist path.  Strictly
    sequential, so the persist domain always holds a *prefix* of
    this shard's buffered write stream — the property torn-epoch
    recovery stands on.  On the sharded machine each write also
    waits its cross-shard turn within its transaction before
    persisting (write-ahead across shards)."""
    mc = self.controller
    coord = self._coordinator
    while self._closed:
        writes, txns = self._closed[0]
        start = self.sim.now
        for thread_id, line_addr, data, critical, txn, seq in writes:
            ctx = self.pipeline.make_context(
                addr=line_addr, data=data)
            yield from run_subops(self.executor, ctx)
            if coord is not None:
                yield from coord.wait_turn(txn, seq)
            yield from mc._persist(ctx, critical)
            if coord is not None:
                coord.mark_persisted(txn, seq)
        # Everything in this epoch is accepted into the ADR
        # domain: advance the durable watermark atomically (no
        # yield between the last persist and this update).
        self._closed.pop(0)
        self._epochs_flushed += 1
        self._c_epochs_flushed.add()
        self._h_flush.observe(self.sim.now - start)
        self._flushed_txns.update(txns)
        gates, self._stall_gates = self._stall_gates, []
        for gate in gates:
            gate.succeed()


# TxnOrderCoordinator.wait_turn
def coordinator_wait_turn(self, txn: int, seq: int):
    """Process: block until ``seq`` heads its transaction's queue."""
    if not txn:
        return
    queue = self._pending.get(txn)
    while queue and queue[0] != seq:
        # The blocking write may still be in another shard's open
        # epoch; demand it be sealed so that shard's flusher can
        # reach it (the demand may transiently push that shard one
        # epoch past its staleness bound — see docs/sharding.md).
        for policy in self.policies:
            policy.demand_close(txn, seq)
        gate = self.sim.event("txn-order")
        self._gates.setdefault(txn, []).append(gate)
        yield gate


# JanusEngine._admit
def janus_admit(self, op) -> None:
    if self.owns is not None and op.line_addr is not None \
            and not self.owns(op.line_addr):
        # Sharded machine: this line belongs to another shard's
        # controller; its engine admits the operation instead.
        return
    if self._inflight_ops >= self.max_inflight_ops:
        self._c_ops_dropped_full.add()
        return
    entry = IrbEntry(
        pre_id=op.pre_id, thread_id=op.thread_id,
        transaction_id=op.transaction_id,
        line_addr=op.line_addr, data=op.line_data,
        ctx=self.pipeline.make_context(addr=op.line_addr,
                                       data=op.line_data),
        data_seq=op.data_seq)
    # ``insert`` returns the entry that owns this line's context —
    # the new entry, or the existing one it merged into.
    target = self.irb.insert(entry)
    if target is None:
        return  # IRB full: drop (performance-only loss)
    self._c_ops_admitted.add()
    self._inflight_ops += 1
    self.sim.process(self._pre_execute(target), name="janus-preexec")


# JanusEngine._pre_execute
def janus_pre_execute(self, entry: IrbEntry):
    try:
        # Serialize per-entry work: a merge may extend an entry
        # whose earlier sub-ops are still executing.
        while entry.inflight is not None:
            yield entry.inflight
        done_event = self.sim.event("irb-entry-complete")
        entry.inflight = done_event
        ctx = entry.ctx
        runnable = self.pipeline.graph.runnable_with(
            ctx.available_inputs)
        if ctx.completed:
            runnable = [name for name in runnable
                        if name not in ctx.completed]
        if runnable:
            pre_start = self.sim.now
            try:
                yield from run_subops(self.executor, ctx, runnable)
            except Exception as err:
                # The write that matches this entry, now or later,
                # fails with the sub-op's error.
                done_event.fail(err)
                return
            self._c_subops_pre_executed.add(len(runnable))
            if self.tracer.enabled:
                self.tracer.complete(
                    "pre-execute", "janus", ("janus", "pre-exec"),
                    start_ns=pre_start,
                    dur_ns=self.sim.now - pre_start,
                    args={"line_addr": entry.line_addr,
                          "subops": len(runnable)})
        entry.complete = True
        entry.inflight = None
        if self.injector is not None:
            self.injector.on_irb_complete(entry)
        done_event.succeed()
    finally:
        self._inflight_ops -= 1


#: (class, method name, reference body) for every patched method.
PATCHES = (
    (Core, "clwb", core_clwb),
    (MemoryController, "writeback", mc_writeback),
    (MemoryController, "_persist", mc_persist),
    (WriteQueue, "accept", wq_accept),
    (WriteQueue, "_drain", wq_drain),
    (NvmDevice, "write_access", nvm_write_access),
    (BmoExecutor, "run_serialized", executor_run_serialized),
    (BmoExecutor, "refresh_and_complete", executor_refresh_and_complete),
    (JanusEngine, "service_write", janus_service_write),
    (JanusEngine, "_admit", janus_admit),
    (JanusEngine, "_pre_execute", janus_pre_execute),
    (SchedulingPolicy, "writeback", policy_writeback),
    (SerializedPolicy, "run_bmos", serialized_run_bmos),
    (ParallelPolicy, "run_bmos", parallel_run_bmos),
    (JanusPolicy, "run_bmos", janus_run_bmos),
    (IdealPolicy, "writeback", ideal_writeback),
    (IdealPolicy, "_background", ideal_background),
    (CoalescedPolicy, "writeback", coalesced_writeback),
    (AsyncEpochPolicy, "writeback", async_epoch_writeback),
    (AsyncEpochPolicy, "_close_epoch", async_epoch_close_epoch),
    (AsyncEpochPolicy, "_flush", async_epoch_flush),
    (TxnOrderCoordinator, "wait_turn", coordinator_wait_turn),
)


def install(monkeypatch) -> None:
    """Patch the generator write path over the production one."""
    for cls, name, function in PATCHES:
        monkeypatch.setattr(cls, name, function, raising=False)
