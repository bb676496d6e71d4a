"""Cores, the memory controller(s), and the assembled NVM system.

The machine supports N-way sharded memory controllers
(``SystemConfig.shards``): line addresses interleave across shards via
:class:`repro.mem.shard.ShardRouter`, and each shard owns its own
write queue, NVM channel group, scheduling policy, and (in janus mode)
pre-execution engine + IRB.  One functional memory, one BMO pipeline
(dedup table / counters / Merkle tree), and one BMO-unit pool stay
global — they model chip-wide metadata structures.  ``shards=1``
constructs exactly the classic single-controller machine (same scope
names, same event order), bit-identical to the pre-sharding system.
The full contract is documented in ``docs/sharding.md``.

The write path runs as simulator callbacks, with no process per
write.  Same-instant order decides unit, channel and write-queue
grants, so each callback takes the batch slot of the process step it
replaced (``tests/writepath_reference.py`` keeps those processes;
``tests/test_writepath_lockstep.py`` runs both in lockstep):

* :meth:`Core.clwb` creates one :class:`Writeback` event per line and
  queues :meth:`MemoryController.writeback` in the slot of the
  reference ``clwb`` process's first step; the next ``sfence`` joins
  the events;
* the writeback schedules the rest of the write after the cache
  transfer, where the process's delay resumed;
* a wait on an event — a sub-op call's done event, an IRB entry's
  in-flight pre-execution, an epoch-room gate — continues through
  :meth:`repro.sim.SimEvent.then`, inside the event's dispatch, where
  the waiting process resumed; a unit grant through
  :meth:`repro.sim.Resource.request` takes the slot a process granted
  the unit resumed in;
* ``_persist`` counts its acceptances down in a :class:`repro.sim.Join`:
  each :meth:`repro.mem.write_queue.WriteQueue.accept` ends with
  ``arrive`` in the slot of the finished ``accept`` process's
  dispatch, and the join's dispatch takes the slot the ``AllOf`` over
  those processes took;
* a step with nothing to wait for continues inside the same callback,
  as the process ran on without yielding, and the :class:`Writeback`
  triggers where the process finished; like any event it is
  dispatched only if an ``sfence`` already waits on it.

A step that raises fails the write's :class:`Writeback`, so
``sfence`` raises where it raised when the write was a process.  Ideal
mode's off-path work has no such waiter: its error stops the run.
"""

import itertools
import weakref
from typing import Callable, List, Optional

from repro.bmo.dedup import DedupTable
from repro.bmo.executor import BmoExecutor
from repro.bmo.pipeline import build_pipeline
from repro.bmo.policy import build_policy
from repro.common.config import SystemConfig
from repro.common.errors import SimulationError
from repro.common.rng import DeterministicRng
from repro.common.units import CACHE_LINE_BYTES, line_span
from repro.janus.api import JanusInterface
from repro.janus.engine import JanusEngine
from repro.mem.cache import CacheModel
from repro.mem.heap import NvmHeap
from repro.mem.memory import FunctionalMemory
from repro.mem.nvm_device import NvmDevice
from repro.mem.shard import ShardRouter
from repro.mem.write_queue import WriteEntry, WriteQueue
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.sim import Join, Resource, SimEvent, Simulator


class Writeback(SimEvent):
    """One cache-line writeback on its way to the persist domain.

    :meth:`Core.clwb` creates one per line and the next ``sfence``
    waits on it: it triggers when the write reaches the point its
    scheduling policy calls complete, and fails with the error of a
    step that raised.  It also carries the write's state from one
    write-path callback to the next.
    """

    __slots__ = ("policy", "thread_id", "line_addr", "critical",
                 "start", "mc_arrival", "bmo_done", "data", "ctx")

    def __init__(self, sim: Simulator, policy, thread_id: int,
                 line_addr: int, critical: bool):
        # SimEvent.__init__, flattened: one per written line.
        self.sim = sim
        self.name = "clwb"
        self._callbacks = []
        self.triggered = False
        self.value = None
        self._exc = None
        self.policy = policy
        self.thread_id = thread_id
        self.line_addr = line_addr
        self.critical = critical

    def fail(self, exc: BaseException) -> "Writeback":
        # The policy lets go of a failed write where it lets go of a
        # completed one (coalesced ends its in-flight count).
        self.policy.release(self)
        return SimEvent.fail(self, exc)


class MemoryController:
    """Write path: cache writeback -> scheduling policy -> persist.

    The mode-dependent tail of each writeback (when the BMOs run and
    what completion means for durability) lives in the controller's
    :class:`repro.bmo.policy.SchedulingPolicy`; the consistency
    contract per mode is documented in ``docs/scheduling-modes.md``.

    The persist point is acceptance into the write queue (ADR); the
    device write and any relocation traffic continue in the
    background.  Metadata lines (counter / remap entry) are persisted
    alongside the data; with *selective* metadata atomicity (§4.3)
    only consistency-critical writes (transaction commits) wait for
    the metadata acceptance, other writes let it drain lazily.
    """

    #: Line in the metadata region used to model metadata writebacks.
    METADATA_REGION_LINES = 1 << 14

    def __init__(self, system: "NvmSystem", shard_id: int = 0):
        # Back-references to the owner are weak throughout the machine,
        # so a finished system has no reference cycle and is freed by
        # reference counting as soon as its last user drops it.
        self.system = weakref.proxy(system)
        self.sim = system.sim
        self.cfg = system.cfg
        self.shard_id = shard_id
        #: Chip-global BMO machinery and functional NVM, held directly
        #: so the write path does not go through the weak proxy.
        self.pipeline = system.pipeline
        self.executor = system.executor
        self.nvm = system.nvm
        #: This shard's slice of the memory substrate.  On the
        #: unsharded machine these are the system-wide singletons.
        self.device = system.devices[shard_id]
        self.write_queue = system.write_queues[shard_id]
        self.janus = system.janus_engines[shard_id] \
            if system.janus_engines else None
        self.stats = system.metrics.scope(system.scope_name("mc",
                                                            shard_id))
        # Hot metric handles: resolved once, not per writeback.
        self._c_writebacks = self.stats.counter("writebacks")
        self._h_critical_write = \
            self.stats.histogram("critical_write_ns")
        self._c_cc_hits = self.stats.counter("counter_cache_hits")
        self._c_cc_misses = self.stats.counter("counter_cache_misses")
        self._c_writes_persisted = self.stats.counter("writes_persisted")
        self._c_metadata_lazy = self.stats.counter("metadata_lazy")
        self._c_metadata_atomic_waits = \
            self.stats.counter("metadata_atomic_waits")
        self._c_dedup_cancelled = \
            self.stats.counter("writes_cancelled_by_dedup")
        #: The system-wide span tracer (``repro.obs.tracer.Tracer``).
        self.tracer = system.tracer
        # Counter cache (Table 3: 512 KB, shared): on a read miss from
        # the device, a cached counter lets the OTP generation overlap
        # the data fetch (counter-mode's read-latency trick, §2.2);
        # a counter-cache miss serialises the counter fetch + AES.
        from repro.mem.cache import _SetAssocArray
        self._has_encryption = "encryption" in self.pipeline.by_name
        counter_entry_bytes = 16
        self._counter_cache = _SetAssocArray(
            self.cfg.cache.counter_cache_bytes, ways=16,
            line_bytes=counter_entry_bytes)
        self._metadata_base = (self.cfg.memory.capacity_bytes
                               - self.METADATA_REGION_LINES
                               * CACHE_LINE_BYTES)
        #: The scheduling policy for ``cfg.mode`` — owns the
        #: mode-dependent tail of every writeback.
        self.policy = build_policy(self)

    def read_decrypt_penalty_ns(self, line_addr: int,
                                streamed: bool) -> float:
        """Extra read latency for decrypting a line fetched from NVM.

        ``streamed`` marks tail lines of a sequential access whose
        fetch overlaps the previous lines' decryption.
        """
        if not self._has_encryption:
            return 0.0
        lat = self.cfg.bmo_latencies
        # Tag the counter cache by the line's metadata entry.
        hit = self._counter_cache.access(
            (line_addr // CACHE_LINE_BYTES) * 16)
        if hit:
            self._c_cc_hits.add()
            return 0.0 if streamed else lat.xor_ns
        self._c_cc_misses.add()
        if streamed:
            return self.cfg.core.stream_line_ns
        return self.cfg.memory.read_service_ns + lat.aes_ns \
            + lat.xor_ns

    def counter_cache_hit_rate(self) -> float:
        hits = self._c_cc_hits.value
        misses = self._c_cc_misses.value
        total = hits + misses
        return hits / total if total else 0.0

    def writeback(self, wb: "Writeback") -> None:
        """Start one cache-line writeback to the persist domain.

        ``wb`` triggers when the write reaches the point its
        scheduling policy calls complete — durable acceptance for the
        strict modes, the epoch buffer for ``async-epoch``.  This is
        what a ``clwb``'s completion — observed by the next
        ``sfence`` — waits for.
        """
        self._c_writebacks.add()
        wb.start = self.sim.now
        # Cache hierarchy -> memory controller transfer (~15 ns).
        self.sim._schedule(self.cfg.cache.writeback_ns, self._arrive, wb)

    def _arrive(self, wb: "Writeback") -> None:
        wb.data = self.system.volatile.read_line(wb.line_addr)
        self.policy.writeback(wb)

    def _trace(self, thread_id, line_addr, start, mc_arrival,
               bmo_done, persisted, critical) -> None:
        tracer = self.tracer
        if not tracer.enabled:
            return
        track = ("write-path", f"core{thread_id}")
        # The enclosing write span is the per-write record: its args
        # carry the full phase breakdown.
        tracer.complete(
            "write", "write", track, start_ns=start,
            dur_ns=persisted - start,
            args={"thread_id": thread_id, "line_addr": line_addr,
                  "mc_arrival_ns": mc_arrival, "bmo_done_ns": bmo_done,
                  "persisted_ns": persisted, "critical": critical})
        tracer.complete("transfer", "write-phase", track,
                        start_ns=start, dur_ns=mc_arrival - start)
        if bmo_done > mc_arrival:
            tracer.complete("bmo", "write-phase", track,
                            start_ns=mc_arrival,
                            dur_ns=bmo_done - mc_arrival)
        if persisted > bmo_done:
            tracer.complete("persist", "write-phase", track,
                            start_ns=bmo_done,
                            dur_ns=persisted - bmo_done)

    def _persist(self, ctx, critical: bool, waiter: SimEvent,
                 fn: Callable, *args, fresh: bool = False) -> None:
        """Commit BMO state and enter the persist domain, then call
        ``fn(*args)``: at once when nothing had to be waited for, else
        where the last wait ended.  An error fails ``waiter``.  Stale
        sub-ops re-run first, unless ``fresh`` says this callback ran
        or checked ``ctx``, so that no commit can have come between."""
        try:
            rerun = None if fresh else self._rerun_stale(ctx)
            accepted = None if rerun is not None \
                else self._accept(ctx, critical)
        except Exception as err:
            waiter.fail(err)
            return
        if rerun is not None:
            rerun.then(waiter, self._persist, ctx, critical, waiter, fn,
                       *args)
        elif accepted is not None:
            accepted.then(waiter, fn, *args)
        else:
            fn(*args)

    def _rerun_stale(self, ctx) -> Optional[SimEvent]:
        """Start re-running whatever went stale while the write was
        queued; returns the re-run's done event, or ``None`` when
        ``ctx`` is fresh.  The caller commits only once it is fresh.

        Janus mode already guarantees freshness; serialized/parallel
        contexts executed just now, but concurrent cores may
        interleave.
        """
        pipeline = self.pipeline
        stale = pipeline.stale_subops(ctx)
        if not stale:
            return None
        pipeline.invalidate(ctx, stale)
        return self.executor.start(ctx)

    def _accept(self, ctx, critical: bool) -> Optional[Join]:
        """Commit a fresh ``ctx`` and hand its lines to the write
        queues.  Returns the join that fires once every acceptance is
        done (the write is persisted), or ``None`` when none had to be
        waited for."""
        system = self.system
        action = self.pipeline.commit(ctx)
        accepted = Join(self.sim)
        if action.write_data:
            entry = WriteEntry(
                addr=action.device_addr, data=action.payload,
                on_drain=self._drain_to_nvm)
            # Route by the *device* address: dedup may have redirected
            # the payload to a shadow line on another shard, making
            # this a cross-shard transaction — the sfence barrier
            # (this join, awaited by the writeback) spans every
            # controller touched.
            accepted.count += 1
            system.write_queue_for(action.device_addr).accept(
                entry, accepted.arrive)
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
            accepted.count += 1
            system.write_queue_for(meta_addr).accept(meta_entry,
                                                     accepted.arrive)
            self._c_metadata_atomic_waits.add()
        if not accepted.count:
            self._c_writes_persisted.add()
            return None
        accepted.add_callback(self._count_persisted)
        return accepted

    def _count_persisted(self, accepted: Join) -> None:
        self._c_writes_persisted.add()

    def _metadata_line_for(self, addr: int, index: int) -> int:
        line = (addr // CACHE_LINE_BYTES + index) % \
            self.METADATA_REGION_LINES
        return self._metadata_base + line * CACHE_LINE_BYTES

    def _drain_to_nvm(self, entry: WriteEntry) -> None:
        self.nvm.write_line(entry.addr, entry.data)


class ShardedJanusFrontend:
    """Software-visible face of N per-shard Janus engines.

    Cores hold one :class:`repro.janus.api.JanusInterface`, which
    expects a single engine; on the sharded machine that "engine" is
    this frontend.  Requests with an address fan out to every engine
    whose shard owns at least one line of the request span (each
    engine's ``owns`` filter keeps only its slice of the decoded
    operations); data-only requests — whose lines are unknown until
    the write arrives — broadcast to every engine, because any shard
    may receive the eventual write (unconsumed duplicates age out or
    clear with the thread, exactly like any unmatched entry).
    Lifecycle calls broadcast.
    """

    def __init__(self, system: "NvmSystem"):
        self.engines = system.janus_engines
        self.router = system.router

    def submit(self, request) -> None:
        if request.addr is None:
            for engine in self.engines:
                engine.submit(request)
            return
        size = request.size or (len(request.data) if request.data
                                else 0)
        touched = []
        for line in line_span(request.addr, max(size, 1)):
            shard = self.router.shard_of(line)
            if shard not in touched:
                touched.append(shard)
        for shard in touched:
            self.engines[shard].submit(request)

    def start_buffered(self, pre_id: int, thread_id: int) -> int:
        released = 0
        for engine in self.engines:
            released += engine.start_buffered(pre_id, thread_id)
        return released

    def clear_thread(self, thread_id: int) -> None:
        for engine in self.engines:
            engine.clear_thread(thread_id)

    def on_memory_swap(self, lo: int, hi: int) -> None:
        for engine in self.engines:
            engine.on_memory_swap(lo, hi)


class Core:
    """One hardware thread: the API workload programs run against."""

    def __init__(self, system: "NvmSystem", core_id: int):
        self.system = weakref.proxy(system)
        self.sim = system.sim
        self.cfg = system.cfg
        self.core_id = core_id
        self.cache = CacheModel(self.cfg.cache,
                                memory_read_ns=self.cfg.memory.read_service_ns)
        self._outstanding: List = []
        self.current_txn_id = 0
        core = weakref.ref(self)
        self.api = JanusInterface(
            self.sim,
            system.janus_frontend if self.cfg.mode == "janus" else None,
            thread_id=core_id,
            transaction_id_provider=lambda: core().current_txn_id,
            issue_cost_ns=2 * self.cfg.core.instruction_ns * 4,
            pre_id_counter=system._pre_ids)
        self.stats = system.metrics.scope(f"core{core_id}")
        # Hot metric handles: resolved once, not per load/store/fence.
        self._c_reads = self.stats.counter("reads")
        self._c_stores = self.stats.counter("stores")
        self._c_clwbs = self.stats.counter("clwbs")
        self._c_fences = self.stats.counter("fences")
        self._h_sfence_stall = self.stats.histogram("sfence_stall_ns")

    # -- compute ---------------------------------------------------------
    def compute(self, instructions: int):
        """Charge ``instructions`` of core-local work."""
        yield self.sim.delay(
            instructions * self.cfg.core.instruction_ns)

    def _access_latency(self, addr: int, size: int,
                        is_read: bool = False) -> float:
        """Latency of touching [addr, addr+size) through the caches.

        The first line pays the full hierarchy latency; subsequent
        lines of the same (sequential) access stream behind the
        prefetcher at ``stream_line_ns`` per line.  Read misses that
        reach the device also pay the decryption penalty, moderated
        by the memory controller's counter cache.
        """
        stream_ns = self.cfg.core.stream_line_ns
        system = self.system
        latency = 0.0
        for index, line in enumerate(line_span(addr, size)):
            cost, level = self.cache.access_with_level(line)
            streamed = index > 0
            latency += min(cost, stream_ns) if streamed else cost
            if is_read and level == "mem":
                # The owning shard's controller holds this line's
                # counter-cache entry.
                latency += system.controller_for(line) \
                    .read_decrypt_penalty_ns(line, streamed=streamed)
        return latency

    # -- loads / stores -----------------------------------------------------
    def read(self, addr: int, size: int):
        """Process: load ``size`` bytes; returns them."""
        yield self.sim.delay(self._access_latency(addr, size,
                                                  is_read=True))
        self._c_reads.add()
        return self.system.volatile.read(addr, size)

    def store(self, addr: int, data: bytes):
        """Process: store ``data``; volatile until written back."""
        yield self.sim.delay(self._access_latency(addr, len(data)))
        self.system.volatile.write(addr, data)
        self._c_stores.add()

    # -- persistence primitives ----------------------------------------------
    def clwb(self, addr: int, size: int, critical: bool = False):
        """Issue writebacks for every line of [addr, addr+size).

        Non-blocking (like the instruction): completion is observed by
        the next :meth:`sfence`.
        """
        sim = self.sim
        for line in line_span(addr, size):
            # Route each line to its owning shard's controller; a
            # transaction touching several shards accumulates pending
            # writebacks on all of them, and the next sfence becomes
            # a barrier over every controller touched.
            controller = self.system.controller_for(line)
            wb = Writeback(sim, controller.policy, self.core_id, line,
                           critical)
            sim._schedule_now(controller.writeback, wb)
            self._outstanding.append(wb)
            self._c_clwbs.add()
        yield sim.delay(self.cfg.core.instruction_ns)

    def sfence(self):
        """Block until every outstanding writeback is persistent."""
        pending, self._outstanding = self._outstanding, []
        if pending:
            start = self.sim.now
            yield self.sim.all_of(pending)
            stall = self.sim.now - start
            self._h_sfence_stall.observe(stall)
            tracer = self.system.tracer
            if tracer.enabled and stall > 0:
                tracer.complete(
                    "sfence-stall", "core",
                    ("write-path", f"core{self.core_id}"),
                    start_ns=start, dur_ns=stall,
                    args={"writebacks": len(pending)})
        self._c_fences.add()
        if self.system.checker is not None:
            # Cross-shard sfence barrier: every controller this fence
            # waited on must agree the fence's durability contract
            # holds (strict shards: nothing pending for this core;
            # async-epoch shards: staleness debt within bound).
            self.system.checker.check_sfence(self.core_id)

    def persist(self, addr: int, size: int, critical: bool = False):
        """clwb + sfence convenience."""
        yield from self.clwb(addr, size, critical=critical)
        yield from self.sfence()


class NvmSystem:
    """The whole machine for one simulation run."""

    def __init__(self, config: SystemConfig, tracer: Optional[Tracer] = None,
                 injector=None):
        self.cfg = config.validate()
        self.sim = Simulator()
        self.rng = DeterministicRng(config.seed)
        #: Unified observability: one registry + one tracer for every
        #: component.  Tracing is off (:data:`NULL_TRACER`) unless a
        #: :class:`Tracer` is injected (CLI ``--trace``).
        self.metrics = MetricsRegistry()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        capacity = config.memory.capacity_bytes
        self.nvm = FunctionalMemory(capacity)
        self.volatile = FunctionalMemory(capacity)
        #: Shard address map (identity at ``shards=1``).
        self.router = ShardRouter.from_config(config)
        # Per-shard devices and write queues.  ``memory.channels`` is
        # per *controller* (as in real DDR-T/NVDIMM topologies), so a
        # sharded machine fronts ``shards x channels`` channels in
        # total — the added bandwidth/queue parallelism the shards
        # figure sweeps.  At shards=1 the single device gets exactly
        # the configured channels and the legacy scope names, so the
        # machine is bit-identical to the unsharded one.
        router = self.router
        local_addr = None
        if config.shards > 1:
            local_addr = lambda addr: router.to_local(addr)[1]
        self.devices = [
            NvmDevice(self.sim, config.memory,
                      stats=self.metrics.scope(
                          self.scope_name("nvm", sid)),
                      shard_id=sid, local_addr=local_addr)
            for sid in range(config.shards)
        ]
        self.write_queues = [
            WriteQueue(self.sim, config.memory, self.devices[sid],
                       stats=self.metrics.scope(
                           self.scope_name("wq", sid)),
                       tracer=self.tracer)
            for sid in range(config.shards)
        ]
        #: Shard-0 aliases: the unsharded machine's public attribute
        #: surface (tests, oracles, and tooling address the singleton
        #: through these).
        self.device = self.devices[0]
        self.write_queue = self.write_queues[0]

        # Carve the NVM address space: heap | dedup shadow | metadata.
        shadow_lines = 1 << 14
        metadata_lines = MemoryController.METADATA_REGION_LINES
        shadow_base = capacity - (metadata_lines + shadow_lines) \
            * CACHE_LINE_BYTES
        heap_limit = shadow_base
        dedup_table = DedupTable(shadow_base=shadow_base,
                                 shadow_lines=shadow_lines)
        copy_line = weakref.WeakMethod(self._copy_nvm_line)
        self.pipeline = build_pipeline(
            config, dedup_table=dedup_table,
            nvm_copy_line=lambda src, dst: copy_line()(src, dst))

        units = config.janus.scaled("bmo_units") * config.cores
        if config.janus.unlimited_resources:
            units = 1 << 16
        self.bmo_units = Resource(self.sim, capacity=units,
                                  name="bmo-units")
        self.executor = BmoExecutor(
            self.sim, self.pipeline, self.bmo_units,
            stats=self.metrics.scope("bmo"),
            pipeline_fraction=config.bmo_unit_pipeline_fraction,
            tracer=self.tracer)
        #: Per-shard pre-execution engines (empty unless janus mode).
        #: Every engine subscribes its IRB to the shared pipeline's
        #: invalidation hooks, so a metadata change on one shard
        #: invalidates stale pre-executed results on every shard
        #: (cross-shard invalidation).
        self.janus_engines: List[JanusEngine] = []
        if config.mode == "janus":
            for sid in range(config.shards):
                owns = None
                if config.shards > 1:
                    owns = (lambda addr, _sid=sid:
                            router.shard_of(addr) == _sid)
                self.janus_engines.append(JanusEngine(
                    self.sim, self.pipeline, self.executor,
                    config.janus, cores=config.cores,
                    metrics=self.metrics, tracer=self.tracer,
                    scope=self.scope_name("janus", sid),
                    irb_scope=self.scope_name("irb", sid),
                    owns=owns))
        self.janus: Optional[JanusEngine] = \
            self.janus_engines[0] if self.janus_engines else None
        #: What workload software binds to (``JanusInterface``): the
        #: single engine, or the sharded fan-out frontend.
        self.janus_frontend = None
        if self.janus_engines:
            self.janus_frontend = self.janus if config.shards == 1 \
                else ShardedJanusFrontend(self)
        #: Cross-shard write-ahead ordering for async-epoch flushers
        #: (``None`` everywhere else — the single-shard flusher is
        #: sequential, so ordering is free).  Must exist before the
        #: controllers build their policies.
        self.txn_coordinator = None
        if config.shards > 1 and config.mode == "async-epoch":
            from repro.bmo.policy import TxnOrderCoordinator
            self.txn_coordinator = TxnOrderCoordinator(self.sim)
        self.controllers = [MemoryController(self, sid)
                            for sid in range(config.shards)]
        self.controller = self.controllers[0]
        self.heap = NvmHeap(base=CACHE_LINE_BYTES,
                            size=heap_limit - CACHE_LINE_BYTES)
        #: Per-system PRE_ID allocator shared by every core's
        #: JanusInterface: pre_ids restart at 1 for each system, so
        #: snapshots and fuzz repros are reproducible across processes.
        self._pre_ids = itertools.count(1)
        self.cores = [Core(self, i) for i in range(config.cores)]
        self.stats = self.metrics.scope("system")
        #: Optional ``repro.validate.InvariantChecker``: wraps the
        #: pipeline commit point and audits cross-layer invariants
        #: (``repro run --check``).  Undo/redo logs self-register here.
        self.checker = None
        if config.check_invariants:
            from repro.validate.invariants import InvariantChecker
            self.checker = InvariantChecker(self).attach()
        #: Optional ``repro.faults.FaultInjector``: hooks into the
        #: device, the write queue, the Janus engine, and ``crash()``.
        self.injector = injector
        if injector is not None:
            injector.attach(self)

    # -- shard topology ------------------------------------------------------
    def scope_name(self, base: str, shard_id: int) -> str:
        """Metric scope for a per-shard component.

        The unsharded machine keeps the legacy names (``mc``, ``wq``,
        ``nvm``, ``janus``, ``irb``) so its metrics snapshot is
        byte-identical to the pre-sharding system; sharded machines
        suffix the shard id (``mc0``, ``mc1``, ...).
        """
        if self.cfg.shards == 1:
            return base
        return f"{base}{shard_id}"

    def controller_for(self, addr: int) -> "MemoryController":
        """The controller owning ``addr``'s line (shard routing)."""
        controllers = self.controllers
        if len(controllers) == 1:
            return controllers[0]
        return controllers[self.router.shard_of(addr)]

    def write_queue_for(self, addr: int) -> WriteQueue:
        """The write queue owning ``addr``'s line (shard routing)."""
        queues = self.write_queues
        if len(queues) == 1:
            return queues[0]
        return queues[self.router.shard_of(addr)]

    def _copy_nvm_line(self, src: int, dst: int) -> None:
        """Dedup relocation: move ciphertext between device lines.

        The stored bytes may carry media damage (stuck cells) that the
        source line's ECC code would correct on read — the code must
        travel with the ciphertext, because the raw copy bypasses the
        write path and no fresh code is minted for the shadow line.
        """
        self.nvm.write_line(dst, self.nvm.read_line(src))
        ecc = self.pipeline.by_name.get("ecc")
        if ecc is not None:
            code = ecc.codes.get(src)
            if code is not None:
                ecc.codes[dst] = code
            else:
                # Shadow lines are pooled; drop any stale code left by
                # a previous occupant.
                ecc.codes.pop(dst, None)

    # -- running -------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> float:
        return self.sim.run(until=until)

    def run_programs(self, programs) -> float:
        """Run one generator program per core to completion.

        ``programs`` maps core index -> generator (or a list in core
        order).  Returns the simulation time when all complete.
        """
        if isinstance(programs, dict):
            items = programs.items()
        else:
            items = enumerate(programs)
        procs = []
        for core_id, gen in items:
            if core_id >= len(self.cores):
                raise SimulationError(
                    f"program for core {core_id} but system has "
                    f"{len(self.cores)} cores")
            procs.append(self.sim.process(gen, name=f"program{core_id}"))
        all_done = self.sim.all_of(procs)
        self.sim.run(stop_event=all_done)
        elapsed = self.sim.now
        # Clean shutdown: let every shard's scheduling policy seal any
        # relaxed state (async-epoch closes its open epoch) so the
        # drain below makes a completed run fully durable.
        for controller in self.controllers:
            controller.policy.quiesce()
        # Drain background work (device writes, ideal-mode BMOs,
        # epoch flushes) so functional state is complete, without
        # charging it to the measured program time — those operations
        # are off the critical path by construction.
        self.sim.run()
        for proc in procs:
            if proc._exc is not None:
                raise proc._exc
        if not all_done.triggered:
            raise SimulationError(
                "programs deadlocked: event heap drained with "
                "programs still blocked")
        return elapsed

    # -- crash / recovery support ----------------------------------------------
    def crash(self) -> dict:
        """Simulate a power failure right now.

        ADR drains the accepted write queue (that is its guarantee),
        the volatile view is lost, and the persisted state (NVM image
        + unreconstructable metadata, which commits at the persist
        point) is returned for recovery.
        """
        # Accepted-but-undrained entries are in the ADR domain: the
        # residual-energy flush completes their device writes.  The
        # event loop does NOT run further — the cores stop dead.
        if self.injector is not None:
            # Power-failure faults strike first: metadata corruption
            # lands before the snapshot, drop/tear fates are applied
            # per entry inside the flush itself.
            self.injector.on_power_failure()
        for queue in self.write_queues:
            queue.adr_flush()
        snapshot = {
            "nvm_lines": dict(self.nvm._lines),
            "metadata": self.pipeline.unreconstructable_metadata(),
        }
        # Relaxed scheduling policies contribute their durable
        # watermark (async-epoch's flushed-epoch register) so recovery
        # can demote transactions from torn epochs.  On the sharded
        # machine the per-shard watermarks are merged into the minimum
        # cross-shard consistent cut (see docs/sharding.md); at
        # shards=1 this is the single policy's dict, verbatim.
        from repro.bmo.policy import merge_crash_metadata
        scheduling = merge_crash_metadata(
            [controller.policy for controller in self.controllers],
            self.txn_coordinator)
        if scheduling is not None:
            snapshot["metadata"]["scheduling"] = scheduling
        self.volatile = FunctionalMemory(self.cfg.memory.capacity_bytes)
        return snapshot
