"""The Janus engine: queues -> decoder -> optimized BMO logic -> IRB.

``JanusEngine`` implements the hardware datapath of paper Fig. 7:

* :meth:`submit` (step 1) takes software pre-execution requests;
* the pump decodes them into line-sized operations (step 2) and
  admits them to the operation queue (step 3), modelled by its
  capacity: at most ``operation_queue_entries`` per core in flight;
* each admitted operation pre-executes whatever sub-operations its
  available inputs allow, on the shared BMO units, writing results
  into an IRB entry (step 4);
* :meth:`service_write` (step 5) is called by the memory controller
  when the actual write arrives: it matches the IRB, validates the
  stored data copy, waits for in-flight pre-execution, refreshes any
  stale sub-operations, and hands a commit-ready context to its
  continuation.

Both run as simulator callbacks, in the slots a process per write or
per admitted operation (:class:`_PreExecution`) resumes in.
"""

from typing import Callable

from repro.bmo.base import ExternalInput
from repro.bmo.executor import BmoExecutor
from repro.bmo.pipeline import BmoPipeline
from repro.common.config import JanusConfig
from repro.janus.irb import IntermediateResultBuffer, IrbEntry
from repro.janus.queues import (
    PreExecOperation,
    PreExecRequest,
    PreExecRequestQueue,
    decode_request,
)
from repro.obs.metrics import MetricsScope
from repro.obs.tracer import NULL_TRACER
from repro.sim import SimEvent, Simulator


class JanusEngine:
    """Pre-execution datapath shared by all cores."""

    def __init__(self, sim: Simulator, pipeline: BmoPipeline,
                 executor: BmoExecutor, config: JanusConfig,
                 cores: int = 1, metrics=None, tracer=None,
                 scope: str = "janus", irb_scope: str = "irb",
                 owns=None):
        self.sim = sim
        self.pipeline = pipeline
        self.executor = executor
        self.cfg = config
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Shard ownership predicate (``line_addr -> bool``).  ``None``
        #: on the unsharded machine; the sharded machine sets it so
        #: each shard's engine only admits operations for lines it
        #: owns — a multi-line request spanning shards is decoded by
        #: every engine it touches, each keeping its own slice.
        self.owns = owns
        self.request_queue = PreExecRequestQueue(
            sim, capacity=config.scaled("request_queue_entries") * cores)
        #: Operation-queue capacity (Table 3): an operation that
        #: arrives while this many are pre-executing is dropped.
        self.max_inflight_ops = \
            config.scaled("operation_queue_entries") * cores
        self.irb = IntermediateResultBuffer(
            sim, capacity=config.scaled("irb_entries") * cores,
            max_age_ns=config.irb_max_age_ns,
            stats=metrics.scope(irb_scope) if metrics is not None
            else None,
            tracer=self.tracer)
        self._inflight_ops = 0
        #: Optional ``repro.faults.FaultInjector``: notified when an
        #: IRB entry's pre-execution completes, so campaigns can
        #: corrupt buffered results and prove invalidation catches
        #: them (stale results must never be silently consumed).
        self.injector = None
        self.stats = metrics.scope(scope) if metrics is not None \
            else MetricsScope("janus")
        # Hot metric handles: one registry lookup at construction
        # instead of a string-keyed dict probe per write/admit.
        self._c_requests = self.stats.counter("requests")
        self._c_ops_admitted = self.stats.counter("ops_admitted")
        self._c_ops_dropped_full = self.stats.counter("ops_dropped_full")
        self._c_subops_pre_executed = \
            self.stats.counter("subops_pre_executed")
        self._c_inflight_waits = self.stats.counter("inflight_waits")
        self._h_window_shortfall = \
            self.stats.histogram("window_shortfall_ns")
        self._c_data_mismatches = self.stats.counter("data_mismatches")
        self._c_fully_pre_executed = \
            self.stats.counter("fully_pre_executed")
        self._c_partially_pre_executed = \
            self.stats.counter("partially_pre_executed")
        # Subscribe the IRB to metadata-change notifications (§4.3.1).
        for bmo in pipeline.bmos:
            bmo.invalidation_hooks.append(self.irb.on_metadata_change)

    # -- software-facing entry points (via JanusInterface) ---------------
    def submit(self, request: PreExecRequest) -> None:
        """Step 1: enqueue a request and pump the pipeline."""
        self._c_requests.add()
        self.request_queue.submit(request)
        self._pump()

    def start_buffered(self, pre_id: int, thread_id: int) -> int:
        """PRE_START_BUF: release deferred requests, then pump."""
        released = self.request_queue.release_deferred(pre_id, thread_id)
        self._pump()
        return released

    def clear_thread(self, thread_id: int) -> None:
        """Thread termination clears its IRB entries (§4.6)."""
        self.irb.clear_thread(thread_id)

    def on_memory_swap(self, lo: int, hi: int) -> None:
        """OS swapped [lo, hi) out: drop affected entries (§4.6)."""
        self.irb.invalidate_range(lo, hi)

    # -- decode and admit -------------------------------------------------
    def _pump(self) -> None:
        while True:
            request = self.request_queue.pop_ready()
            if request is None:
                return
            for op in decode_request(request):
                self._admit(op)

    def _admit(self, op: PreExecOperation) -> None:
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
        self.sim._schedule_now(_PreExecution(self, target).run)

    # -- step 5: the actual write arrives -----------------------------------
    def service_write(self, thread_id: int, line_addr: int, data: bytes,
                      waiter: SimEvent, fn: Callable, *args) -> None:
        """Produce a commit-ready context for this write, then call
        ``fn(ctx, fully_pre_executed, *args)``.

        ``fn`` runs at once when nothing had to be waited for, else
        from the callback of the last wait: in-flight pre-execution or
        a run of the remaining sub-operations.  A sub-op's error fails
        ``waiter`` instead.  An unmatched write, whose context may
        have gone stale since, gets ``None`` for the flag.
        """
        try:
            entry = self.irb.match_write(thread_id, line_addr, data)
            if entry is None:
                ctx = self.pipeline.make_context(addr=line_addr, data=data)
                done = self.executor.start(ctx)
        except Exception as err:
            waiter.fail(err)
            return
        if entry is None:
            if done is None:
                fn(ctx, None, *args)
            else:
                done.then(waiter, fn, ctx, None, *args)
            return
        if entry.inflight is not None:
            # The write arrived before its pre-execution finished —
            # the program left an insufficient window (§4.4 guideline
            # 3).  Record the shortfall for the misuse detector.
            entry.inflight.then(waiter, self._pre_executed, entry,
                                thread_id, line_addr, data, self.sim.now,
                                waiter, fn, args)
            return
        self._consume(entry, line_addr, data, waiter, fn, args)

    def _pre_executed(self, entry: IrbEntry, thread_id: int,
                      line_addr: int, data: bytes, wait_start: int,
                      waiter: SimEvent, fn: Callable, args) -> None:
        self._c_inflight_waits.add()
        self._h_window_shortfall.observe(self.sim.now - wait_start)
        if self.tracer.enabled:
            self.tracer.complete(
                "inflight-wait", "janus",
                ("write-path", f"core{thread_id}"),
                start_ns=wait_start,
                dur_ns=self.sim.now - wait_start,
                args={"line_addr": line_addr})
        self._consume(entry, line_addr, data, waiter, fn, args)

    def _consume(self, entry: IrbEntry, line_addr: int, data: bytes,
                 waiter: SimEvent, fn: Callable, args) -> None:
        try:
            self.irb.consume(entry)
            ctx = entry.ctx
            if entry.data is not None and entry.data != data:
                # Stale data copy (§4.3.1 cause 1): every data-dependent
                # result must be recomputed with the fresh bytes.
                self._c_data_mismatches.add()
                graph = self.pipeline.graph
                data_dependent = {
                    name for name in ctx.completed
                    if ExternalInput.DATA
                    in graph.external_requirements(name)}
                self.pipeline.invalidate(ctx, data_dependent)
            ctx.addr = line_addr
            ctx.data = data
            done = self.executor.refresh(ctx)  # None: fully pre-executed
        except Exception as err:
            waiter.fail(err)
            return
        if done is None:
            self._c_fully_pre_executed.add()
            fn(ctx, True, *args)
        else:
            self._c_partially_pre_executed.add()
            done.then(waiter, self.executor.refresh_and_complete, ctx,
                      waiter, fn, ctx, False, *args)


class _PreExecution:
    """Steps 3-4 for one admitted operation, run as callbacks in the
    slots a process per operation resumed in.  It is the waiter of its
    own waits: an error fails the entry's in-flight event, if it made
    one (the write that matches the entry fails with it), and the
    operation leaves the queue either way."""

    __slots__ = ("engine", "entry", "done", "runnable", "start")

    def __init__(self, engine: JanusEngine, entry: IrbEntry):
        self.engine = engine
        self.entry = entry
        self.done = None

    def run(self) -> None:
        engine = self.engine
        entry = self.entry
        if entry.inflight is not None:
            # Serialize per-entry work: a merge may extend an entry
            # whose earlier sub-ops are still executing.
            entry.inflight.then(self, self.run)
            return
        self.done = entry.inflight = engine.sim.event("irb-entry-complete")
        ctx = entry.ctx
        runnable = engine.pipeline.graph.runnable_with(ctx.available_inputs)
        if ctx.completed:
            runnable = [name for name in runnable
                        if name not in ctx.completed]
        self.runnable = runnable
        self.start = engine.sim.now
        if not runnable:
            self._finish()
            return
        try:
            done = engine.executor.start(ctx, runnable)
        except Exception as err:
            self.fail(err)
            return
        done.then(self, self._finish)

    def _finish(self) -> None:
        engine = self.engine
        entry = self.entry
        if self.runnable:
            engine._c_subops_pre_executed.add(len(self.runnable))
            if engine.tracer.enabled:
                engine.tracer.complete(
                    "pre-execute", "janus", ("janus", "pre-exec"),
                    start_ns=self.start,
                    dur_ns=engine.sim.now - self.start,
                    args={"line_addr": entry.line_addr,
                          "subops": len(self.runnable)})
        entry.complete = True
        entry.inflight = None
        if engine.injector is not None:
            engine.injector.on_irb_complete(entry)
        self.done.succeed()
        engine._inflight_ops -= 1

    def fail(self, exc: BaseException) -> None:
        if self.done is not None:
            self.done.fail(exc)
        self.engine._inflight_ops -= 1
