"""The Janus engine: queues -> decoder -> optimized BMO logic -> IRB.

``JanusEngine`` implements the hardware datapath of paper Fig. 7:

* :meth:`submit` (step 1) takes software pre-execution requests;
* the pump decodes them into line-sized operations (step 2) and
  admits them to the operation queue (step 3);
* each admitted operation pre-executes whatever sub-operations its
  available inputs allow, on the shared BMO units, writing results
  into an IRB entry (step 4);
* :meth:`service_write` (step 5) is called by the memory controller
  when the actual write arrives: it matches the IRB, validates the
  stored data copy, waits for in-flight pre-execution, refreshes any
  stale sub-operations, and returns a commit-ready context.
"""

from repro.bmo.base import ExternalInput
from repro.bmo.executor import BmoExecutor
from repro.bmo.pipeline import BmoPipeline
from repro.common.config import JanusConfig
from repro.janus.irb import IntermediateResultBuffer, IrbEntry
from repro.janus.queues import (
    PreExecOperation,
    PreExecOperationQueue,
    PreExecRequest,
    PreExecRequestQueue,
    decode_request,
)
from repro.obs.metrics import MetricsScope
from repro.obs.tracer import NULL_TRACER
from repro.sim import Simulator


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
        self.operation_queue = PreExecOperationQueue(
            sim, capacity=config.scaled("operation_queue_entries") * cores)
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
        capacity = self.operation_queue._store.capacity
        if capacity is not None and self._inflight_ops >= capacity:
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

    # -- step 3/4: optimized BMO logic + IRB fill ----------------------------
    def _pre_execute(self, entry: IrbEntry):
        try:
            # Serialize per-entry work: a merge may extend an entry
            # whose earlier sub-ops are still executing.
            while entry.inflight is not None:
                yield entry.inflight
            done_event = self.sim.event("irb-entry-complete")
            entry.inflight = done_event
            ctx = entry.ctx
            runnable = [
                name for name in
                self.pipeline.graph.runnable_with(ctx.available_inputs)
                if name not in ctx.completed]
            if runnable:
                pre_start = self.sim.now
                yield from self.executor.run_subops(ctx, runnable)
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

    # -- step 5: the actual write arrives -----------------------------------
    def service_write(self, thread_id: int, line_addr: int, data: bytes):
        """Process: produce a commit-ready context for this write.

        Yields until all (remaining) sub-operations have executed.
        Returns ``(ctx, fully_pre_executed)``.
        """
        entry = self.irb.match_write(thread_id, line_addr, data)
        if entry is None:
            ctx = self.pipeline.make_context(addr=line_addr, data=data)
            yield from self.executor.run_subops(ctx)
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
