"""Event-driven execution of BMO sub-operations on shared units.

Three execution styles, matching the paper's design points:

* **serialized** — the BMOs run as monolithic blocks, back to back,
  occupying one unit for their summed latency (the baseline system);
* **dataflow** — one list scheduler per :meth:`BmoExecutor.run_subops`
  call.  It readies each sub-operation once its dependencies inside
  the call have finished, requests a BMO unit for it from the shared
  :class:`repro.sim.Resource` (FIFO across every concurrent write and
  core), holds the unit for the initiation interval, runs the
  functional action when the full latency has elapsed, and completes
  the call through a single event the caller waits on.  Contention
  across writes emerges from the shared unit pool; the scheduler
  itself is a plain object driven by simulator callbacks, not a
  process per sub-operation;
* **partial/resume** — the same scheduler restricted to a subset of
  sub-ops, used for pre-execution (run only what the available inputs
  allow) and for completing or refreshing a write whose pre-executed
  results were partially stale.

Same-instant ordering is part of the timing model: ties decide unit
grants, coalesced ledger charges, and commits racing sub-op reads.
The scheduler therefore dispatches its callbacks at fixed points in
the simulator's same-instant FIFO batch:

* the call starts with one callback, queued when the call is made;
  it readies the call's roots in topological order;
* a ready sub-op first consults :attr:`BmoExecutor.timing_policy`,
  then requests a unit; the grant queues the sub-op's start callback
  (immediately, or from the ``release`` that hands the unit over);
* the start callback schedules the unit release at +occupancy, then
  the finish callback at +latency;
* a finished sub-op with dependents in the call queues one callback
  that readies them in topological order; a dependent that waits on
  two or more sub-ops of the call is readied one same-instant hop
  later still;
* a sub-op with zero latency runs at readiness without a unit (one the
  timing policy discounts to zero still takes a unit for zero time);
* the completion event fires directly when the call has a single
  target and one hop later otherwise.  An exception from a sub-op's
  action fails it instead, and is thrown into the waiting process.
"""

from typing import Dict, FrozenSet, Iterable, NamedTuple, Optional, Tuple

from repro.bmo.base import BmoContext
from repro.bmo.pipeline import BmoPipeline
from repro.common.errors import SimulationError
from repro.obs.tracer import NULL_TRACER
from repro.sim import Resource, Simulator, quantize_ns
from repro.sim.engine import SimEvent
from repro.sim.stats import StatSet

#: Distinct target sets whose call plans are cached per executor.  A
#: run sees a handful (full write, addr-only and data-only
#: pre-execution, and their stale remainders).
_PLAN_CACHE_SIZE = 64


class CallPlan(NamedTuple):
    """The dependency structure of one target set, restricted to it."""

    #: Each target's dependencies inside the call.
    deps: Dict[str, Tuple[str, ...]]
    #: Each target's dependents inside the call, in topological order.
    dependents: Dict[str, Tuple[str, ...]]
    #: In-call dependency counts of the targets that wait on two or more.
    waiting: Dict[str, int]
    #: Dependencies outside the call, which must already be completed.
    outside: FrozenSet[str]


class BmoExecutor:
    """Schedules sub-operations of one pipeline on shared BMO units."""

    def __init__(self, sim: Simulator, pipeline: BmoPipeline,
                 units: Resource, stats: Optional[StatSet] = None,
                 pipeline_fraction: float = 0.25, tracer=None):
        if not 0.0 < pipeline_fraction <= 1.0:
            raise SimulationError(
                "pipeline_fraction must be in (0, 1]")
        self.sim = sim
        self.pipeline = pipeline
        self.units = units
        #: BMO units are pipelined engines: a sub-op occupies its unit
        #: for ``latency * pipeline_fraction`` (the initiation
        #: interval) while its results appear after the full latency.
        self.pipeline_fraction = pipeline_fraction
        self.stats = stats or StatSet("bmo-executor")
        self.tracer = tracer if tracer is not None else NULL_TRACER
        # Hot metric handles: resolved once, not per sub-operation.
        self._c_subops_executed = self.stats.counter("subops_executed")
        self._c_pre_exec_requests = \
            self.stats.counter("pre_exec_requests")
        self._c_stale_rerun = self.stats.counter("stale_subops_rerun")
        self._h_serialized_block = \
            self.stats.histogram("serialized_block_ns")
        self._h_subop: Dict[str, object] = {}
        graph = pipeline.graph
        self._subops = graph.subops
        self._order: Tuple[str, ...] = tuple(graph.topological_order)
        self._plans: Dict[Tuple[str, ...], CallPlan] = {}
        # Per-subop (total, occupancy) quantized once: latencies and
        # the pipeline fraction are fixed for the executor's lifetime,
        # so there is nothing to recompute per dispatched sub-op.
        self._op_timing = {}
        for n, op in graph.subops.items():
            if op.latency_ns > 0:
                total = quantize_ns(op.latency_ns)
                occupancy = min(total, quantize_ns(
                    op.latency_ns * pipeline_fraction))
            else:
                total = occupancy = 0
            self._op_timing[n] = (total, occupancy)
        #: Optional per-execution timing adjustor installed by a
        #: scheduling policy (``repro.bmo.policy``): called with
        #: ``(name, ctx, total, occupancy)`` before each timed sub-op
        #: and may return a discounted ``(total, occupancy)`` — the
        #: coalesced mode uses this to charge a shared integrity-tree
        #: node once per write batch.  Timing-only: functional
        #: execution and commit are untouched.
        self.timing_policy = None
        serial = pipeline.serial_latency()
        self._serial_total = quantize_ns(serial)
        self._serial_occupancy = min(
            self._serial_total, quantize_ns(serial * pipeline_fraction))

    # -- serialized baseline ---------------------------------------------
    def run_serialized(self, ctx: BmoContext):
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
        grant = self.units.acquire()
        try:
            yield grant
        except BaseException:
            self.units.cancel(grant)
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

    # -- dataflow execution ------------------------------------------------
    def run_subops(self, ctx: BmoContext,
                   names: Optional[Iterable[str]] = None):
        """Process: execute ``names`` (default: all not yet completed)
        as a dependency-respecting dataflow on the shared units.
        Completes when every requested sub-op has run.
        """
        completed = ctx.completed
        if names is None:
            targets = tuple([n for n in self._order
                             if n not in completed])
        else:
            wanted = set(names)
            targets = tuple([n for n in self._order
                             if n in wanted and n not in completed])
        if not targets:
            return ctx
        plan = self._plans.get(targets)
        if plan is None:
            plan = self._plan(targets)
        if not plan.outside <= completed:
            self._reject(targets, completed)
        done = SimEvent(self.sim, "bmo-subops")
        SubopSchedule(self, ctx, targets, plan, done)
        yield done
        return ctx

    def _plan(self, targets: Tuple[str, ...]) -> CallPlan:
        target_set = set(targets)
        graph = self.pipeline.graph
        subops = self._subops
        deps = {n: tuple(d for d in subops[n].deps if d in target_set)
                for n in targets}
        # Successors come in topological order: the order in which a
        # finished sub-op readies its dependents.
        dependents = {n: tuple(s for s in graph.successors(n)
                               if s in target_set)
                      for n in targets}
        waiting = {n: len(d) for n, d in deps.items() if len(d) > 1}
        outside = frozenset(d for n in targets for d in subops[n].deps
                            if d not in target_set)
        plan = CallPlan(deps, dependents, waiting, outside)
        if len(self._plans) < _PLAN_CACHE_SIZE:
            self._plans[targets] = plan
        return plan

    def _reject(self, targets, completed) -> None:
        target_set = set(targets)
        for name in targets:
            for dep in self._subops[name].deps:
                if dep not in target_set and dep not in completed:
                    raise SimulationError(
                        f"cannot run {name!r}: dependency {dep!r} neither "
                        f"completed nor scheduled")

    # -- pre-execution helpers -----------------------------------------------
    def pre_executable(self, ctx: BmoContext) -> list:
        """Sub-ops whose external requirements ``ctx`` can satisfy."""
        return self.pipeline.graph.runnable_with(ctx.available_inputs)

    def run_pre_execution(self, ctx: BmoContext):
        """Process: run everything the context's inputs allow."""
        runnable = self.pre_executable(ctx)
        self._c_pre_exec_requests.add()
        yield from self.run_subops(ctx, runnable)
        return ctx

    def refresh_and_complete(self, ctx: BmoContext):
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
            yield from self.run_subops(ctx, remaining)


class SubopSchedule:
    """The list scheduler of one :meth:`BmoExecutor.run_subops` call.

    Driven entirely by simulator callbacks (see the module docstring
    for where each one sits in a same-instant batch).  ``waiting``
    counts the unfinished in-call dependencies of targets that wait on
    two or more; ``left`` counts targets not yet finished.
    """

    __slots__ = ("executor", "sim", "ctx", "targets", "deps",
                 "dependents", "waiting", "left", "done", "failed")

    def __init__(self, executor: BmoExecutor, ctx: BmoContext,
                 targets: Tuple[str, ...], plan: CallPlan,
                 done: SimEvent):
        self.executor = executor
        self.sim = executor.sim
        self.ctx = ctx
        self.targets = targets
        self.deps = plan.deps
        self.dependents = plan.dependents
        self.waiting = dict(plan.waiting)
        self.left = len(targets)
        self.done = done
        self.failed = False
        self.sim._schedule_now(self._begin)

    def _begin(self) -> None:
        """Ready the roots in topological order.

        A zero-latency root finishes inside this callback.  Each of its
        dependents is then readied by a callback of its own, queued at
        the dependent's place in topological order (one more hop if it
        waits on two or more sub-ops), not by the root's hand-off
        callback: those are the slots the lockstep reference in
        ``tests/test_executor_lockstep.py`` gives them.
        """
        deps = self.deps
        early = None
        for name in self.targets:
            wait = deps[name]
            if not wait:
                if self._ready(name, False):
                    if early is None:
                        early = set()
                    early.add(name)
            elif early:
                hits = sum(1 for dep in wait if dep in early)
                if not hits:
                    continue
                if len(wait) == 1:
                    self.sim._schedule_now(self._ready, name)
                elif hits == len(wait):
                    self.sim._schedule_now(self._ready_later, name)
                else:
                    self.waiting[name] -= hits

    def _ready_later(self, name: str) -> None:
        self.sim._schedule_now(self._ready, name)

    def _ready(self, name: str, notify: bool = True) -> bool:
        """Dependencies satisfied: time the sub-op and request a unit,
        or run it now if it has no latency.  Returns whether it
        finished here."""
        executor = self.executor
        ready = self.sim.now
        total, occupancy = executor._op_timing[name]
        try:
            if total and executor.timing_policy is not None:
                total, occupancy = executor.timing_policy.adjust_timing(
                    name, self.ctx, total, occupancy)
            op = executor._subops[name]
            if op.latency_ns > 0:
                executor.units.request(self._start, name, ready, total,
                                       occupancy)
                return False
            op.execute(self.ctx)
        except Exception as err:
            self._fail(err)
            return False
        self._finished(name, ready, notify)
        return True

    def _start(self, name: str, ready: int, total: int,
               occupancy: int) -> None:
        """Unit granted: free it after the initiation interval, finish
        after the full latency."""
        sim = self.sim
        sim._schedule(occupancy, self.executor.units.release)
        sim._schedule(total, self._finish, name, ready, sim.now)

    def _finish(self, name: str, ready: int, exec_start: int) -> None:
        executor = self.executor
        op = executor._subops[name]
        try:
            op.execute(self.ctx)
        except Exception as err:
            self._fail(err)
            return
        if executor.tracer.enabled:
            executor.tracer.complete(
                name, "bmo", ("bmo", op.bmo),
                start_ns=exec_start, dur_ns=self.sim.now - exec_start,
                args={"addr": self.ctx.addr,
                      "unit_wait_ns": exec_start - ready})
        self._finished(name, ready)

    def _finished(self, name: str, ready: int, notify: bool = True) -> None:
        executor = self.executor
        sim = self.sim
        executor._c_subops_executed.add()
        hist = executor._h_subop.get(name)
        if hist is None:
            hist = executor._h_subop[name] = \
                executor.stats.histogram(f"subop.{name}_ns")
        hist.observe(sim.now - ready)
        if notify and self.dependents[name]:
            sim._schedule_now(self._release_dependents, name)
        self.left -= 1
        if not self.left:
            if len(self.targets) == 1:
                self.done.succeed()
            else:
                sim._schedule_now(self.done.succeed)

    def _release_dependents(self, name: str) -> None:
        waiting = self.waiting
        for succ in self.dependents[name]:
            if succ in waiting:
                count = waiting[succ] - 1
                waiting[succ] = count
                if not count:
                    self.sim._schedule_now(self._ready, succ)
            else:
                self._ready(succ)

    def _fail(self, err: Exception) -> None:
        if self.failed:
            return
        self.failed = True
        if len(self.targets) == 1:
            self.done.fail(err)
        else:
            self.sim._schedule_now(self.done.fail, err)
