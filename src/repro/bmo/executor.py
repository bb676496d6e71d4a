"""Event-driven execution of BMO sub-operations on shared units.

Three execution styles, matching the paper's design points:

* **serialized** — the BMOs run as monolithic blocks, back to back,
  occupying one unit for their summed latency (the baseline system):
  a unit grant callback, then one callback at the block's end, which
  runs every action in one loop (:meth:`BmoPipeline.execute_all`);
* **dataflow** — one list scheduler per :meth:`BmoExecutor.start`
  call.  It readies each sub-operation once its dependencies inside the call
  have finished, hands it to the shared BMO units (the pipelined-unit
  grant :meth:`repro.sim.Resource._occupy`, FIFO across every
  concurrent write and core), which hold a unit for the initiation
  interval and deliver the finish when the full latency has elapsed,
  runs the functional action then, and completes the call through a
  single event the caller waits on.  Both styles use the same
  pipelined-unit grant, so a unit's grant and release sit in the same
  slots whichever style holds it.  Contention across writes emerges
  from the shared unit pool; the scheduler
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
  then asks for a unit; the unit's grant callback is queued
  immediately, or from the ``release`` that hands the unit over;
* the grant callback schedules the unit release at +occupancy, then
  the finish callback at +latency;
* a finished sub-op with dependents in the call queues one callback
  that readies them in topological order.  When its only dependent
  in the call waits on nothing else (D1, E3 and I1–I8 in the default
  pipeline), that callback is the dependent's readiness itself.  A
  dependent that waits on two or more sub-ops of the call is readied
  one same-instant hop later still;
* a sub-op with zero latency runs at readiness without a unit (one the
  timing policy discounts to zero still takes a unit for zero time);
* the completion event fires directly when the call has a single
  target and one hop later otherwise.  An exception from a sub-op's
  action fails it instead, and reaches whoever waits on it: the write
  or pre-execution whose continuation it carries, or a process parked
  on it.

The write path (``repro.core.machine``) extends this contract to the
steps around the executor: whoever waits on a call's completion
continues inside its dispatch, where a process parked on it resumed.
"""

from typing import (Callable, Dict, FrozenSet, Iterable, NamedTuple,
                    Optional, Tuple)

from repro.bmo.base import BmoContext
from repro.bmo.pipeline import BmoPipeline
from repro.common.errors import SimulationError
from repro.obs.metrics import MetricsScope
from repro.obs.tracer import NULL_TRACER
from repro.sim import Resource, Simulator, quantize_ns
from repro.sim.engine import SimEvent

#: Distinct target sets whose call plans are cached per executor.  A
#: run sees a handful (full write, addr-only and data-only
#: pre-execution, and their stale remainders).
_PLAN_CACHE_SIZE = 64


class CallPlan(NamedTuple):
    """The dependency structure of one target set, restricted to it."""

    #: Each target's ``(total, occupancy, timed, run)``: its quantized
    #: latency and unit occupancy, whether it takes a unit (a positive
    #: latency), and its functional action (``None`` when timing-only).
    steps: Dict[str, Tuple[int, int, bool, Optional[Callable]]]
    #: Each target's dependencies inside the call.
    deps: Dict[str, Tuple[str, ...]]
    #: Each target's dependents inside the call, in topological order.
    dependents: Dict[str, Tuple[str, ...]]
    #: The sole in-call dependent of each target that has exactly one,
    #: when that dependent waits on nothing else in the call.
    solo: Dict[str, str]
    #: In-call dependency counts of the targets that wait on two or more.
    waiting: Dict[str, int]
    #: Dependencies outside the call, which must already be completed.
    outside: FrozenSet[str]


class BmoExecutor:
    """Schedules sub-operations of one pipeline on shared BMO units."""

    def __init__(self, sim: Simulator, pipeline: BmoPipeline,
                 units: Resource, stats: Optional[MetricsScope] = None,
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
        self.stats = stats or MetricsScope("bmo-executor")
        self.tracer = tracer if tracer is not None else NULL_TRACER
        # Hot metric handles: resolved once, not per sub-operation.
        self._c_subops_executed = self.stats.counter("subops_executed")
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
    def run_serialized(self, ctx: BmoContext, waiter: SimEvent,
                       fn: Callable, *args) -> None:
        """Run all BMOs as one monolithic, serial block, then call
        ``fn(*args)``; an error of the block fails ``waiter``.

        The block occupies a unit for its initiation interval and its
        results appear after the full serial latency — the same
        pipelined-engine model the dataflow path uses
        (:meth:`Resource._occupy`), so serialized vs. parallel
        compares latency composition, not unit counts.  The quantized
        occupancy/latency split is precomputed in ``__init__``, so the
        block takes exactly the quantized serial latency.
        """
        units = self.units
        units.request(units._occupy, self._serial_occupancy,
                      self._serial_total, self._serial_end,
                      (ctx, self.sim.now, waiter, fn, args))

    def _serial_end(self, ctx: BmoContext, start: int, waiter: SimEvent,
                    fn: Callable, args, _granted: int) -> None:
        try:
            self.pipeline.execute_all(ctx)
        except Exception as err:
            waiter.fail(err)
            return
        self._h_serialized_block.observe(self.sim.now - start)
        if self.tracer.enabled:
            self.tracer.complete(
                "serialized-bmos", "bmo", ("bmo", "serialized"),
                start_ns=start, dur_ns=self.sim.now - start,
                args={"addr": ctx.addr})
        fn(*args)

    # -- dataflow execution ------------------------------------------------
    def start(self, ctx: BmoContext,
              names: Optional[Iterable[str]] = None) -> Optional[SimEvent]:
        """Start ``names`` (default: all not yet completed) as a
        dependency-respecting dataflow on the shared units.

        Returns the event that fires when every requested sub-op has
        run (and fails with a sub-op's error), or ``None`` when
        nothing is left to run.
        """
        completed = ctx.completed
        plans = self._plans
        if names is None:
            targets = self._order
            if completed:
                targets = tuple([n for n in targets if n not in completed])
        else:
            targets = tuple(names)
            # A cached plan's key is already a set of names in
            # topological order: with nothing completed it is the
            # target tuple as given.
            if completed or targets not in plans:
                wanted = set(targets)
                targets = tuple([n for n in self._order
                                 if n in wanted and n not in completed])
        if not targets:
            return None
        plan = plans.get(targets)
        if plan is None:
            plan = self._plan(targets)
        if not plan.outside <= completed:
            self._reject(targets, completed)
        done = SimEvent(self.sim, "bmo-subops")
        SubopSchedule(self, ctx, targets, plan, done)
        return done

    def _plan(self, targets: Tuple[str, ...]) -> CallPlan:
        target_set = set(targets)
        graph = self.pipeline.graph
        subops = self._subops
        timing = self._op_timing
        # Actions are read when the plan is made, not when the
        # executor is: a caller may replace sub-op entries in between.
        steps = {n: timing[n] + (subops[n].latency_ns > 0, subops[n].run)
                 for n in targets}
        deps = {n: tuple(d for d in subops[n].deps if d in target_set)
                for n in targets}
        # Successors come in topological order: the order in which a
        # finished sub-op readies its dependents.
        dependents = {n: tuple(s for s in graph.successors(n)
                               if s in target_set)
                      for n in targets}
        waiting = {n: len(d) for n, d in deps.items() if len(d) > 1}
        solo = {n: d[0] for n, d in dependents.items()
                if len(d) == 1 and d[0] not in waiting}
        outside = frozenset(d for n in targets for d in subops[n].deps
                            if d not in target_set)
        plan = CallPlan(steps, deps, dependents, solo, waiting, outside)
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

    def refresh(self, ctx: BmoContext) -> Optional[SimEvent]:
        """Invalidate stale sub-ops and start what is left; the run's
        done event, or ``None`` when ``ctx`` is complete and fresh."""
        if ctx.addr is None or ctx.data is None:
            raise SimulationError("write context needs both addr and data")
        stale = self.pipeline.stale_subops(ctx)
        if stale:
            self._c_stale_rerun.add(len(stale))
            self.pipeline.invalidate(ctx, stale)
        return self.start(ctx)

    def refresh_and_complete(self, ctx: BmoContext, waiter: SimEvent,
                             fn: Callable, *args) -> None:
        """Bring ``ctx`` to a committed-ready state, then call
        ``fn(*args)``; a sub-op's error fails ``waiter``.

        Repeats :meth:`refresh` until nothing is left to run, and
        calls ``fn`` from that pass, so ``ctx`` is fresh when it runs.
        The Janus engine makes the first pass itself.
        """
        try:
            done = self.refresh(ctx)
        except Exception as err:
            waiter.fail(err)
            return
        if done is None:
            fn(*args)
        else:
            done.then(waiter, self.refresh_and_complete, ctx, waiter, fn,
                      *args)


class SubopSchedule:
    """The list scheduler of one :meth:`BmoExecutor.start` call.

    Driven entirely by simulator callbacks (see the module docstring
    for where each one sits in a same-instant batch).  Each runs
    inside a dispatch, so it appends what it queues at this instant to
    the live batch itself (the kernel's live-batch rule,
    ``repro.sim.engine``), and a readied sub-op takes a free unit
    without a :meth:`Resource.request` frame.  ``waiting`` counts
    the unfinished in-call dependencies of targets that wait on two or
    more; ``left`` counts targets not yet finished.
    """

    __slots__ = ("executor", "sim", "ctx", "targets", "steps", "deps",
                 "dependents", "solo", "waiting", "left", "done", "failed")

    def __init__(self, executor: BmoExecutor, ctx: BmoContext,
                 targets: Tuple[str, ...], plan: CallPlan,
                 done: SimEvent):
        self.executor = executor
        self.sim = executor.sim
        self.ctx = ctx
        self.targets = targets
        self.steps = plan.steps
        self.deps = plan.deps
        self.dependents = plan.dependents
        self.solo = plan.solo
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
                    self.sim._batch.append((self._ready, (name,)))
                elif hits == len(wait):
                    self.sim._batch.append((self._ready_later, (name,)))
                else:
                    self.waiting[name] -= hits

    def _ready_later(self, name: str) -> None:
        self.sim._batch.append((self._ready, (name,)))

    def _ready(self, name: str, notify: bool = True) -> bool:
        """Dependencies satisfied: time the sub-op and hand it to a
        unit, or run it now if it has no latency.  Returns whether it
        finished here."""
        sim = self.sim
        ready = sim.now
        total, occupancy, timed, _run = self.steps[name]
        try:
            if total:
                policy = self.executor.timing_policy
                if policy is not None:
                    total, occupancy = policy.adjust_timing(
                        name, self.ctx, total, occupancy)
            if timed:
                # ``units.request(units._occupy, ...)``, inlined: a
                # free unit's grant joins the live batch, a busy pool
                # queues it.
                units = self.executor.units
                grant = (units._occupy,
                         (occupancy, total, self._finish, (name, ready)))
                if units._in_use < units.capacity:
                    units._in_use += 1
                    sim._batch.append(grant)
                else:
                    units._waiters.append(grant)
                return False
        except Exception as err:
            self._fail(err)
            return False
        return self._finish(name, ready, None, notify)

    def _finish(self, name: str, ready: int, granted: Optional[int],
                notify: bool = True) -> bool:
        """Run the sub-op's action and count it finished: after its
        full latency from the unit grant at ``granted``, or at
        readiness (``granted`` is ``None``) when it has no latency.
        Returns whether it finished (its action did not raise)."""
        ctx = self.ctx
        run = self.steps[name][3]
        if run is not None:
            try:
                run(ctx)
            except Exception as err:
                self._fail(err)
                return False
        ctx.completed.add(name)
        executor = self.executor
        sim = self.sim
        if granted is not None:
            tracer = executor.tracer
            if tracer.enabled:
                tracer.complete(
                    name, "bmo", ("bmo", executor._subops[name].bmo),
                    start_ns=granted, dur_ns=sim.now - granted,
                    args={"addr": ctx.addr,
                          "unit_wait_ns": granted - ready})
        executor._c_subops_executed.value += 1
        hist = executor._h_subop.get(name)
        if hist is None:
            hist = executor._h_subop[name] = \
                executor.stats.histogram(f"subop.{name}_ns")
        hist.observe(sim.now - ready)
        if notify and self.dependents[name]:
            # A sole dependent that waits on nothing else is readied
            # in the slot the hand-off would have taken.
            succ = self.solo.get(name)
            if succ is None:
                sim._batch.append((self._release_dependents, (name,)))
            else:
                sim._batch.append((self._ready, (succ,)))
        self.left -= 1
        if not self.left:
            if len(self.targets) == 1:
                self.done.succeed()
            else:
                sim._batch.append((self.done.succeed, ()))
        return True

    def _release_dependents(self, name: str) -> None:
        waiting = self.waiting
        for succ in self.dependents[name]:
            if succ in waiting:
                count = waiting[succ] - 1
                waiting[succ] = count
                if not count:
                    self.sim._batch.append((self._ready, (succ,)))
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
