"""Core event loop, events, and processes.

The clock is an **integer-nanosecond** counter.  Delays may be passed
as floats (configs keep sub-ns rates like ``instruction_ns = 0.25``);
they are quantized to the grid exactly once, at the scheduling
boundary, with round-half-up (:func:`quantize_ns`).  All arithmetic on
``Simulator.now`` is therefore exact, which kills float drift and the
cross-platform "time went backwards" hazard the old float clock had.

The scheduler is a calendar queue: a dict of
``timestamp -> [(fn, args), ...]`` buckets plus a small heap of
*distinct* timestamps.  Events at the same instant dispatch as one
batch, so the per-event cost is a list append on schedule and a list
index on dispatch; the heap is touched once per distinct timestamp
instead of once per event.  The batch is FIFO within a timestamp,
which is exactly the order a per-event ``(time, seq)`` heap produces.
``tests/test_scheduler_equivalence.py`` keeps that heap as a
reference oracle and checks the two in lockstep.

The one rule the hot paths rely on: only code running inside a
dispatch, where ``now == _batch_time``, may append ``(fn, args)`` to
the live batch ``_batch``, and doing so is exactly
:meth:`Simulator._schedule_now`.  Such code may also file a callback
at a later time straight into ``_buckets`` (creating a bucket pushes
its time onto ``_times``), which is exactly :meth:`Simulator._schedule`
with a positive delay.  The BMO sub-op hops (``Resource._occupy`` and
the executor's ``SubopSchedule``) do both, with no scheduling frame
between a hop and what it schedules; the heap oracle stands in for
``_batch`` and ``_buckets`` so that those appends still reach its
heap.

:meth:`Simulator.delay` is how a process sleeps: it returns a pooled
:class:`Delay` marker that :meth:`Process._step` recognizes and turns
into a direct re-schedule of the process — no event allocation, no
callback registration, no dispatch round-trip, just one dispatched
callback when the sleep ends.
"""

from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, List, Optional

from repro.common.errors import SimulationError


def quantize_ns(delay) -> int:
    """Quantize a non-negative delay to the integer-ns grid.

    Integers pass through; floats round half-up (``int(d + 0.5)``), so
    sub-ns quantities computed from rate-style configs (e.g.
    ``instructions * 0.25``) land on the nearest tick deterministically
    on every platform.
    """
    if type(delay) is int:
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return delay
    if delay < 0:
        raise SimulationError(f"negative delay {delay}")
    return int(delay + 0.5)


class SimEvent:
    """A one-shot event that processes can wait on.

    An event starts *pending*; calling :meth:`succeed` (or
    :meth:`fail`) triggers it exactly once, resuming every waiter at
    the current simulation time.
    """

    __slots__ = ("sim", "_callbacks", "triggered", "value", "_exc", "name")

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.name = name
        self._callbacks: List[Callable[["SimEvent"], None]] = []
        self.triggered = False
        self.value: Any = None
        self._exc: Optional[BaseException] = None

    def succeed(self, value: Any = None) -> "SimEvent":
        """Trigger the event, delivering ``value`` to all waiters.

        The event is dispatched only when someone waits on it: a waiter
        added later is scheduled on its own by :meth:`add_callback`, so
        a dispatch of an empty callback list would do nothing.
        """
        if self.triggered:
            raise SimulationError(f"event {self.name!r} already triggered")
        self.triggered = True
        self.value = value
        if self._callbacks:
            self.sim._schedule_now(self._dispatch)
        return self

    def fail(self, exc: BaseException) -> "SimEvent":
        """Trigger the event such that waiters see ``exc`` raised."""
        if self.triggered:
            raise SimulationError(f"event {self.name!r} already triggered")
        self.triggered = True
        self._exc = exc
        if self._callbacks:
            self.sim._schedule_now(self._dispatch)
        return self

    def add_callback(self, fn: Callable[["SimEvent"], None]) -> None:
        if self.triggered and not self._callbacks:
            # Already dispatched (or dispatching): call on next tick so
            # late waiters still resume.
            self.sim._schedule_now(fn, self)
        else:
            self._callbacks.append(fn)

    def then(self, waiter: "SimEvent", fn: Callable, *args) -> None:
        """Callback-style wait: once this event fires, call
        ``fn(*args)``, or fail ``waiter`` with this event's error.

        The call takes the slot a process parked here with ``yield``
        would have resumed in.
        """
        def resume(event: "SimEvent") -> None:
            if event._exc is not None:
                waiter.fail(event._exc)
            else:
                fn(*args)
        self.add_callback(resume)

    def _dispatch(self) -> None:
        callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            fn(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "triggered" if self.triggered else "pending"
        return f"<SimEvent {self.name!r} {state}>"


class Delay:
    """Pooled marker returned by :meth:`Simulator.delay`.

    Not an event: it has no callbacks, no trigger state, and must only
    be yielded — immediately — by the process that created it.
    :meth:`Process._step` consumes it, schedules the process's own
    resume directly, and returns the marker to the pool.  Never store
    one or yield it twice.
    """

    __slots__ = ("ns", "value")


class AllOf(SimEvent):
    """Triggers after every child event has triggered.

    The value is the list of child values in the given order.  If any
    child *failed*, the AllOf fails with that child's exception —
    waiting on a group must never swallow a member's error.
    """

    __slots__ = ("_children", "_remaining")

    def __init__(self, sim: "Simulator", events: Iterable[SimEvent]):
        # SimEvent.__init__, flattened (one AllOf per multi-dep wait).
        self.sim = sim
        self.name = "all_of"
        self._callbacks = []
        self.triggered = False
        self.value = None
        self._exc = None
        self._children = list(events)
        self._remaining = len(self._children)
        if self._remaining == 0:
            self.succeed([])
            return
        for child in self._children:
            child.add_callback(self._child_done)

    def _child_done(self, event: SimEvent) -> None:
        if self.triggered:
            return
        if event._exc is not None:
            self.fail(event._exc)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([c.value for c in self._children])


class Join(SimEvent):
    """Triggers at the last of ``count`` calls of :meth:`arrive`.

    The callback-side :class:`AllOf`: activities driven by callbacks
    finish by calling ``arrive`` where a finished process would have
    triggered, so the join fires in the slot ``AllOf`` fired in.
    ``count`` may grow while no arrival is pending.
    """

    __slots__ = ("count",)

    def __init__(self, sim: "Simulator", count: int = 0):
        self.sim = sim
        self.name = "join"
        self._callbacks = []
        self.triggered = False
        self.value = None
        self._exc = None
        self.count = count

    def arrive(self) -> None:
        self.count -= 1
        if not self.count:
            self.succeed()


class Process(SimEvent):
    """Runs a generator as a concurrent activity.

    The process itself is an event that triggers with the generator's
    return value, so processes can wait on each other.  A process is
    resumed only by what it yielded, so it never steps once it has
    triggered.
    """

    __slots__ = ("_gen", "_send", "_throw")

    def __init__(self, sim: "Simulator",
                 gen: Generator[SimEvent, Any, Any], name: str = ""):
        # SimEvent.__init__, flattened: one Process per activity, the
        # hottest allocation in the kernel after Delay markers.
        self.sim = sim
        self.name = name or getattr(gen, "__name__", "proc")
        self._callbacks = []
        self.triggered = False
        self.value = None
        self._exc = None
        self._gen = gen
        # Bound methods cached once: _step runs for every resume of
        # every process — the hottest call site in the kernel.
        self._send = gen.send
        self._throw = gen.throw
        sim._schedule_now(self._step, None, None)

    def _step(self, value: Any, exc: Optional[BaseException]) -> None:
        try:
            if exc is not None:
                target = self._throw(exc)
            else:
                target = self._send(value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as err:
            self.fail(err)
            return
        if target.__class__ is Delay:
            # Resume directly after the delay: no event object, no
            # callback list, one dispatched callback when it ends.
            sim = self.sim
            sim._schedule(target.ns, self._step, target.value, None)
            target.value = None
            pool = sim._delay_pool
            if len(pool) < 64:
                pool.append(target)
            return
        if not isinstance(target, SimEvent):
            self._step(None, SimulationError(
                f"process {self.name!r} yielded non-event {target!r}"))
            return
        target.add_callback(self._resume)

    def _resume(self, event: SimEvent) -> None:
        if event._exc is not None:
            self._step(None, event._exc)
        else:
            self._step(event.value, None)


class _Never:
    """The stop event of a run given none: never triggered."""

    __slots__ = ()
    triggered = False


_NEVER = _Never()


def _limit(until, profile, sampler):
    """:meth:`Simulator.run`'s limit with a hook attached: below every
    time (the clock never goes negative) for a profiler, else the
    earlier of ``until`` and just below the sampler's next boundary."""
    if profile is not None:
        return -1
    edge = sampler.next_ns - 1
    return edge if until is None or edge < until else until


def _drain_timed(steps, stop, profile) -> bool:
    """Dispatch ``steps`` like the plain drain of :meth:`Simulator.run`,
    timing each callback for ``profile``; returns whether ``stop``
    triggered."""
    clock = profile.clock
    record = profile.record
    for fn, args in steps:
        start = clock()
        fn(*args)
        record(fn, clock() - start)
        if stop.triggered:
            return True
    return False


class Simulator:
    """The event loop: a calendar queue drained by :meth:`run`."""

    def __init__(self) -> None:
        self.now = 0
        #: Callbacks dispatched so far (one per resumed process step,
        #: event dispatch, or scheduled callback).
        self.events: int = 0
        #: Optional :class:`repro.obs.profile.SimProfiler`.  Attach by
        #: assignment before :meth:`run`; it times every callback.
        self.profile = None
        #: Optional :class:`repro.obs.timeseries.TimeSeriesSampler`,
        #: driven by :meth:`run` whenever the clock advances.
        self.sampler = None
        #: Recycled :class:`Delay` markers (bounded free list).
        self._delay_pool: List[Delay] = []
        #: timestamp -> list of ``(fn, args)`` in schedule order.
        self._buckets = {}
        #: Heap of *distinct* pending timestamps (each pushed once,
        #: when its bucket is created).
        self._times: List[int] = []
        #: Batch currently being drained, its cursor, and its
        #: timestamp (-1 = no batch yet).  A batch interrupted by
        #: ``stop_event`` or by a raising callback persists here and
        #: resumes on the next :meth:`run`.
        self._batch: List = []
        self._batch_pos = 0
        self._batch_time = -1

    # -- scheduling ----------------------------------------------------
    def _schedule(self, delay, fn: Callable, *args) -> None:
        if type(delay) is not int:
            if delay < 0:
                raise SimulationError(f"negative delay {delay}")
            delay = int(delay + 0.5)
        elif delay < 0:
            raise SimulationError(f"negative delay {delay}")
        time = self.now + delay
        if time == self._batch_time:
            # Same-instant event scheduled while its batch is live (or
            # just drained at the current time): append to the batch so
            # it dispatches in FIFO order, exactly like a heap's seq
            # tie-breaker.
            self._batch.append((fn, args))
            return
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [(fn, args)]
            heappush(self._times, time)
        else:
            bucket.append((fn, args))

    def _schedule_now(self, fn: Callable, *args) -> None:
        # Hot path: called for every process step and event dispatch.
        if self.now == self._batch_time:
            self._batch.append((fn, args))
            return
        time = self.now
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [(fn, args)]
            heappush(self._times, time)
        else:
            bucket.append((fn, args))

    # -- public factory helpers ----------------------------------------
    def event(self, name: str = "") -> SimEvent:
        """Create a fresh pending event."""
        return SimEvent(self, name)

    def delay(self, ns, value: Any = None) -> Delay:
        """Sleep: ``yield sim.delay(ns)`` inside a process resumes it
        after ``ns`` (quantized like any delay) with ``value``.

        The process is resumed directly, by one dispatched callback.
        The returned marker must be yielded immediately and never
        reused.
        """
        pool = self._delay_pool
        marker = pool.pop() if pool else Delay()
        marker.ns = ns
        marker.value = value
        return marker

    def process(self, gen: Generator, name: str = "") -> Process:
        """Start ``gen`` as a concurrent process."""
        return Process(self, gen, name)

    def all_of(self, events: Iterable[SimEvent]) -> AllOf:
        """An event that fires when all ``events`` have fired."""
        return AllOf(self, events)

    # -- running ---------------------------------------------------------
    def run(self, until: Optional[float] = None,
            stop_event: Optional[SimEvent] = None) -> float:
        """Drain events until the queue empties, ``until`` is reached,
        or ``stop_event`` triggers.  Returns the final simulation time.

        When the queue drains before ``until`` and the run was *not*
        ended by ``stop_event``, the clock advances to ``until`` — the
        same result whether or not a (never-triggered) ``stop_event``
        was passed.  An ``until`` before the clock raises
        :class:`SimulationError`, like a negative delay.

        ``stop_event`` is read at entry and after every callback, so
        the run stops right after the callback that triggered it.  A
        run ended by ``stop_event`` or by a raising callback keeps its
        place in the current batch: the next call resumes after the
        last dispatched callback.

        The observability hooks are read once per call and reach the
        loop through its one comparison per batch, against ``until``,
        by lowering that limit: the slow step then drives a
        :attr:`sampler` before the batch that crosses its boundary
        (and once more at the end), or times every callback for a
        :attr:`profile`.  With no hook the drain does no hook work.
        """
        if until is not None and until < self.now:
            raise SimulationError(
                f"run(until={until}) is before the clock ({self.now})")
        stop = _NEVER if stop_event is None else stop_event
        profile = self.profile
        sampler = self.sampler
        limit = until if profile is None and sampler is None \
            else _limit(until, profile, sampler)
        buckets = self._buckets
        times = self._times
        batch = self._batch
        # C-level list iteration.  The iterator re-checks the length
        # each step, so same-instant callbacks appended during dispatch
        # are picked up, and it steps past an entry before the call, so
        # a raising callback counts as dispatched and is not replayed
        # on resume.  The cursor is read back from it only when the
        # run ends.
        steps = iter(batch)
        steps.__setstate__(self._batch_pos)
        # Callbacks dispatched by this call: the entries of every batch
        # it finished, less those a previous call had already run,
        # plus the cursor of the batch it ends in.
        dispatched = -self._batch_pos
        stopped = stop.triggered
        try:
            if not stopped and profile is not None:
                stopped = _drain_timed(steps, stop, profile)
            if not stopped:
                while True:
                    for fn, args in steps:
                        fn(*args)
                        if stop.triggered:
                            stopped = True
                            break
                    if stopped or not times:
                        break
                    time = times[0]
                    if limit is not None and time > limit:
                        if until is not None and time > until:
                            self.now = until
                            break
                        if sampler is not None and time >= sampler.next_ns:
                            self.now = time
                            sampler.on_advance(time)
                            limit = _limit(until, profile, sampler)
                        if profile is not None:
                            # Take the batch here and drain it timed,
                            # leaving ``steps`` spent for the plain one.
                            heappop(times)
                            dispatched += len(batch)
                            self.now = self._batch_time = time
                            batch = self._batch = buckets.pop(time)
                            steps = iter(batch)
                            if _drain_timed(steps, stop, profile):
                                stopped = True
                                break
                            continue
                    heappop(times)
                    dispatched += len(batch)
                    self.now = self._batch_time = time
                    batch = self._batch = buckets.pop(time)
                    steps = iter(batch)
        finally:
            pos = len(batch) - steps.__length_hint__()
            self._end_run(dispatched + pos, batch, pos)
        if until is not None and not times and not stopped:
            self.now = max(self.now, until)
        if sampler is not None and self.now >= sampler.next_ns:
            sampler.on_advance(self.now)
        return self.now

    def _end_run(self, dispatched: int, batch: List, pos: int) -> None:
        """Count a run's dispatches and park its batch cursor."""
        self.events += dispatched
        if pos < len(batch):
            self._batch_pos = pos
        else:
            # Drop a drained batch: its (fn, args) pairs would
            # otherwise keep their owners alive until the next batch
            # replaces it.
            self._batch = []
            self._batch_pos = 0
