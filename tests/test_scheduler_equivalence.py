"""The calendar-queue dispatch loop vs the per-event heap it replaced.

:class:`HeapSimulator` keeps the original ``(time, seq, fn, args)``
heap loop verbatim as the reference oracle.  The bucketed dispatcher
is a pure throughput optimization: for any program it must dispatch
the same callbacks in the same order at the same times, count the
same number of events, and leave the same final clock.  These tests
prove it three ways — seeded random event programs run in lockstep,
full workload runs compared end to end, and the stop/until edge
semantics pinned explicitly.
"""

from heapq import heappop, heappush
from typing import List, Optional, Sequence

import pytest

import repro.core.machine
from repro.common.errors import ReproError, SimulationError
from repro.common.rng import DeterministicRng
from repro.harness.runner import run_point
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import SimProfiler
from repro.obs.timeseries import TimeSeriesSampler
from repro.sim import Join, Resource, Simulator
from repro.sim.engine import _NEVER, SimEvent
from repro.validate import OracleMismatch


class HeapSlot:
    """The live batch, or one calendar bucket, as the heap sees it:
    an append pushes its ``(fn, args)`` at ``time``, or at the clock
    when ``time`` is ``None``."""

    __slots__ = ("sim", "time")

    def __init__(self, sim: "HeapSimulator", time: Optional[int] = None):
        self.sim = sim
        self.time = time

    def append(self, entry: tuple) -> None:
        sim = self.sim
        fn, args = entry
        sim._push(sim.now if self.time is None else self.time, fn, args)


class HeapCalendar:
    """The calendar's buckets as the heap sees them: every time has
    one, so a hot path that files into ``_buckets`` only appends."""

    __slots__ = ("sim",)

    def __init__(self, sim: "HeapSimulator"):
        self.sim = sim

    def get(self, time: int) -> HeapSlot:
        return HeapSlot(self.sim, time)


class HeapSimulator(Simulator):
    """The per-event heap scheduler, kept verbatim as the oracle.

    Every event is one ``(time, seq, fn, args)`` heap entry; ``seq``
    breaks same-instant ties in schedule order, which is the FIFO
    order the calendar queue's batches reproduce.  The hot paths that
    append to the live batch or file into a bucket themselves (the
    kernel's live-batch rule) reach the heap through
    :class:`HeapSlot` and :class:`HeapCalendar`, in schedule order.
    """

    def __init__(self) -> None:
        super().__init__()
        self._heap: List = []
        self._seq = 0
        self._batch = HeapSlot(self)
        self._buckets = HeapCalendar(self)

    def _schedule(self, delay, fn, *args) -> None:
        if type(delay) is not int:
            if delay < 0:
                raise SimulationError(f"negative delay {delay}")
            delay = int(delay + 0.5)
        elif delay < 0:
            raise SimulationError(f"negative delay {delay}")
        self._seq += 1
        heappush(self._heap, (self.now + delay, self._seq, fn, args))

    def _schedule_now(self, fn, *args) -> None:
        self._seq += 1
        heappush(self._heap, (self.now, self._seq, fn, args))

    def _push(self, time, fn, args) -> None:
        self._seq += 1
        heappush(self._heap, (time, self._seq, fn, args))

    def run(self, until: Optional[float] = None,
            stop_event: Optional[SimEvent] = None) -> float:
        heap = self._heap
        while heap:
            if stop_event is not None and stop_event.triggered:
                break
            time, _seq, fn, args = heap[0]
            if until is not None and time > until:
                self.now = until
                return self.now
            heappop(heap)
            if time < self.now:
                raise SimulationError("time went backwards")
            self.now = time
            self.events += 1
            fn(*args)
        stopped = stop_event is not None and stop_event.triggered
        if until is not None and not heap and not stopped:
            self.now = max(self.now, until)
        return self.now


class HookedLoopSimulator(Simulator):
    """The separate loop profiled and sampled runs took before the one
    loop absorbed it, kept verbatim as the oracle for the hooks: an
    indexed drain that reads the stop event before each callback,
    times each callback for a profiler, and drives a sampler at each
    clock advance (before the batch at the new time dispatches) and
    once more at the end."""

    def run(self, until: Optional[float] = None,
            stop_event: Optional[SimEvent] = None) -> float:
        if until is not None and until < self.now:
            raise SimulationError(
                f"run(until={until}) is before the clock ({self.now})")
        profile = self.profile
        sampler = self.sampler
        if profile is not None:
            clock = profile.clock
            record = profile.record
        stop = _NEVER if stop_event is None else stop_event
        buckets = self._buckets
        times = self._times
        batch = self._batch
        pos = self._batch_pos
        dispatched = -pos
        stopped = False
        try:
            while True:
                while pos < len(batch) and not stop.triggered:
                    fn, args = batch[pos]
                    pos += 1
                    if profile is None:
                        fn(*args)
                    else:
                        start = clock()
                        fn(*args)
                        record(fn, clock() - start)
                if stop.triggered:
                    stopped = True
                    break
                if not times:
                    break
                time = times[0]
                if until is not None and time > until:
                    self.now = until
                    break
                heappop(times)
                dispatched += pos
                self.now = time
                if sampler is not None and time >= sampler.next_ns:
                    sampler.on_advance(time)
                self._batch_time = time
                batch = self._batch = buckets.pop(time)
                pos = 0
        finally:
            self._end_run(dispatched + pos, batch, pos)
        if until is not None and not times and not stopped:
            self.now = max(self.now, until)
        if sampler is not None and self.now >= sampler.next_ns:
            sampler.on_advance(self.now)
        return self.now


# -- lockstep program oracle ------------------------------------------------
class SchedulerPoke(ReproError):
    """Error a ``fail`` op triggers a shared event with — a stand-in
    for a sub-op that raises."""


def build_scheduler_program(rng, workers: int = 6, steps: int = 24,
                            shared_events: int = 4) -> List[List[tuple]]:
    """Pre-generate a random event program from ``rng``.

    The program is pure data (one op script per worker), so the exact
    same script can drive any number of :class:`Simulator` instances —
    that is what makes the scheduler comparison a true lockstep rather
    than two independently random runs.  The vocabulary covers every
    way the kernel lets an activity wait.  Process side: pooled delays
    (integer *and* float, to exercise quantization), one-shot event
    signal/fail/wait, ``all_of`` joins, process spawns and same-instant
    zero-delay bursts.  Callback side, as the write path runs them:
    ``Resource.request`` with a release after a seeded service time
    (zero included, so hand-overs land in the instant they are
    granted), ``SimEvent.then`` on a shared event that may have
    failed, and a ``Join`` whose arrivals are scheduled at seeded
    delays.
    """
    program: List[List[tuple]] = []
    for _ in range(workers):
        script: List[tuple] = []
        for _ in range(steps):
            roll = rng.random()
            if roll < 0.22:
                script.append(("delay", rng.choice([0, 1, 2.5, 4, 9])))
            elif roll < 0.32:
                script.append(("signal", rng.randrange(shared_events)))
            elif roll < 0.36:
                script.append(("fail", rng.randrange(shared_events)))
            elif roll < 0.43:
                script.append(("wait", rng.randrange(shared_events)))
            elif roll < 0.60:
                script.append(("request", rng.choice([0, 1.5, 3, 6])))
            elif roll < 0.70:
                script.append(("then", rng.randrange(shared_events)))
            elif roll < 0.80:
                script.append(("join", tuple(
                    rng.choice([0, 1, 2, 4, 6.5])
                    for _ in range(rng.randrange(1, 4)))))
            elif roll < 0.86:
                script.append(("all_of", tuple(
                    rng.choice([1, 2, 4, 6.5])
                    for _ in range(rng.randrange(2, 4)))))
            elif roll < 0.92:
                script.append(("spawn", rng.choice([0, 1, 3]),
                               rng.choice([2, 5.5])))
            else:
                script.append(("burst", rng.randrange(2, 5)))
        program.append(script)
    return program


class SchedulerBomb(Exception):
    """Raised out of :meth:`Simulator.run` by a unit-release callback
    a ``raise`` segment picks."""


class Countdown:
    """Fires once, at the ``n``-th :meth:`tick` after :meth:`arm`."""

    def __init__(self) -> None:
        self.left = 0
        self.fire = None

    def arm(self, n: int, fire) -> None:
        self.left, self.fire = n, fire

    def tick(self) -> None:
        if self.fire is not None:
            self.left -= 1
            if not self.left:
                fire, self.fire = self.fire, None
                fire()


def run_segments(sim, segments, trace, stopper: Countdown,
                 bomber: Countdown) -> List[bool]:
    """Drive ``sim`` through ``run()`` calls, one per segment, then
    run it to the end; note each call's return in ``trace``.

    Segments: ``("stop", k)`` stops right after the ``k``-th noted
    step from now; ``("entry",)`` passes a stop event that has already
    triggered; ``("until", dt, k)`` is ``("stop", k)`` with ``until``
    ``dt`` past the clock besides; ``("raise", k)`` makes the ``k``-th
    unit release from now raise out of the run.  Returns, per segment,
    whether its call entered mid-batch (a cursor left by the previous
    call).
    """
    mid_batch = []

    def bomb():
        raise SchedulerBomb()

    for segment in segments:
        kind = segment[0]
        mid_batch.append(sim._batch_pos > 0)
        stop = sim.event("stop")
        stopper.arm(0, None)
        bomber.arm(0, None)
        try:
            if kind == "stop":
                stopper.arm(segment[1], stop.succeed)
                sim.run(stop_event=stop)
            elif kind == "entry":
                stop.succeed()
                sim.run(stop_event=stop)
            elif kind == "until":
                stopper.arm(segment[2], stop.succeed)
                sim.run(until=sim.now + segment[1], stop_event=stop)
            elif kind == "raise":
                bomber.arm(segment[1], bomb)
                sim.run()
            else:  # pragma: no cover - vocabulary guard
                raise ValueError(f"unknown run segment {segment!r}")
        except SchedulerBomb:
            kind = "raised"
        trace.append(("run", kind, stop.triggered, sim.now, sim.events))
    stopper.arm(0, None)
    bomber.arm(0, None)
    sim.run()
    return mid_batch


def run_scheduler_program(sim_cls, program: Sequence[Sequence[tuple]],
                          segments: Sequence[tuple] = ()) -> dict:
    """Execute a pre-generated program on a fresh ``sim_cls``; return
    the full observable outcome: the dispatch-ordered trace of
    completed ops and callbacks (worker, step, sim-time, what) and of
    the returns of the :func:`run_segments` calls, the final clock, the
    dispatched-event count, and the resource's end state.  With no
    ``segments`` the program runs in one ``run()``."""
    sim = sim_cls()
    stopper, bomber = Countdown(), Countdown()
    n_shared = 1 + max((op[1] for script in program for op in script
                        if op[0] in ("signal", "fail", "wait", "then")),
                       default=0)
    shared = [sim.event(f"shared{i}") for i in range(n_shared)]
    resource = Resource(sim, capacity=2, name="lockstep-unit")
    procs: dict = {}
    trace: List[tuple] = []

    def child(delay):
        yield sim.delay(delay)
        return delay

    def note(wid, step, what):
        trace.append((wid, step, sim.now, what))
        stopper.tick()

    def granted(wid, step, service):
        note(wid, step, "granted")
        sim._schedule(service, released, wid, step)

    def released(wid, step):
        resource.release()
        note(wid, step, "released")
        bomber.tick()

    def waiter(wid, step):
        event = sim.event("waiter")
        event.add_callback(lambda ev: note(wid, step, "failed"))
        return event

    def worker(wid: int, script):
        for step, op in enumerate(script):
            kind = op[0]
            try:
                if kind == "delay":
                    yield sim.delay(op[1])
                elif kind in ("signal", "fail"):
                    ev = shared[op[1]]
                    if not ev.triggered:
                        if kind == "signal":
                            ev.succeed((wid, step))
                        else:
                            ev.fail(SchedulerPoke(f"w{wid} step {step}"))
                elif kind == "wait":
                    yield shared[op[1]]
                elif kind == "request":
                    resource.request(granted, wid, step, op[1])
                elif kind == "then":
                    shared[op[1]].then(waiter(wid, step), note, wid, step,
                                       "then")
                elif kind == "join":
                    join = Join(sim, len(op[1]))
                    for delay in op[1]:
                        sim._schedule(delay, join.arrive)
                    join.then(waiter(wid, step), note, wid, step, "joined")
                    yield join
                elif kind == "all_of":
                    yield sim.all_of([sim.process(child(d), name="child")
                                      for d in op[1]])
                elif kind == "spawn":
                    children = [sim.process(child(op[2]), name="spawned")
                                for _ in range(op[1])]
                    if children:
                        yield sim.all_of(children)
                elif kind == "burst":
                    for _ in range(op[1]):
                        yield sim.delay(0)
                else:  # pragma: no cover - vocabulary guard
                    raise ValueError(f"unknown scheduler op {op!r}")
            except SchedulerPoke:
                note(wid, step, "poked")
                continue
            note(wid, step, kind)

    for wid, script in enumerate(program):
        procs[wid] = sim.process(worker(wid, script), name=f"w{wid}")
    mid_batch = run_segments(sim, segments, trace, stopper, bomber)
    return {
        "mid_batch": mid_batch,
        "trace": trace,
        "final_now": sim.now,
        "events": sim.events,
        "resource": (resource.in_use, resource.queue_length),
        "finished": sorted(wid for wid, p in procs.items()
                           if p.triggered),
    }


def hooked_simulator(profile: bool, sample: bool):
    """The production kernel with a profiler and/or a sampler (every
    3 ns, so most batches cross a boundary) attached: each hook sends
    batches through the loop's slow step."""
    def make() -> Simulator:
        sim = Simulator()
        if profile:
            sim.profile = SimProfiler()
        if sample:
            sim.sampler = TimeSeriesSampler(3).bind(MetricsRegistry())
        return sim
    return make


#: The production kernel's one loop, bare and with each set of
#: observability hooks, each checked against the heap.
LOOPS = (("bucket", Simulator),
         ("profiled", hooked_simulator(True, False)),
         ("sampled", hooked_simulator(False, True)),
         ("profiled+sampled", hooked_simulator(True, True)))


def check_scheduler_equivalence(rng, workers: int = 6, steps: int = 24,
                                rounds: int = 1, segments=None) -> None:
    """Raise :class:`OracleMismatch` unless the calendar queue's loop,
    with and without hooks, reproduces the reference heap's behaviour
    — same dispatch order, same clocks, same dispatched-event count —
    on ``rounds`` random programs drawn from ``rng``.
    ``segments(rng)``, when given, draws each round's
    :func:`run_segments` plan."""
    for round_no in range(rounds):
        program = build_scheduler_program(rng, workers=workers,
                                          steps=steps)
        plan = segments(rng) if segments is not None else ()
        ref = run_scheduler_program(HeapSimulator, program, plan)
        # The heap has no batches: where a call entered is the bucket
        # loops' own business.
        ref.pop("mid_batch")
        for label, sim_cls in LOOPS:
            got = run_scheduler_program(sim_cls, program, plan)
            got.pop("mid_batch")
            if ref == got:
                continue
            for key in ("trace", "final_now", "events", "resource",
                        "finished"):
                if ref[key] != got[key]:
                    detail = f"{key}: heap={ref[key]!r} {label}={got[key]!r}"
                    if key == "trace":
                        for i, (a, b) in enumerate(zip(ref["trace"],
                                                       got["trace"])):
                            if a != b:
                                detail = (f"trace[{i}]: heap={a!r} "
                                          f"{label}={b!r}")
                                break
                        else:
                            detail = (f"trace length "
                                      f"{len(ref['trace'])} != "
                                      f"{len(got['trace'])}")
                    raise OracleMismatch(
                        f"scheduler lockstep diverged on round "
                        f"{round_no} ({plan}): {detail}",
                        diff=[("heap", ref), (label, got)])


# -- tests ------------------------------------------------------------------
#: The production loop and the oracle, under their historical names.
SIMULATORS = pytest.mark.parametrize(
    "sim_cls", [Simulator, HeapSimulator], ids=["bucket", "heap"])


def test_random_programs_run_in_lockstep():
    """Six seeded random programs over every way to wait — delays,
    signals and failures, process and callback joins, unit requests,
    ``then`` continuations and spawns — must behave identically under
    both schedulers."""
    rng = DeterministicRng(1234).stream("sched-lockstep")
    check_scheduler_equivalence(rng, workers=6, steps=24, rounds=6)


def test_dense_same_time_programs_run_in_lockstep():
    """Bursty same-instant traffic maximizes batch append/drain
    interleaving, the part of the bucket loop with no heap analogue."""
    rng = DeterministicRng(99).stream("sched-lockstep-dense")
    check_scheduler_equivalence(rng, workers=10, steps=40, rounds=3)


#: Seeded ``run()`` plans, one per way a run can end early: a stop
#: event triggered by a step (the next call resumes mid-batch), a stop
#: event already triggered at entry, ``until`` with a stop event, and
#: a callback raising out of the run.
STOP_PLANS = {
    "stop-mid-batch": lambda rng: [("stop", rng.randrange(1, 40))
                                   for _ in range(3)],
    "triggered-at-entry": lambda rng: [("stop", rng.randrange(1, 40)),
                                       ("entry",), ("entry",),
                                       ("stop", rng.randrange(1, 40)),
                                       ("entry",)],
    "until-and-stop": lambda rng: [("until", rng.choice([0, 1, 3, 8]),
                                    rng.randrange(1, 60))
                                   for _ in range(4)],
    "raise-mid-batch": lambda rng: [("raise", rng.randrange(1, 8))
                                    for _ in range(3)],
}


@pytest.mark.parametrize("plan", sorted(STOP_PLANS))
def test_stopped_and_resumed_runs_in_lockstep(plan):
    """Runs cut short and resumed dispatch the same callbacks at the
    same times, count the same events and leave the same clocks on
    the heap and on the loop with and without hooks, at every cut."""
    rng = DeterministicRng(7).stream(f"sched-stop-{plan}")
    check_scheduler_equivalence(rng, workers=10, steps=40, rounds=6,
                                segments=STOP_PLANS[plan])


def test_stop_plans_reach_their_cases():
    """The lockstep's runs end the way their plans are named for, and
    calls after a cut resume from a same-instant batch cursor."""
    ends, mid_batch = {}, {}
    for plan, draw in STOP_PLANS.items():
        # The programs and plans the lockstep test draws.
        rng = DeterministicRng(7).stream(f"sched-stop-{plan}")
        ends[plan], mid_batch[plan] = [], []
        for _ in range(6):
            program = build_scheduler_program(rng, workers=10, steps=40)
            result = run_scheduler_program(Simulator, program, draw(rng))
            ends[plan].append([entry[1:] for entry in result["trace"]
                               if entry[0] == "run"])
            mid_batch[plan].extend(result["mid_batch"])
    for plan in ("stop-mid-batch", "triggered-at-entry",
                 "raise-mid-batch"):
        assert any(mid_batch[plan]), plan
    assert {kind for calls in ends["raise-mid-batch"]
            for kind, _, _, _ in calls} == {"raised"}
    # A stop triggered at entry dispatches nothing and keeps the clock.
    for calls in ends["triggered-at-entry"]:
        for before, (kind, _, now, events) in zip(calls, calls[1:]):
            if kind == "entry":
                assert (now, events) == before[2:]
    # ``until`` ends some calls, the stop event others.
    assert {stopped for calls in ends["until-and-stop"]
            for _, stopped, _, _ in calls} == {False, True}


def _run_queue(monkeypatch, sim_cls, mode: str, cores: int,
               shards: int) -> tuple:
    """``run_point("queue")`` with the system built on ``sim_cls``."""
    sims = []

    class Recording(sim_cls):
        def __init__(self):
            super().__init__()
            sims.append(self)

    monkeypatch.setattr(repro.core.machine, "Simulator", Recording)
    result = run_point("queue", mode=mode, cores=cores, shards=shards)
    (sim,) = sims
    return result.elapsed_ns, sim.events, sorted(result.stats.items())


@pytest.mark.parametrize("mode,cores,shards", [
    pytest.param("serialized", 1, 1, id="serialized"),
    pytest.param("janus", 1, 1, id="janus"),
    # The relaxed modes at the shape the relaxed-sharded benchmark
    # runs: a sharded timing hook and a flusher per shard.
    pytest.param("coalesced", 2, 2, id="coalesced-2c2s"),
    pytest.param("async-epoch", 2, 2, id="async-epoch-2c2s"),
])
def test_workload_identical_under_both_schedulers(monkeypatch, mode,
                                                  cores, shards):
    """A real workload produces the same simulated time, event count,
    and metrics on the production loop and on the heap oracle."""
    with monkeypatch.context() as patch:
        expected = _run_queue(patch, HeapSimulator, mode, cores, shards)
    got = _run_queue(monkeypatch, Simulator, mode, cores, shards)
    assert got[1] > 0
    assert got == expected


def _hooked_queue(monkeypatch, sim_cls, mode: str, cores: int,
                  shards: int, profiled: bool) -> tuple:
    """``run_point("queue")`` on ``sim_cls`` with a sampler every 200 ns
    and, if ``profiled``, a profiler: the elapsed ns, the sampled
    series and the profile's dispatch counts."""
    monkeypatch.setattr(repro.core.machine, "Simulator", sim_cls)
    sampler = TimeSeriesSampler(200)
    profiler = SimProfiler() if profiled else None
    result = run_point("queue", mode=mode, cores=cores, shards=shards,
                       sampler=sampler, profiler=profiler)
    counts = {key: entry[0] for key, entry in
              (profiler.dispatch.items() if profiled else ())}
    return result.elapsed_ns, sampler.samples, counts


@pytest.mark.parametrize("profiled", [False, True],
                         ids=["sampled", "profiled+sampled"])
@pytest.mark.parametrize("mode,cores,shards", [
    pytest.param("janus", 1, 1, id="janus"),
    pytest.param("async-epoch", 2, 2, id="async-epoch-2c2s"),
])
def test_hooks_see_what_the_hooked_loop_saw(monkeypatch, mode, cores,
                                            shards, profiled):
    """A sampler attached to the one loop takes the samples the
    separate hooked loop took, with the same metrics in each, and a
    profiler counts the same dispatches under the same keys."""
    with monkeypatch.context() as patch:
        expected = _hooked_queue(patch, HookedLoopSimulator, mode, cores,
                                 shards, profiled)
    got = _hooked_queue(monkeypatch, Simulator, mode, cores, shards,
                        profiled)
    assert len(got[1]) > 5
    assert got == expected


@SIMULATORS
def test_until_and_stop_event_semantics(sim_cls):
    """run(until=...) and stop_event behave identically under both
    schedulers, including the drained-early clock advance."""
    sim = sim_cls()

    def proc():
        yield sim.delay(5)

    sim.process(proc())
    sim.run(until=30, stop_event=sim.event("never"))
    assert sim.now == 30

    sim2 = sim_cls()
    stop = sim2.event()

    def stopper():
        yield sim2.delay(5)
        stop.succeed()
        yield sim2.delay(100)

    sim2.process(stopper())
    sim2.run(stop_event=stop)
    assert sim2.now <= 6
    # Resuming after a stop continues exactly where the run left off.
    sim2.run()
    assert sim2.now == 105


@SIMULATORS
def test_events_counter_identical(sim_cls):
    sim = sim_cls()

    def worker():
        for _ in range(10):
            yield sim.delay(1)
            yield sim.delay(0)

    sim.process(worker())
    sim.process(worker())
    sim.run()
    # Per worker: its first step and 20 delay resumes.  Nobody waits on a finished worker, so the process
    # event itself is not dispatched.
    assert sim.events == 2 * (1 + 10 + 10)
