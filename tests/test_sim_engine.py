"""Tests for the discrete-event simulation kernel."""

import pytest

from repro.common.errors import SimulationError
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import SimProfiler
from repro.obs.timeseries import TimeSeriesSampler
from repro.sim import Simulator


def test_timeout_advances_clock():
    sim = Simulator()

    def proc():
        yield sim.delay(10)
        yield sim.delay(5)
        return sim.now

    p = sim.process(proc())
    sim.run()
    assert sim.now == 15
    assert p.value == 15


def test_float_delays_quantize_to_integer_ns():
    """The clock is integer-ns: float delays round half-up exactly
    once, at the scheduling boundary, so repeated fractional delays
    can never accumulate float drift."""
    sim = Simulator()

    def proc():
        yield sim.delay(10)
        yield sim.delay(5.5)   # -> 6
        yield sim.delay(0.25)  # -> 0
        yield sim.delay(0.5)   # -> 1
        return sim.now

    p = sim.process(proc())
    sim.run()
    assert sim.now == 17
    assert isinstance(sim.now, int)
    assert p.value == 17


def test_zero_timeout_runs_same_time():
    sim = Simulator()

    def proc():
        yield sim.delay(0)
        return sim.now

    p = sim.process(proc())
    sim.run()
    assert p.value == 0.0


def test_negative_timeout_rejected():
    """A negative sleep fails loud when the process yields it."""
    sim = Simulator()

    def proc():
        yield sim.delay(-1)

    sim.process(proc())
    with pytest.raises(SimulationError):
        sim.run()


def test_processes_interleave_in_time_order():
    sim = Simulator()
    order = []

    def worker(name, delay):
        yield sim.delay(delay)
        order.append((name, sim.now))

    sim.process(worker("slow", 20))
    sim.process(worker("fast", 5))
    sim.process(worker("mid", 10))
    sim.run()
    assert order == [("fast", 5), ("mid", 10), ("slow", 20)]


def test_event_succeed_wakes_waiter_with_value():
    sim = Simulator()
    ev = sim.event("signal")
    got = []

    def waiter():
        value = yield ev
        got.append((value, sim.now))

    def signaller():
        yield sim.delay(7)
        ev.succeed("payload")

    sim.process(waiter())
    sim.process(signaller())
    sim.run()
    assert got == [("payload", 7)]


def test_event_double_trigger_is_error():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_wait_on_already_triggered_event():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(99)
    got = []

    def late_waiter():
        yield sim.delay(3)
        value = yield ev
        got.append(value)

    sim.process(late_waiter())
    sim.run()
    assert got == [99]


def test_process_waits_on_process_return_value():
    sim = Simulator()

    def child():
        yield sim.delay(4)
        return "done"

    def parent():
        result = yield sim.process(child())
        return (result, sim.now)

    p = sim.process(parent())
    sim.run()
    assert p.value == ("done", 4)


def test_all_of_waits_for_every_child():
    sim = Simulator()

    def child(delay, value):
        yield sim.delay(delay)
        return value

    def parent():
        values = yield sim.all_of([sim.process(child(3, "a")),
                                   sim.process(child(9, "b"))])
        return (values, sim.now)

    p = sim.process(parent())
    sim.run()
    assert p.value == (["a", "b"], 9)


def test_all_of_empty_fires_immediately():
    sim = Simulator()

    def parent():
        values = yield sim.all_of([])
        return values

    p = sim.process(parent())
    sim.run()
    assert p.value == []


def test_all_of_propagates_child_failure():
    """A failed member must fail the whole AllOf — silent swallowing
    of process errors once hid a real bug in the memory controller."""
    sim = Simulator()
    caught = []

    def failing_child():
        yield sim.delay(1)
        raise ValueError("child exploded")

    def ok_child():
        yield sim.delay(5)

    def parent():
        try:
            yield sim.all_of([sim.process(failing_child()),
                              sim.process(ok_child())])
        except ValueError as err:
            caught.append(str(err))

    sim.process(parent())
    sim.run()
    assert caught == ["child exploded"]


def test_event_fail_raises_in_waiter():
    sim = Simulator()
    ev = sim.event()
    caught = []

    def waiter():
        try:
            yield ev
        except ValueError as err:
            caught.append(str(err))

    sim.process(waiter())
    ev.fail(ValueError("boom"))
    sim.run()
    assert caught == ["boom"]


def test_yielding_non_event_fails_process():
    sim = Simulator()

    def bad():
        yield 42

    p = sim.process(bad())
    sim.run()
    assert p.triggered
    assert isinstance(p._exc, SimulationError)


def test_run_until_limit_stops_clock():
    sim = Simulator()

    def proc():
        yield sim.delay(100)

    sim.process(proc())
    sim.run(until=30)
    assert sim.now == 30


def test_run_until_before_the_clock_is_rejected():
    """``run(until=)`` never winds the clock back: a horizon before
    ``now`` fails loud, like a negative delay, and the queue stays
    intact."""
    sim = Simulator()
    sim._schedule(10, lambda: None)
    sim._schedule(20, lambda: None)
    sim.run(until=10)
    assert sim.now == 10
    with pytest.raises(SimulationError):
        sim.run(until=5)
    assert sim.now == 10
    sim.run()
    assert sim.now == 20


class Boom(Exception):
    pass


@pytest.mark.parametrize("hook", ["plain", "profiled", "sampled"])
def test_resume_after_callback_raises(hook):
    """A callback that raises mid-batch counts as dispatched; the next
    ``run()`` resumes after it, with or without observability hooks."""
    sim = Simulator()
    if hook == "profiled":
        sim.profile = SimProfiler()
    elif hook == "sampled":
        sim.sampler = TimeSeriesSampler(4).bind(MetricsRegistry())
    log = []

    def boom():
        log.append("boom")
        raise Boom()

    sim._schedule(5, log.append, "a")
    sim._schedule(5, boom)
    sim._schedule(5, log.append, "b")
    sim._schedule(9, log.append, "c")
    for _ in range(2):
        try:
            sim.run()
        except Boom:
            pass
        log.append("|")
    assert log == ["a", "boom", "|", "b", "c", "|"]
    assert sim.events == 4
    assert sim.now == 9


def test_run_with_stop_event():
    sim = Simulator()
    stop = sim.event()

    def proc():
        yield sim.delay(5)
        stop.succeed()
        yield sim.delay(100)

    sim.process(proc())
    sim.run(stop_event=stop)
    assert sim.now <= 6


def test_run_until_with_untriggered_stop_event_advances_clock():
    """A stop_event that never fires must not change run(until=...)
    semantics: the clock still advances to `until` when the heap
    drains early."""
    def make():
        sim = Simulator()

        def proc():
            yield sim.delay(5)

        sim.process(proc())
        return sim

    plain = make()
    plain.run(until=30)
    with_stop = make()
    with_stop.run(until=30, stop_event=with_stop.event("never"))
    assert plain.now == with_stop.now == 30


def test_run_until_with_triggered_stop_event_keeps_stop_time():
    sim = Simulator()
    stop = sim.event()

    def proc():
        yield sim.delay(5)
        stop.succeed()
        yield sim.delay(100)

    sim.process(proc())
    sim.run(until=300, stop_event=stop)
    assert sim.now <= 6


def test_schedule_rejects_negative_delay():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim._schedule(-0.5, lambda: None)


def test_all_of_over_already_failed_child():
    sim = Simulator()
    child = sim.event("doomed")
    child.fail(ValueError("pre-failed"))
    caught = []

    def parent():
        try:
            yield sim.all_of([child])
        except ValueError as err:
            caught.append(str(err))

    sim.process(parent())
    sim.run()
    assert caught == ["pre-failed"]


def test_events_counter_tracks_dispatches():
    sim = Simulator()

    def proc():
        yield sim.delay(1)
        yield sim.delay(1)

    sim.process(proc())
    sim.run()
    assert sim.events > 0


class _Owner:
    def step(self, payload):
        payload.append(self)


@pytest.mark.parametrize("same_instant", (False, True))
def test_drained_run_keeps_no_dispatched_callback(same_instant):
    """Once run() has drained its last batch, nothing the simulator
    dispatched is still referenced from it: a callback's owner dies
    with its last outside reference, without the cycle collector."""
    import gc
    import weakref

    enabled = gc.isenabled()
    gc.disable()
    try:
        sim = Simulator()
        owner = _Owner()
        payload = []
        if same_instant:
            sim._schedule_now(owner.step, payload)
        else:
            sim._schedule(7, owner.step, payload)
        sim.run()
        assert payload == [owner]
        ref = weakref.ref(owner)
        del owner, payload
        assert ref() is None
        assert sim._batch == []
    finally:
        if enabled:
            gc.enable()


def test_triggered_event_is_dispatched_only_when_waited_on():
    sim = Simulator()
    lonely = sim.event("lonely")
    lonely.succeed(1)
    sim.run()
    assert sim.events == 0
    waited = sim.event("waited")
    seen = []
    waited.add_callback(lambda event: seen.append(event.value))
    waited.succeed(2)
    # A waiter added after the trigger is still resumed, on its own.
    lonely.add_callback(lambda event: seen.append(event.value))
    sim.run()
    assert seen == [2, 1]
    assert sim.events == 2


def test_then_continues_or_fails_and_join_fires_at_last_arrival():
    """``then`` calls its continuation in the event's dispatch, or
    fails its waiter with the event's error; a ``Join`` fires at its
    last arrival."""
    from repro.sim import Join

    sim = Simulator()
    log = []
    join = Join(sim, 2)
    join.then(sim.event("unused"), log.append, "joined")
    sim._schedule(3, join.arrive)
    sim._schedule(5, join.arrive)
    failing = sim.event("failing")
    waiter = sim.event("waiter")
    failing.then(waiter, log.append, "never")
    failing.fail(RuntimeError("boom"))
    sim.run()
    assert log == ["joined"] and sim.now == 5
    assert isinstance(waiter._exc, RuntimeError)
