"""Tests for resources."""

import pytest

from repro.common.errors import SimulationError
from repro.sim import Resource, Simulator


def test_resource_serialises_beyond_capacity():
    sim = Simulator()
    res = Resource(sim, capacity=2, name="units")
    finish = []

    def served(name):
        sim._schedule(10, done, name)

    def done(name):
        res.release()
        finish.append((name, sim.now))

    for i in range(4):
        res.request(served, i)
    sim.run()
    # Two jobs run in [0,10], the next two in [10,20].
    assert finish == [(0, 10), (1, 10), (2, 20), (3, 20)]


def test_resource_release_wakes_fifo_order():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    order = []

    def granted(name):
        order.append(name)
        sim._schedule(5, res.release)

    for name, think in (("a", 0), ("b", 1), ("c", 2)):
        sim._schedule(think, res.request, granted, name)
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.now == 15


def test_resource_release_idle_is_error():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    with pytest.raises(SimulationError):
        res.release()


def test_resource_zero_capacity_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Resource(sim, capacity=0)


def test_request_grant_is_queued_where_the_slot_frees():
    """A free slot is granted behind the callbacks already queued at
    this instant; a waiter is granted where the release that frees
    its slot ran."""
    sim = Simulator()
    res = Resource(sim, capacity=1, name="unit")
    log = []
    sim._schedule_now(log.append, "before")
    res.request(log.append, "first")
    res.request(log.append, "second")
    assert res.queue_length == 1
    sim._schedule_now(res.release)
    sim._schedule_now(log.append, "after")
    sim.run()
    assert log == ["before", "first", "after", "second"]
    assert res.in_use == 1 and res.queue_length == 0


# -- the pipelined-unit grant: request(res._occupy, occupancy, total, fn, args)
class DispatchLog:
    """A profiler hook that records every dispatched callback as
    ``(now, name)``, so a test can read each callback's slot."""

    def __init__(self, sim):
        self.sim = sim
        self.log = []

    @staticmethod
    def clock():
        return 0

    def record(self, fn, _wall_ns):
        self.log.append((self.sim.now, fn.__name__))


def pipelined_sim(capacity=1):
    sim = Simulator()
    res = Resource(sim, capacity=capacity, name="unit")
    trace = DispatchLog(sim)
    sim.profile = trace
    delivered = []

    def deliver(tag, granted):
        delivered.append((tag, granted, sim.now))
    return sim, res, trace, delivered, deliver


def before():
    pass


def after():
    pass


def test_pipelined_grant_sits_in_the_request_slot():
    """A free unit is granted behind the callbacks already queued at
    this instant; a waiter is granted in the slot of the release that
    hands the unit over — the slots ``request`` gives."""
    sim, res, trace, delivered, deliver = pipelined_sim()
    sim._schedule_now(before)
    res.request(res._occupy, 3, 10, deliver, ("a",))
    res.request(res._occupy, 2, 4, deliver, ("b",))
    assert res.in_use == 1 and res.queue_length == 1
    sim._schedule_now(after)
    sim.run()
    assert trace.log == [
        (0, "before"), (0, "_occupy"), (0, "after"),
        (3, "release"), (3, "_occupy"),
        (5, "release"),
        (7, "deliver"),
        (10, "deliver"),
    ]
    assert delivered == [("b", 3, 7), ("a", 0, 10)]
    assert res.in_use == 0 and res.queue_length == 0


def test_pipelined_release_is_queued_before_the_delivery():
    """The grant queues the release at +occupancy before the delivery
    at +total, so a full-latency occupancy frees the unit first; the
    delivery receives the grant's time."""
    sim, res, trace, delivered, deliver = pipelined_sim()
    sim._schedule(5, res.request, res._occupy, 6, 6, deliver, ("x",))
    sim.run()
    assert trace.log == [(5, "request"), (5, "_occupy"),
                         (11, "release"), (11, "deliver")]
    assert delivered == [("x", 5, 11)]


def test_pipelined_waiters_get_the_unit_fifo():
    """Pipelined grants and plain requests wait in one FIFO queue;
    each pipelined waiter's delivery carries its own grant time."""
    sim, res, _trace, delivered, deliver = pipelined_sim()
    granted = []

    def plain(tag):
        granted.append((tag, sim.now))
        sim._schedule(1, res.release)

    res.request(res._occupy, 2, 5, deliver, ("a",))
    res.request(res._occupy, 2, 5, deliver, ("b",))
    res.request(plain, "c")
    res.request(res._occupy, 2, 5, deliver, ("d",))
    sim.run()
    assert delivered == [("a", 0, 5), ("b", 2, 7), ("d", 5, 10)]
    assert granted == [("c", 4)]
    assert res.in_use == 0


def test_pipelined_zero_occupancy_and_latency():
    """A zero occupancy frees the unit in the grant's instant, so the
    next waiter is granted in that instant too; a zero latency
    delivers there as well."""
    sim, res, trace, delivered, deliver = pipelined_sim()
    res.request(res._occupy, 0, 0, deliver, ("a",))
    res.request(res._occupy, 0, 3, deliver, ("b",))
    sim.run()
    assert trace.log == [
        (0, "_occupy"), (0, "release"), (0, "deliver"), (0, "_occupy"),
        (0, "release"), (3, "deliver"),
    ]
    assert delivered == [("a", 0, 0), ("b", 0, 3)]
    assert res.in_use == 0
