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
