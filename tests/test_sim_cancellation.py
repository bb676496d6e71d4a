"""Cancellation of a process-side grant from the lockstep references.

The kernel grants units to callbacks only; the generator references
in ``tests/writepath_reference.py`` wait on :func:`acquire` and, when
a waiting process dies, withdraw the request with :func:`cancel`.  A
withdrawn waiter must never be granted a slot nobody releases, and a
slot handed over in the instant its waiter died must come back.
"""

import pytest

from repro.common.errors import SimulationError
from repro.sim import Resource, Simulator
from tests.writepath_reference import acquire, cancel


def test_cancel_after_grant_fired_returns_slot():
    """Same-instant race: the slot was handed over in the very instant
    the waiter was killed.  ``cancel`` must give it back."""
    sim = Simulator()
    res = Resource(sim, capacity=1, name="unit")
    a = acquire(res)
    sim.run()
    assert a.triggered
    b = acquire(res)
    sim.run()
    assert not b.triggered
    res.release()  # hands the slot directly to b
    sim.run()
    assert b.triggered
    cancel(res, b)  # ...but b's owner is dead: slot comes back
    assert res.in_use == 0
    # The resource is healthy: a fresh acquire is granted at once and
    # a stray extra release still fails loudly.
    c = acquire(res)
    sim.run()
    assert c.triggered
    res.release()
    with pytest.raises(SimulationError):
        res.release()


def test_cancel_untriggered_waiter_is_removed_from_queue():
    sim = Simulator()
    res = Resource(sim, capacity=1, name="unit")
    acquire(res)
    waiting = acquire(res)
    assert res.queue_length == 1
    cancel(res, waiting)
    assert res.queue_length == 0
    # Release now frees the slot instead of waking the dead waiter.
    res.release()
    sim.run()
    assert res.in_use == 0
    assert not waiting.triggered
