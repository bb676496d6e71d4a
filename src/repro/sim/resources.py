"""Capacity-limited resources.

A :class:`Resource` models a bank of identical servers (e.g. the four
BMO units, or a memory channel).  A caller requests a slot with a
callback, holds it for a service time, and releases it; waiters queue
FIFO.  :meth:`Resource.pipelined` is the one-call form for a
pipelined engine: the slot is held for the initiation interval and the
result is delivered after the full latency.
"""

from collections import deque
from typing import Callable, Deque, Tuple

from repro.common.errors import SimulationError
from repro.sim.engine import Simulator


class Resource:
    """FIFO resource with ``capacity`` identical slots."""

    def __init__(self, sim: Simulator, capacity: int, name: str = ""):
        if capacity <= 0:
            raise SimulationError(f"capacity must be positive, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        #: Pending grants: ``(fn, args)`` from :meth:`request`, FIFO.
        self._waiters: Deque[Tuple[Callable, tuple]] = deque()

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    def request(self, fn: Callable, *args) -> None:
        """Once a slot is granted, the simulator dispatches
        ``fn(*args)`` as one same-instant event.

        A free slot is granted at once, so ``fn`` is queued behind the
        callbacks already scheduled at this instant; otherwise the
        request waits FIFO for a :meth:`release`, which queues ``fn``
        in its own slot.  The holder must :meth:`release` the slot.
        """
        if self._in_use < self.capacity:
            self._in_use += 1
            sim = self.sim
            sim._at(sim.now, fn, args)
        else:
            self._waiters.append((fn, args))

    def release(self) -> None:
        """Free one slot, waking the oldest waiter if any."""
        if self._in_use <= 0:
            raise SimulationError(f"release of idle resource {self.name!r}")
        if self._waiters:
            # Hand the slot directly to the next waiter.
            fn, args = self._waiters.popleft()
            sim = self.sim
            sim._at(sim.now, fn, args)
        else:
            self._in_use -= 1

    def pipelined(self, occupancy: int, total: int, fn: Callable,
                  *args) -> None:
        """Start one operation on a pipelined engine: once a slot is
        granted, hold it for ``occupancy`` ns (the initiation interval)
        and call ``fn(*args, granted)`` at ``granted + total``, where
        ``granted`` is the grant's time.

        The grant is one callback in the slot :meth:`request` gives
        it; it queues the slot's :meth:`release` at +``occupancy``
        before the delivery at +``total``, so with ``occupancy ==
        total`` the slot frees first.  Both are ints on the grid,
        ``occupancy <= total``.
        """
        # :meth:`request`, inlined: one frame less per operation.
        grant = (occupancy, total, fn, args)
        if self._in_use < self.capacity:
            self._in_use += 1
            sim = self.sim
            sim._at(sim.now, self._occupy, grant)
        else:
            self._waiters.append((self._occupy, grant))

    def _occupy(self, occupancy: int, total: int, fn: Callable,
                args: tuple) -> None:
        sim = self.sim
        now = sim.now
        sim._at(now + occupancy, self.release, ())
        sim._at(now + total, fn, args + (now,))
