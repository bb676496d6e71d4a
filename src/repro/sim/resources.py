"""Capacity-limited resources.

A :class:`Resource` models a bank of identical servers (e.g. the four
BMO units, or a memory channel).  A caller requests a slot with a
callback, holds it for a service time, and releases it; waiters queue
FIFO.  A pipelined engine requests :meth:`Resource._occupy` as its
grant: the slot is held for the initiation interval and the result is
delivered after the full latency.
"""

from collections import deque
from heapq import heappush
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
            self._grant((fn, args))
        else:
            self._waiters.append((fn, args))

    def release(self) -> None:
        """Free one slot, waking the oldest waiter if any."""
        if self._in_use <= 0:
            raise SimulationError(f"release of idle resource {self.name!r}")
        if self._waiters:
            # Hand the slot directly to the next waiter.
            self._grant(self._waiters.popleft())
        else:
            self._in_use -= 1

    def _grant(self, entry: Tuple[Callable, tuple]) -> None:
        # ``_schedule_now`` without repacking ``entry``: inside a
        # dispatch it joins the live batch (the live-batch rule).
        sim = self.sim
        if sim.now == sim._batch_time:
            sim._batch.append(entry)
        else:
            sim._schedule_now(entry[0], *entry[1])

    def _occupy(self, occupancy: int, total: int, fn: Callable,
                args: tuple) -> None:
        """The grant of one operation on a pipelined engine, requested
        as ``request(self._occupy, occupancy, total, fn, args)``: hold
        the slot for ``occupancy`` ns (the initiation interval) and call
        ``fn(*args, granted)`` at ``granted + total``, where
        ``granted`` is this grant's time.

        It queues the slot's :meth:`release` at +``occupancy`` before
        the delivery at +``total``, so with ``occupancy == total`` the
        slot frees first.  Both are ints on the grid, ``occupancy <=
        total``.  A grant always runs inside a dispatch, so it files
        both itself by the kernel's live-batch rule: exactly
        :meth:`Simulator._schedule`, with no frame.
        """
        # Two filing blocks, not one loop over ``(delay, entry)``
        # pairs: the loop's tuples make a grant about 40% slower (377
        # → 521 ns on a 2-vCPU Xeon, Python 3.11), and every timed
        # sub-op makes one.
        sim = self.sim
        now = sim.now
        buckets = sim._buckets
        entry = (self.release, ())
        if occupancy:
            time = now + occupancy
            bucket = buckets.get(time)
            if bucket is None:
                buckets[time] = [entry]
                heappush(sim._times, time)
            else:
                bucket.append(entry)
        else:
            sim._batch.append(entry)
        entry = (fn, args + (now,))
        if total:
            time = now + total
            bucket = buckets.get(time)
            if bucket is None:
                buckets[time] = [entry]
                heappush(sim._times, time)
            else:
                bucket.append(entry)
        else:
            sim._batch.append(entry)
