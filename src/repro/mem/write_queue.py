"""The memory-controller write queue — the persist domain under ADR.

With Intel ADR, a write is durable the moment it is *accepted* into
the write queue (paper §2.3 / Fig. 1): residual energy flushes the
queue to NVM on power failure.  So:

* ``accept(entry, done)`` is the persist point — the caller's
  ``sfence`` completes once all its writebacks have been accepted;
* the drain then performs the actual device write in the background,
  off the critical path.

The queue is bounded; when full, an acceptance waits until a drain
frees a slot (back-pressure, which matters under multi-core load).

Acceptance and drain run as simulator callbacks, not processes.  Each
callback takes the same-instant batch slot of the process step it
replaced (``tests/writepath_reference.py`` keeps those processes and
``tests/test_writepath_lockstep.py`` checks the two in lockstep):

* :meth:`WriteQueue.accept` queues one callback, in the slot of the
  reference ``accept`` process's first step; it requests a queue slot;
* the grant callback takes the slot the process resumed in, whether
  the slot was free or was handed over by a drain's ``release``; it
  accepts the entry, queues the drain's start (the ``wq-drain``
  process's first step) and then ``done`` (the finished ``accept``
  process's dispatch);
* the drain asks :meth:`repro.mem.nvm_device.NvmDevice.write` for the
  line's channel: one grant callback, then one callback after the
  service time that releases the channel and retires the entry, which
  frees the queue slot and wakes idle waiters.

A drain that raises propagates out of :meth:`Simulator.run`.
"""

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.common.config import MemoryConfig
from repro.common.errors import SimulationError
from repro.mem.nvm_device import NvmDevice
from repro.obs.metrics import MetricsScope
from repro.obs.tracer import NULL_TRACER
from repro.sim import Resource, Simulator


@dataclass(eq=False)
class WriteEntry:
    """One line-sized write heading to the device.

    Compared and hashed by identity: the queue keys its pending
    entries by the entry itself.
    """

    addr: int
    data: bytes
    #: Invoked (synchronously) when the device write retires; the
    #: memory controller uses it to land ciphertext in functional NVM.
    on_drain: Optional[Callable[["WriteEntry"], None]] = None
    metadata: dict = field(default_factory=dict)
    #: Set by :meth:`WriteQueue.accept` at the persist point.  ``None``
    #: until then, so residency accounting can never silently observe
    #: a not-yet-accepted entry as "accepted at t=0".
    accepted_at: Optional[int] = None


class WriteQueue:
    """Bounded persist-domain queue with a background drain."""

    TRACK = ("mem", "write-queue")

    def __init__(self, sim: Simulator, config: MemoryConfig,
                 device: NvmDevice, stats=None, tracer=None):
        self.sim = sim
        self.device = device
        self._slots = Resource(sim, capacity=config.write_queue_entries,
                               name="write-queue")
        self._idle_waiters: List = []
        #: Entries accepted (durable under ADR) but not yet drained,
        #: in acceptance order: an insertion-ordered dict used as a
        #: set, so a drain retires its entry in O(1) whatever order
        #: the channels finish in.
        self._pending: Dict[WriteEntry, None] = {}
        self.stats = stats if stats is not None else MetricsScope("wq")
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Optional ``repro.faults.FaultInjector``: consulted after
        #: each drain (media faults on the landed line) and per entry
        #: during the ADR flush (drop / tear on power loss).
        self.injector = None
        #: Optional acceptance observer, called with each entry right
        #: after it is accepted (crash campaigns stop the run there).
        self.on_accept: Optional[Callable[[WriteEntry], None]] = None
        # Hot metric handles: resolved once, not per accepted write.
        self._c_accepted = self.stats.counter("accepted")
        self._c_drained = self.stats.counter("drained")
        self._h_occupancy = self.stats.histogram("occupancy")
        self._h_full_stall = self.stats.histogram("full_stall_ns")
        self._h_residency = self.stats.histogram("residency_ns")

    def accept(self, entry: WriteEntry, done: Callable, *args) -> None:
        """Persist ``entry``, waiting for a free slot if the queue is
        full, then call ``done(*args)``.

        ``done`` runs once the entry is durably in the persist domain;
        the device write continues in the background.
        """
        self.sim._schedule_now(self._request, entry, done, args)

    def _request(self, entry: WriteEntry, done: Callable, args) -> None:
        self._slots.request(self._accept, entry, self.sim.now, done, args)

    def _accept(self, entry: WriteEntry, arrival: int, done: Callable,
                args) -> None:
        sim = self.sim
        now = sim.now
        self._c_accepted.value += 1
        self._h_occupancy.observe(self.outstanding)
        if arrival < now:
            # Back-pressure: the queue was full and this write stalled.
            self._h_full_stall.observe(now - arrival)
        entry.accepted_at = now
        self._pending[entry] = None
        if self.tracer.enabled:
            self.tracer.counter("wq-occupancy", self.TRACK, now,
                                {"outstanding": self.outstanding})
        sim._schedule_now(self._drain, entry)
        sim._schedule_now(done, *args)
        if self.on_accept is not None:
            self.on_accept(entry)

    def _drain(self, entry: WriteEntry) -> None:
        self.device.write(entry.addr, self._drained, entry)

    def _drained(self, entry: WriteEntry) -> None:
        try:
            if entry in self._pending:  # not already ADR-flushed
                del self._pending[entry]
                if entry.on_drain is not None:
                    entry.on_drain(entry)
                if self.injector is not None:
                    self.injector.on_device_write(entry)
            self._c_drained.value += 1
            if entry.accepted_at is None:
                raise SimulationError(
                    f"drain of unaccepted write entry {entry.addr:#x}")
            self._h_residency.observe(self.sim.now - entry.accepted_at)
            if self.tracer.enabled:
                self.tracer.complete(
                    "wq-residency", "mem", self.TRACK,
                    start_ns=entry.accepted_at,
                    dur_ns=self.sim.now - entry.accepted_at,
                    args={"addr": entry.addr})
                self.tracer.counter(
                    "wq-occupancy", self.TRACK, self.sim.now,
                    {"outstanding": self.outstanding - 1})
        finally:
            self._slots.release()
            if self.outstanding == 0:
                waiters, self._idle_waiters = self._idle_waiters, []
                for event in waiters:
                    event.succeed()

    def adr_flush(self) -> int:
        """Power-failure path: complete every accepted entry's device
        write *now*, as Intel ADR's residual energy would.  Returns
        the number of entries flushed.

        With a fault injector attached, each entry gets a fate: a
        clean flush, a *drop* (the residual energy ran out before
        this entry), or a *tear* (the line landed half-new/half-old).
        Dropped and torn lines model ADR failure — downstream layers
        (log CRCs, MACs) must detect them, never consume them.
        """
        pending, self._pending = self._pending, {}
        flushed = 0
        for entry in pending:
            fate = "flush" if self.injector is None \
                else self.injector.adr_fate(entry)
            if fate == "drop":
                continue
            if fate == "tear":
                self.injector.tear(entry)
            if entry.on_drain is not None:
                entry.on_drain(entry)
            if self.injector is not None:
                self.injector.on_device_write(entry)
            flushed += 1
        return flushed

    @property
    def outstanding(self) -> int:
        """Entries accepted but not yet drained to the device."""
        return self._slots.in_use

    def drained_event(self):
        """Event that fires when the queue is fully drained.

        Used by crash tests to distinguish "persisted" (accepted) from
        "device-visible" (drained) state.
        """
        event = self.sim.event("wq-idle")
        if self.outstanding == 0:
            event.succeed()
        else:
            self._idle_waiters.append(event)
        return event
