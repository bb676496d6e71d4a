"""A small discrete-event simulation kernel (simpy-flavoured).

The simulator models time in nanoseconds.  There is one way to wait in
each context.  Concurrent activities are Python generators
("processes") that yield *waitables*:

* ``sim.delay(ns)`` — resume after a fixed delay (a pooled
  :class:`Delay` marker),
* :class:`SimEvent` — resume when someone calls :meth:`SimEvent.succeed`,
* :class:`Process` — resume when another process finishes,
* :class:`AllOf` — resume when every child waitable has fired.

Only the workload programs run as processes.  Everything below them
(the write path, the BMO executor, Janus pre-execution, the
async-epoch flusher) runs as plain callbacks: :meth:`Resource.request`,
:meth:`SimEvent.then` and :class:`Join` wait for a unit, an event or a
group of activities, each dispatching in the slot a process parked on
the same wait would resume in.

Shared hardware (memory channels, BMO units) is modelled with
:class:`Resource`, a capacity-limited FIFO server.
"""

from repro.sim.engine import (AllOf, Delay, Join, Process, SimEvent,
                              Simulator, quantize_ns)
from repro.sim.resources import Resource

__all__ = [
    "AllOf",
    "Delay",
    "Join",
    "Process",
    "Resource",
    "SimEvent",
    "Simulator",
    "quantize_ns",
]
