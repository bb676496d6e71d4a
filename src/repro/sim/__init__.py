"""A small discrete-event simulation kernel (simpy-flavoured).

The simulator models time in nanoseconds.  Concurrent activities are
Python generators ("processes") that yield *waitables*:

* :class:`Timeout` — resume after a fixed delay,
* :class:`SimEvent` — resume when someone calls :meth:`SimEvent.succeed`,
* :class:`Process` — resume when another process finishes,
* :class:`AllOf` — resume when every child waitable has fired.

Hot paths that need no generator (the write path, the BMO executor)
run as plain callbacks instead: :meth:`Resource.request`,
:meth:`SimEvent.then` and :class:`Join` are the callback-side
counterparts of ``yield resource.acquire()``, ``yield event`` and
:class:`AllOf`, each dispatching in the slot its process form would.

Shared hardware (memory channels, BMO units) is modelled with
:class:`Resource` (capacity-limited FIFO server) and :class:`Store`
(FIFO queue of items).
"""

from repro.sim.engine import (AllOf, Delay, Join, Process, SimEvent,
                              Simulator, Timeout, quantize_ns)
from repro.sim.resources import Resource, Store

__all__ = [
    "AllOf",
    "Delay",
    "Join",
    "Process",
    "Resource",
    "SimEvent",
    "Simulator",
    "Store",
    "Timeout",
    "quantize_ns",
]
