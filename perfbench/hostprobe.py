"""A fixed probe of how fast the host runs the simulator's kind of code.

The probe is a miniature discrete-event loop in the simulator's style:
generator processes resumed from a calendar queue of timestamp
buckets, dict-held line state, SHA-1/SHA-256 over 64-byte lines and a
byte-wise XOR.  It lives here, frozen, independent of the simulator's
code, so no change to the simulator changes it.  Its run time tracks
the host's speed at the moment it runs.
"""

import hashlib
import time
from heapq import heappop, heappush

#: Probe time (best of ``REPEATS``) on the reference host: an Intel
#: Xeon at 2.0 GHz, Python 3.11, in its quiet phase.  Normalised
#: timings read as host time on that host.
REFERENCE_S = 0.0055
REPEATS = 5


class _Loop:
    __slots__ = ("now", "buckets", "times")

    def __init__(self):
        self.now = 0
        self.buckets = {}
        self.times = []

    def at(self, delay, fn):
        when = self.now + delay
        bucket = self.buckets.get(when)
        if bucket is None:
            bucket = self.buckets[when] = []
            heappush(self.times, when)
        bucket.append(fn)

    def run(self):
        dispatched = 0
        while self.times:
            self.now = heappop(self.times)
            for fn in self.buckets.pop(self.now):
                fn()
                dispatched += 1
        return dispatched


class _Process:
    __slots__ = ("loop", "send")

    def __init__(self, loop, gen):
        self.loop = loop
        self.send = gen.send
        loop.at(0, self.step)

    def step(self):
        try:
            delay = self.send(None)
        except StopIteration:
            return
        self.loop.at(delay, self.step)


def _writer(lines, key, steps):
    pad = hashlib.sha256(key.to_bytes(8, "little")).digest() * 2
    for step in range(steps):
        slot = (key * 7 + step) & 511
        line = lines.get(slot)
        if line is None or step & 7 == 0:
            line = bytes(a ^ b for a, b in zip(pad, line or pad))
            lines[slot] = hashlib.sha1(line).digest() + line[20:]
        yield 1 + ((key + step) & 15)


def run_once(processes=48, steps=48):
    """One probe pass; returns the number of dispatched steps."""
    loop = _Loop()
    lines = {}
    for key in range(processes):
        _Process(loop, _writer(lines, key, steps))
    return loop.run()


def probe_s(repeats=REPEATS):
    """Best-of-``repeats`` host seconds for one probe pass."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        run_once()
        best = min(best, time.perf_counter() - start)
    return best
