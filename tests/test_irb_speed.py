"""Speed floor of the indexed IRB over the linear-scan reference.

:class:`~repro.janus.irb.IntermediateResultBuffer` replaced the O(n)
scans of the linear-scan reference (``tests/irb_reference.py``) with
indexes.
Both are driven with one deterministic, write-path-shaped operation
stream at high occupancy; the indexed buffer must stay at least 2x
faster.  The ratio is host-speed independent (8-12x on a 2-vCPU Intel
Xeon, Python 3.11).
"""

import time
from typing import List, Tuple

from repro.common.rng import DeterministicRng
from repro.janus.irb import IntermediateResultBuffer, IrbEntry
from tests.irb_reference import LinearScanIrb
from repro.sim import Simulator

MIN_SPEEDUP = 2.0


def op_stream(resident: int, ops: int, seed: int = 0
              ) -> Tuple[List[Tuple], List[Tuple]]:
    """Deterministic (fill, mixed-op) streams.

    The fill keeps ``resident`` entries live (distinct keys and lines,
    a few threads); the mixed stream is mostly ``match_write`` (hits
    and misses), with consume+reinsert churn and occasional line
    invalidations.
    """
    rng = DeterministicRng(seed).stream(f"bench:irb:{resident}:{ops}")
    threads = 4
    fill = [("insert", i, i % threads, 64 * i, bytes([i & 0xFF]) * 64)
            for i in range(resident)]
    mixed = []
    for _ in range(ops):
        roll = rng.random()
        i = rng.randrange(resident)
        thread = i % threads
        line = 64 * i
        if roll < 0.70:
            # match_write: ~half hits, half misses (wrong thread).
            if rng.random() < 0.5:
                mixed.append(("match", thread, line, b"\x00" * 64))
            else:
                mixed.append(("match", (thread + 1) % threads, line,
                              b"\x00" * 64))
        elif roll < 0.90:
            mixed.append(("churn", i, thread, line,
                          bytes([rng.randrange(256)]) * 64))
        else:
            mixed.append(("inval", line))
    return fill, mixed


def drive(irb, fill: List[Tuple], mixed: List[Tuple]) -> float:
    """Run the streams against ``irb``; returns mixed-phase seconds."""
    live = {}
    for _, i, thread, line, data in fill:
        live[i] = irb.insert(IrbEntry(
            pre_id=i, thread_id=thread, transaction_id=0,
            line_addr=line, data=data))
    start = time.perf_counter()
    for op in mixed:
        kind = op[0]
        if kind == "match":
            irb.match_write(op[1], op[2], op[3])
        elif kind == "churn":
            _, i, thread, line, data = op
            old = live.get(i)
            if old is not None:
                irb.consume(old)
            live[i] = irb.insert(IrbEntry(
                pre_id=i, thread_id=thread, transaction_id=0,
                line_addr=line, data=data))
        else:  # inval
            irb.invalidate_line(op[1])
    return time.perf_counter() - start


def test_op_stream_is_deterministic():
    assert op_stream(16, 50) == op_stream(16, 50)


def test_indexed_irb_at_least_2x_linear_scan():
    """With 256 resident entries the linear scans pay their full O(n)
    per operation; best of two runs each absorbs host noise."""
    resident = 256
    fill, mixed = op_stream(resident, ops=1200)
    indexed_s = linear_s = float("inf")
    for _ in range(2):
        indexed_s = min(indexed_s, drive(
            IntermediateResultBuffer(Simulator(), capacity=2 * resident,
                                     max_age_ns=None), fill, mixed))
        linear_s = min(linear_s, drive(
            LinearScanIrb(Simulator(), capacity=2 * resident,
                          max_age_ns=None), fill, mixed))
    assert linear_s / indexed_s >= MIN_SPEEDUP
