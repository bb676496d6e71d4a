"""The pre-execution request queue and the decoder.

Flow (paper Fig. 7a): the processor sends :class:`PreExecRequest`
objects into the :class:`PreExecRequestQueue` (step 1); the decoder
splits each request into cache-line-sized :class:`PreExecOperation`
entries (step 2), which the engine admits to the optimized BMO logic
(step 3).  The operation queue between them is modelled by its
capacity alone: :class:`repro.janus.engine.JanusEngine` caps the
operations in flight at ``operation_queue_entries`` per core.

Deferred requests (``*_BUF``) sit in the request queue until a
``PRE_START_BUF`` releases them; buffered requests that touch the same
cache line are *coalesced* before decoding (§4.3.2, §4.4 — the point
of the deferred interface).  A full request queue discards the oldest
buffered request to make room (§4.6): dropping pre-execution is always
correctness-neutral, it only costs performance.
"""

import enum
from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional

from repro.common.units import CACHE_LINE_BYTES, align_down, line_span
from repro.sim import Simulator


class PreFunc(enum.Enum):
    """Function field of a request (Table 2)."""

    BOTH = "both"
    ADDR = "addr"
    DATA = "data"
    BOTH_VAL = "both_val"


@dataclass
class PreExecRequest:
    """One software-issued pre-execution request (pre-decode)."""

    pre_id: int
    thread_id: int
    transaction_id: int
    func: PreFunc
    addr: Optional[int] = None
    data: Optional[bytes] = None
    size: int = 0
    deferred: bool = False
    issued_at: float = 0.0


@dataclass
class PreExecOperation:
    """One cache-line-sized operation (post-decode)."""

    pre_id: int
    thread_id: int
    transaction_id: int
    line_addr: Optional[int]
    line_data: Optional[bytes]
    issued_at: float = 0.0
    #: For address-less data operations: ordinal of the line within
    #: the request, so a later address-bearing request can pair up.
    data_seq: int = 0


def decode_request(request: PreExecRequest,
                   line_bytes: int = CACHE_LINE_BYTES
                   ) -> List[PreExecOperation]:
    """Split a request into cache-line-sized operations.

    * With an address: one operation per touched line; the data (if
      present) is sliced to each line, honouring the byte offset of
      unaligned requests.
    * Data-only (``PRE_DATA``): the paper requires the object to be
      cache-line-aligned (§4.4 guideline 2), so the data is cut into
      line-sized chunks with unknown addresses.
    """
    ops: List[PreExecOperation] = []
    if request.addr is not None:
        size = request.size or (len(request.data) if request.data else 0)
        base = align_down(request.addr, line_bytes)
        for seq, line_addr in enumerate(
                line_span(request.addr, size, line_bytes)):
            line_data = None
            if request.data is not None:
                # The data-dependent sub-ops need the *whole* line
                # image (fingerprints and XOR pads are line-granular).
                # A request that covers only part of this line
                # therefore degrades to address-only pre-execution for
                # it — exactly the paper's guideline 2 in section 4.4
                # (use PRE_ADDR, or wait for full knowledge, when the
                # object is not line-aligned).
                req_start = max(request.addr, line_addr)
                req_end = min(request.addr + size, line_addr + line_bytes)
                if req_start == line_addr and \
                        req_end == line_addr + line_bytes:
                    src_off = req_start - request.addr
                    line_data = bytes(
                        request.data[src_off:src_off + line_bytes])
            ops.append(PreExecOperation(
                pre_id=request.pre_id, thread_id=request.thread_id,
                transaction_id=request.transaction_id,
                line_addr=line_addr, line_data=line_data,
                issued_at=request.issued_at, data_seq=seq))
        if not ops:  # zero-size with an address: single line op
            ops.append(PreExecOperation(
                pre_id=request.pre_id, thread_id=request.thread_id,
                transaction_id=request.transaction_id,
                line_addr=base, line_data=None,
                issued_at=request.issued_at))
    elif request.data is not None:
        # PRE_DATA: the object must be line-aligned (section 4.4), so
        # only whole-line chunks are pre-executable; a partial tail is
        # skipped rather than guessed at.
        for seq in range(len(request.data) // line_bytes):
            chunk = request.data[seq * line_bytes:(seq + 1) * line_bytes]
            ops.append(PreExecOperation(
                pre_id=request.pre_id, thread_id=request.thread_id,
                transaction_id=request.transaction_id,
                line_addr=None, line_data=chunk,
                issued_at=request.issued_at, data_seq=seq))
    return ops


class PreExecRequestQueue:
    """Bounded FIFO of requests with deferral and coalescing."""

    def __init__(self, sim: Simulator, capacity: int):
        self.sim = sim
        self.capacity = capacity
        self._requests: Deque[PreExecRequest] = deque()
        self.dropped = 0
        self.coalesced = 0

    def __len__(self) -> int:
        return len(self._requests)

    def submit(self, request: PreExecRequest) -> None:
        """Enqueue a request.

        Immediate requests flow straight through (the engine's pump
        consumes them).  Deferred requests wait for
        :meth:`release_deferred`; same-line deferred requests of the
        same ``pre_id`` coalesce in place.  A full queue discards its
        oldest request to make room.
        """
        request.issued_at = self.sim.now
        if request.deferred and self._try_coalesce(request):
            self.coalesced += 1
            return
        if len(self._requests) >= self.capacity:
            self._requests.popleft()
            self.dropped += 1
        self._requests.append(request)

    def _try_coalesce(self, request: PreExecRequest) -> bool:
        if request.addr is None:
            return False
        for buffered in self._requests:
            if (not buffered.deferred
                    or buffered.pre_id != request.pre_id
                    or buffered.thread_id != request.thread_id
                    or buffered.addr is None):
                continue
            lo = min(buffered.addr, request.addr)
            hi = max(buffered.addr + buffered.size,
                     request.addr + request.size)
            if hi - lo <= CACHE_LINE_BYTES and \
                    align_down(lo) == align_down(hi - 1):
                # Same cache line: merge byte images.
                merged = bytearray(hi - lo)
                if buffered.data:
                    off = buffered.addr - lo
                    merged[off:off + buffered.size] = buffered.data
                if request.data:
                    off = request.addr - lo
                    merged[off:off + request.size] = request.data
                buffered.addr = lo
                buffered.size = hi - lo
                buffered.data = bytes(merged)
                return True
        return False

    def release_deferred(self, pre_id: int, thread_id: int) -> int:
        """PRE_START_BUF: mark matching buffered requests immediate.

        Returns the number of requests released.
        """
        released = 0
        for buffered in self._requests:
            if (buffered.deferred and buffered.pre_id == pre_id
                    and buffered.thread_id == thread_id):
                buffered.deferred = False
                released += 1
        return released

    def pop_ready(self) -> Optional[PreExecRequest]:
        """Dequeue the oldest non-deferred request, if any."""
        for buffered in self._requests:
            if not buffered.deferred:
                self._requests.remove(buffered)
                return buffered
        return None
