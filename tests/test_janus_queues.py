"""Tests for pre-execution queues and the decoder."""

from repro.janus.queues import (
    PreExecRequest,
    PreExecRequestQueue,
    PreFunc,
    decode_request,
)
from repro.sim import Simulator


def request(**kwargs):
    defaults = dict(pre_id=1, thread_id=0, transaction_id=0,
                    func=PreFunc.BOTH)
    defaults.update(kwargs)
    return PreExecRequest(**defaults)


class TestDecoder:
    def test_aligned_full_line_both(self):
        ops = decode_request(request(addr=128, data=b"\xAB" * 64, size=64))
        assert len(ops) == 1
        assert ops[0].line_addr == 128
        assert ops[0].line_data == b"\xAB" * 64

    def test_multi_line_request_splits(self):
        ops = decode_request(request(addr=0, data=b"\x01" * 256, size=256))
        assert [op.line_addr for op in ops] == [0, 64, 128, 192]
        assert all(op.line_data == b"\x01" * 64 for op in ops)

    def test_partial_line_coverage_degrades_to_addr_only(self):
        """Sub-line data cannot feed line-granular fingerprints/XOR."""
        ops = decode_request(request(addr=16, data=b"\xCC" * 8, size=8))
        assert len(ops) == 1
        assert ops[0].line_addr == 0
        assert ops[0].line_data is None

    def test_unaligned_spanning_request(self):
        # 96 bytes starting at offset 32: covers line0 partially,
        # line1 fully (bytes 64..127), line2 empty remainder? 32+96=128
        ops = decode_request(request(addr=32, data=b"\x11" * 96, size=96))
        assert [op.line_addr for op in ops] == [0, 64]
        assert ops[0].line_data is None          # partial coverage
        assert ops[1].line_data == b"\x11" * 64  # full coverage

    def test_addr_only_request(self):
        ops = decode_request(request(func=PreFunc.ADDR, addr=64, size=128))
        assert [op.line_addr for op in ops] == [64, 128]
        assert all(op.line_data is None for op in ops)

    def test_data_only_request_chunks_full_lines(self):
        ops = decode_request(request(func=PreFunc.DATA,
                                     data=b"\x0F" * 130))
        assert len(ops) == 2  # partial 2-byte tail skipped
        assert all(op.line_addr is None for op in ops)
        assert [op.data_seq for op in ops] == [0, 1]

    def test_data_only_smaller_than_line_yields_nothing(self):
        assert decode_request(request(func=PreFunc.DATA, data=b"x" * 8)) == []

    def test_zero_size_with_addr_gives_single_probe(self):
        ops = decode_request(request(func=PreFunc.ADDR, addr=70, size=0))
        assert len(ops) == 1
        assert ops[0].line_addr == 64


class TestRequestQueue:
    def test_immediate_requests_pop_in_fifo_order(self):
        sim = Simulator()
        queue = PreExecRequestQueue(sim, capacity=4)
        queue.submit(request(pre_id=1, addr=0, size=8))
        queue.submit(request(pre_id=2, addr=64, size=8))
        assert queue.pop_ready().pre_id == 1
        assert queue.pop_ready().pre_id == 2
        assert queue.pop_ready() is None

    def test_deferred_requests_wait_for_release(self):
        sim = Simulator()
        queue = PreExecRequestQueue(sim, capacity=4)
        queue.submit(request(pre_id=7, addr=0, size=8, deferred=True))
        assert queue.pop_ready() is None
        released = queue.release_deferred(pre_id=7, thread_id=0)
        assert released == 1
        assert queue.pop_ready().pre_id == 7

    def test_same_line_deferred_requests_coalesce(self):
        sim = Simulator()
        queue = PreExecRequestQueue(sim, capacity=4)
        queue.submit(request(pre_id=3, addr=0, size=8,
                             data=b"\xAA" * 8, deferred=True))
        queue.submit(request(pre_id=3, addr=8, size=8,
                             data=b"\xBB" * 8, deferred=True))
        assert queue.coalesced == 1
        assert len(queue) == 1
        queue.release_deferred(3, 0)
        merged = queue.pop_ready()
        assert merged.addr == 0 and merged.size == 16
        assert merged.data == b"\xAA" * 8 + b"\xBB" * 8

    def test_cross_line_deferred_requests_do_not_coalesce(self):
        sim = Simulator()
        queue = PreExecRequestQueue(sim, capacity=4)
        queue.submit(request(pre_id=3, addr=0, size=8, deferred=True))
        queue.submit(request(pre_id=3, addr=100, size=8, deferred=True))
        assert queue.coalesced == 0
        assert len(queue) == 2

    def test_full_queue_drops_oldest_buffered(self):
        sim = Simulator()
        queue = PreExecRequestQueue(sim, capacity=2)
        for i in range(3):
            queue.submit(request(pre_id=i, addr=i * 4096, size=8,
                                 deferred=True))
        assert queue.dropped == 1
        assert len(queue) == 2
        queue.release_deferred(2, 0)
        # pre_id 0 was the oldest and got dropped.
        remaining = {r.pre_id for r in queue._requests}
        assert remaining == {1, 2}
