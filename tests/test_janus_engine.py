"""End-to-end tests for the Janus engine and software interface."""

import pytest

from repro.bmo import build_pipeline
from repro.bmo.executor import BmoExecutor
from repro.common.config import default_config
from repro.janus import JanusEngine, JanusInterface
from repro.janus.queues import PreExecRequest, PreFunc
from repro.sim import Resource, Simulator


def line(pattern: int) -> bytes:
    return bytes([pattern & 0xFF]) * 64


def service_write(engine, thread_id, line_addr, data):
    """Process helper: wait for the engine's callback write service;
    returns ``(ctx, fully_pre_executed)``."""
    served = engine.sim.event("served")
    engine.service_write(thread_id, line_addr, data, served,
                         lambda ctx, fully: served.succeed((ctx, fully)))
    return (yield served)


def make_engine(**cfg_overrides):
    sim = Simulator()
    cfg = default_config(**cfg_overrides)
    pipeline = build_pipeline(cfg)
    units = Resource(sim, capacity=cfg.janus.scaled("bmo_units"),
                     name="units")
    executor = BmoExecutor(sim, pipeline, units)
    engine = JanusEngine(sim, pipeline, executor, cfg.janus)
    return sim, cfg, pipeline, engine


def submit_both(engine, addr, data, pre_id=1, thread=0):
    engine.submit(PreExecRequest(
        pre_id=pre_id, thread_id=thread, transaction_id=0,
        func=PreFunc.BOTH, addr=addr, data=data, size=len(data)))


def test_pre_execution_fills_irb_and_completes():
    sim, cfg, pipeline, engine = make_engine()
    submit_both(engine, 0x1000, line(1))
    sim.run()
    entries = engine.irb.entries()
    assert len(entries) == 1
    assert entries[0].complete
    assert set(entries[0].ctx.completed) == set(pipeline.all_subops)


def test_write_after_full_pre_execution_is_instant_and_fully_flagged():
    sim, cfg, pipeline, engine = make_engine()
    submit_both(engine, 0x1000, line(1))
    sim.run()
    t0 = sim.now
    results = []

    def write():
        ctx, fully = yield from service_write(engine, 0, 0x1000, line(1))
        results.append((ctx, fully, sim.now))

    sim.process(write())
    sim.run()
    ctx, fully, t_done = results[0]
    assert fully
    assert t_done == pytest.approx(t0)
    action = pipeline.commit(ctx)
    assert action.write_data
    assert engine.stats.counters["fully_pre_executed"].value == 1


def test_write_without_pre_execution_runs_parallel_bmos():
    sim, cfg, pipeline, engine = make_engine()
    results = []

    def write():
        ctx, fully = yield from service_write(engine, 0, 0x2000, line(2))
        results.append((fully, sim.now))

    sim.process(write())
    sim.run()
    fully, t_done = results[0]
    assert not fully
    # Took at least the parallel critical path, less than serial.
    assert 0 < t_done < pipeline.serial_latency()


def test_addr_only_pre_execution_partially_helps():
    sim, cfg, pipeline, engine = make_engine()
    engine.submit(PreExecRequest(
        pre_id=1, thread_id=0, transaction_id=0,
        func=PreFunc.ADDR, addr=0x1000, size=64))
    sim.run()
    entry = engine.irb.entries()[0]
    assert entry.ctx.completed == {"E1", "E2"}
    results = []

    def write():
        ctx, fully = yield from service_write(engine, 0, 0x1000, line(3))
        results.append((fully, sim.now - t0))

    t0 = sim.now
    sim.process(write())
    sim.run()
    fully, elapsed = results[0]
    assert not fully
    assert 0 < elapsed < pipeline.serial_latency()


def test_data_mismatch_reruns_data_dependent_subops():
    sim, cfg, pipeline, engine = make_engine()
    submit_both(engine, 0x1000, line(1))
    sim.run()
    t0 = sim.now
    results = []

    def write():
        # Different data than was pre-executed.
        ctx, fully = yield from service_write(engine, 0, 0x1000, line(9))
        results.append((ctx, fully, sim.now - t0))

    sim.process(write())
    sim.run()
    ctx, fully, elapsed = results[0]
    assert not fully
    assert engine.stats.counters["data_mismatches"].value == 1
    assert elapsed > 0
    # The committed ciphertext must decrypt to the *new* data.
    action = pipeline.commit(ctx)
    engine_enc = pipeline.by_name["encryption"].engine
    assert engine_enc.decrypt(0x1000, action.payload) == line(9)


def test_write_arriving_before_pre_execution_completes_waits():
    sim, cfg, pipeline, engine = make_engine()
    results = []

    def racer():
        submit_both(engine, 0x1000, line(1))
        # Arrive almost immediately, long before MD5 (321 ns) is done.
        yield sim.delay(5)
        ctx, fully = yield from service_write(engine, 0, 0x1000, line(1))
        results.append((fully, sim.now))

    sim.process(racer())
    sim.run()
    fully, t_done = results[0]
    assert fully  # complete-bit path: waited for in-flight work
    assert t_done < pipeline.serial_latency() + 5


def test_irb_capacity_limits_pre_execution():
    sim, cfg, pipeline, engine = make_engine()
    engine.irb.capacity = 2
    for i in range(4):
        submit_both(engine, 0x1000 + 64 * i, line(i), pre_id=i + 1)
    sim.run()
    assert len(engine.irb) == 2
    assert engine.irb.stats.counters["dropped_full"].value == 2


def test_irb_full_drops_are_not_counted_as_admitted():
    """ops_admitted must count only operations that actually landed in
    the IRB — a full-IRB drop used to be double-counted as both
    admitted and dropped."""
    sim, cfg, pipeline, engine = make_engine()
    engine.irb.capacity = 2
    for i in range(5):
        submit_both(engine, 0x1000 + 64 * i, line(i), pre_id=i + 1)
    sim.run()
    admitted = engine.stats.counters["ops_admitted"].value
    dropped = engine.irb.stats.counters["dropped_full"].value
    assert admitted == 2
    assert dropped == 3
    landed = (engine.irb.stats.counters["inserted"].value
              + engine.irb.stats.counters["merged"].value)
    assert admitted == landed


def test_admit_pre_executes_the_merged_entry():
    """insert() returns the owning (possibly merged-into) entry and
    _admit must pre-execute that one, not the discarded duplicate."""
    sim, cfg, pipeline, engine = make_engine()
    api = JanusInterface(sim, engine, thread_id=0)
    obj = api.pre_init()

    def prog():
        yield from api.pre_data(obj, line(4))
        yield from api.pre_addr(obj, 0x3000, 64)
        yield sim.delay(2000)

    sim.process(prog())
    sim.run()
    entries = engine.irb.entries()
    assert len(entries) == 1
    assert entries[0].complete
    assert entries[0].inflight is None


def test_metadata_change_invalidation_end_to_end():
    sim, cfg, pipeline, engine = make_engine()
    # Two lines pre-executed with the same value: second one is a dup
    # of the first *after* the first commits.
    submit_both(engine, 0x1000, line(7), pre_id=1)
    sim.run()
    done = []

    def writes():
        ctx, _ = yield from service_write(engine, 0, 0x1000, line(7))
        pipeline.commit(ctx)
        # Overwrite the canonical copy with different data; dedup
        # metadata changes and notifies the IRB.
        submit_both(engine, 0x2000, line(7), pre_id=2)
        yield sim.delay(2000)  # let pre-execution finish
        ctx2, _ = yield from service_write(engine, 0, 0x1000, line(8))
        pipeline.commit(ctx2)
        ctx3, fully3 = yield from service_write(engine, 0, 0x2000, line(7))
        action = pipeline.commit(ctx3)
        done.append((fully3, action))

    sim.process(writes())
    sim.run()
    fully3, action = done[0]
    # The entry for 0x2000 was invalidated (or its verdict refreshed):
    # the value 7 no longer exists in memory, so it must be written.
    assert action.write_data


def test_thread_exit_clears_entries():
    sim, cfg, pipeline, engine = make_engine()
    submit_both(engine, 0x1000, line(1), thread=3)
    sim.run()
    assert len(engine.irb) == 1
    engine.clear_thread(3)
    assert len(engine.irb) == 0


def test_memory_swap_clears_range():
    sim, cfg, pipeline, engine = make_engine()
    submit_both(engine, 0x1000, line(1), pre_id=1)
    submit_both(engine, 0x8000, line(2), pre_id=2)
    sim.run()
    engine.on_memory_swap(0x0, 0x4000)
    assert len(engine.irb) == 1
    assert engine.irb.entries()[0].line_addr == 0x8000


class TestInterface:
    def test_disabled_interface_is_free_noop(self):
        sim = Simulator()
        api = JanusInterface(sim, engine=None, thread_id=0)
        obj = api.pre_init()

        def prog():
            yield from api.pre_addr(obj, 0x1000, 64)
            yield from api.pre_data(obj, line(1))
            yield from api.pre_start_buf(obj)
            yield sim.delay(1)

        sim.process(prog())
        sim.run()
        assert sim.now == pytest.approx(1.0)
        assert api.calls == 0

    def test_pre_init_assigns_unique_ids(self):
        sim = Simulator()
        api = JanusInterface(sim, engine=None, thread_id=5,
                             transaction_id_provider=lambda: 42)
        a, b = api.pre_init(), api.pre_init()
        assert a.pre_id != b.pre_id
        assert a.thread_id == 5 and a.transaction_id == 42

    def test_split_addr_data_calls_merge_in_irb(self):
        sim, cfg, pipeline, engine = make_engine()
        api = JanusInterface(sim, engine, thread_id=0)
        obj = api.pre_init()

        def prog():
            yield from api.pre_data(obj, line(4))
            yield from api.pre_addr(obj, 0x3000, 64)
            yield sim.delay(2000)

        sim.process(prog())
        sim.run()
        entries = engine.irb.entries()
        assert len(entries) == 1
        assert entries[0].line_addr == 0x3000
        assert set(entries[0].ctx.completed) == set(pipeline.all_subops)

    def test_deferred_buf_calls_coalesce(self):
        sim, cfg, pipeline, engine = make_engine()
        api = JanusInterface(sim, engine, thread_id=0)
        obj = api.pre_init()

        def prog():
            yield from api.pre_both_buf(obj, 0x4000, b"\xAA" * 32, 32)
            yield from api.pre_both_buf(obj, 0x4020, b"\xBB" * 32, 32)
            yield from api.pre_start_buf(obj)
            yield sim.delay(2000)

        sim.process(prog())
        sim.run()
        assert engine.request_queue.coalesced == 1
        entries = engine.irb.entries()
        assert len(entries) == 1
        assert entries[0].data == b"\xAA" * 32 + b"\xBB" * 32

    def test_pre_both_val_with_line_image(self):
        sim, cfg, pipeline, engine = make_engine()
        api = JanusInterface(sim, engine, thread_id=0)
        obj = api.pre_init()
        image = (1).to_bytes(8, "little") + bytes(56)

        def prog():
            yield from api.pre_both_val(obj, 0x5000, 1, line_image=image)
            yield sim.delay(2000)
            ctx, fully = yield from service_write(engine, 0, 0x5000, image)
            assert fully

        proc = sim.process(prog())
        sim.run()
        assert proc._exc is None
