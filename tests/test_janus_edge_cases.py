"""Edge cases of the Janus datapath under adversarial usage."""

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


def make_engine(**janus_overrides):
    import dataclasses
    sim = Simulator()
    cfg = default_config()
    if janus_overrides:
        cfg = cfg.replace(janus=dataclasses.replace(
            cfg.janus, **janus_overrides))
    pipeline = build_pipeline(cfg)
    units = Resource(sim, capacity=4, name="units")
    executor = BmoExecutor(sim, pipeline, units)
    engine = JanusEngine(sim, pipeline, executor, cfg.janus)
    return sim, pipeline, engine


def submit(engine, pre_id, addr, data=None, func=PreFunc.BOTH,
           deferred=False, thread=0, size=None):
    engine.submit(PreExecRequest(
        pre_id=pre_id, thread_id=thread, transaction_id=0, func=func,
        addr=addr, data=data,
        size=size if size is not None
        else (len(data) if data else 64),
        deferred=deferred))


def test_operation_queue_overflow_drops_and_counts():
    sim, pipeline, engine = make_engine(operation_queue_entries=4)
    # One big request decodes into 32 line ops; only 4 admitted.
    submit(engine, 1, 0x10000, b"\x01" * (32 * 64))
    assert engine.stats.counters["ops_admitted"].value == 4
    assert engine.stats.counters["ops_dropped_full"].value == 28
    sim.run()
    # The admitted prefix still completes.
    assert all(e.complete for e in engine.irb.entries())


def test_deferred_request_never_started_never_executes():
    sim, pipeline, engine = make_engine()
    submit(engine, 5, 0x1000, line(1), deferred=True)
    sim.run()
    assert len(engine.irb) == 0
    assert len(engine.request_queue) == 1  # still buffered


def test_request_queue_overflow_discards_oldest_buffered():
    sim, pipeline, engine = make_engine(request_queue_entries=2)
    for i in range(3):
        submit(engine, i + 1, 0x1000 * (i + 1), line(i),
               deferred=True)
    assert engine.request_queue.dropped == 1
    remaining = {r.pre_id for r in engine.request_queue._requests}
    assert remaining == {2, 3}


def test_duplicate_pre_both_same_line_merges_not_duplicates():
    sim, pipeline, engine = make_engine()
    submit(engine, 7, 0x2000, line(3))
    submit(engine, 7, 0x2000, line(3))
    sim.run()
    assert len(engine.irb) == 1


def test_conflicting_pre_executions_same_line_different_objects():
    """Two pre_objs target the same line with different data: the
    most recent wins at match time; the loser is simply unused."""
    sim, pipeline, engine = make_engine()
    submit(engine, 1, 0x3000, line(1))
    sim.run()
    submit(engine, 2, 0x3000, line(2))
    sim.run()
    results = []

    def write():
        ctx, fully = yield from service_write(engine, 0, 0x3000, line(2))
        results.append((ctx, fully))

    sim.process(write())
    sim.run()
    ctx, fully = results[0]
    assert fully  # matched the newer, correct entry
    action = pipeline.commit(ctx)
    engine_enc = pipeline.by_name["encryption"].engine
    if action.write_data:
        assert engine_enc.decrypt(0x3000, action.payload) == line(2)


def test_interleaved_writes_same_line_stay_correct():
    """Two writes to one line in quick succession: the second's
    pre-executed counter goes stale and must be refreshed."""
    sim, pipeline, engine = make_engine()
    submit(engine, 1, 0x4000, line(1))
    submit(engine, 2, 0x4000, line(2))
    sim.run()
    done = []

    def writes():
        ctx1, _ = yield from service_write(engine, 0, 0x4000, line(1))
        pipeline.commit(ctx1)
        ctx2, _ = yield from service_write(engine, 0, 0x4000, line(2))
        pipeline.commit(ctx2)
        done.append(True)

    sim.process(writes())
    sim.run()
    assert done
    enc = pipeline.by_name["encryption"]
    assert enc.engine.current_counter(0x4000) == 2


def test_interface_buffered_without_start_is_detectable():
    """Paper §4.6: buffered requests without PRE_START_BUF just sit
    in the FIFO; the misuse machinery sees zero consumption."""
    sim, pipeline, engine = make_engine()
    api = JanusInterface(sim, engine, thread_id=0)
    obj = api.pre_init()

    def prog():
        yield from api.pre_both_buf(obj, 0x5000, line(1), 64)
        yield sim.delay(100)

    sim.process(prog())
    sim.run()
    assert engine.stats.counters["requests"].value == 1
    assert "ops_admitted" not in engine.stats.counters or \
        engine.stats.counters["ops_admitted"].value == 0


def test_pre_addr_zero_size_probe():
    sim, pipeline, engine = make_engine()
    submit(engine, 9, 0x6000, None, func=PreFunc.ADDR, size=0)
    sim.run()
    assert len(engine.irb) == 1
    assert engine.irb.entries()[0].ctx.completed == {"E1", "E2"}


def test_irb_aging_reclaims_abandoned_entries():
    import dataclasses
    sim, pipeline, engine = make_engine(irb_max_age_ns=500.0)
    submit(engine, 1, 0x7000, line(1))
    sim.run()
    assert len(engine.irb) == 1

    def later():
        yield sim.delay(1000)

    sim.process(later())
    sim.run()
    engine.irb.match_write(0, 0x9999 * 64, b"")  # triggers expiry scan
    assert len(engine.irb) == 0
    assert engine.irb.stats.counters["expired"].value == 1
