"""Tests for the event-driven BMO executor."""

import pytest

from repro.bmo import build_pipeline
from repro.bmo.base import ADDR, DATA
from repro.bmo.executor import BmoExecutor
from repro.common.config import default_config
from repro.common.errors import SimulationError
from repro.sim import Resource, Simulator
from tests.writepath_reference import run_subops


def line(pattern: int) -> bytes:
    return bytes([pattern & 0xFF]) * 64


def make_executor(units=4, pipeline_fraction=1.0, **cfg_overrides):
    """Executor with fully-occupying units by default so the classic
    list-scheduling identities hold; pipelined-unit behaviour has its
    own tests below."""
    sim = Simulator()
    cfg = default_config(**cfg_overrides)
    pipeline = build_pipeline(cfg)
    executor = BmoExecutor(sim, pipeline,
                           Resource(sim, capacity=units, name="units"),
                           pipeline_fraction=pipeline_fraction)
    return sim, pipeline, executor


def pre_execute(executor, ctx):
    """Process helper: run every sub-op the context's inputs allow."""
    graph = executor.pipeline.graph
    yield from run_subops(executor, ctx,
                          graph.runnable_with(ctx.available_inputs))


def refresh_and_complete(executor, ctx):
    """Process helper: wait for the executor's callback refresh."""
    refreshed = executor.sim.event("refreshed")
    executor.refresh_and_complete(ctx, refreshed, refreshed.succeed)
    yield refreshed


def test_serialized_run_charges_serial_latency():
    sim, pipeline, executor = make_executor()
    ctx = pipeline.make_context(addr=0x40, data=line(1))
    done = sim.event("serialized")
    executor.run_serialized(ctx, done, done.succeed)
    sim.run()
    assert done.triggered and done._exc is None
    assert sim.now == pytest.approx(pipeline.serial_latency())
    assert set(ctx.completed) == set(pipeline.all_subops)


def test_dataflow_matches_static_parallel_schedule():
    sim, pipeline, executor = make_executor(units=4)
    ctx = pipeline.make_context(addr=0x40, data=line(1))
    sim.process(run_subops(executor, ctx))
    sim.run()
    static = pipeline.graph.parallel_schedule(units=4)
    critical_path = pipeline.graph.parallel_schedule(units=64).makespan
    # Both schedulers are greedy heuristics; the event-driven one must
    # fall between the critical-path bound and the static list
    # schedule (it never idles a unit while work is ready).
    assert critical_path <= sim.now <= static.makespan + 1e-9
    assert sim.now < pipeline.serial_latency()


def test_dataflow_with_one_unit_equals_serial_sum():
    sim, pipeline, executor = make_executor(units=1)
    ctx = pipeline.make_context(addr=0x40, data=line(1))
    sim.process(run_subops(executor, ctx))
    sim.run()
    assert sim.now == pytest.approx(pipeline.serial_latency())


def test_pre_execution_with_addr_only_runs_e1_e2():
    sim, pipeline, executor = make_executor()
    ctx = pipeline.make_context(addr=0x40)  # no data yet
    sim.process(pre_execute(executor, ctx))
    sim.run()
    assert ctx.completed == {"E1", "E2"}
    assert "otp" in ctx.values


def test_pre_execution_with_data_only_runs_d1_d2():
    sim, pipeline, executor = make_executor()
    ctx = pipeline.make_context(data=line(1))
    sim.process(pre_execute(executor, ctx))
    sim.run()
    assert ctx.completed == {"D1", "D2"}


def test_pre_execution_with_both_completes_everything():
    sim, pipeline, executor = make_executor()
    ctx = pipeline.make_context(addr=0x40, data=line(1))
    sim.process(pre_execute(executor, ctx))
    sim.run()
    assert set(ctx.completed) == set(pipeline.all_subops)


def test_refresh_and_complete_after_full_pre_execution_is_instant():
    sim, pipeline, executor = make_executor()
    ctx = pipeline.make_context(addr=0x40, data=line(1))
    sim.process(pre_execute(executor, ctx))
    sim.run()
    t_pre = sim.now

    def finish():
        yield from refresh_and_complete(executor, ctx)
        pipeline.commit(ctx)

    sim.process(finish())
    sim.run()
    assert sim.now == pytest.approx(t_pre)  # zero extra latency


def test_refresh_reruns_stale_counter_chain():
    sim, pipeline, executor = make_executor()
    victim = pipeline.make_context(addr=0x40, data=line(1))
    sim.process(pre_execute(executor, victim))
    sim.run()
    # Another write to the same line commits first -> counter stale.
    other = pipeline.make_context(addr=0x40, data=line(2))
    pipeline.execute_all(other)
    pipeline.commit(other)
    t0 = sim.now

    def finish():
        yield from refresh_and_complete(executor, victim)
        pipeline.commit(victim)

    sim.process(finish())
    sim.run()
    assert sim.now > t0  # had to re-run E1/E2 and dependents
    engine = pipeline.by_name["encryption"].engine
    assert engine.current_counter(0x40) == 2


def test_partial_subset_requires_completed_deps():
    sim, pipeline, executor = make_executor()
    ctx = pipeline.make_context(addr=0x40, data=line(1))
    with pytest.raises(SimulationError):
        proc = sim.process(run_subops(executor, ctx, ["E3"]))
        sim.run()
        if proc._exc:
            raise proc._exc


def test_refresh_requires_addr_and_data():
    sim, pipeline, executor = make_executor()
    ctx = pipeline.make_context(addr=0x40)
    waiter = sim.event("refreshed")
    executor.refresh_and_complete(ctx, waiter, waiter.succeed)
    assert isinstance(waiter._exc, SimulationError)


def test_concurrent_writes_contend_for_units():
    sim, pipeline, executor = make_executor(units=4)
    single_ctx = pipeline.make_context(addr=0x40, data=line(1))
    sim.process(run_subops(executor, single_ctx))
    sim.run()
    single = sim.now

    sim2, pipeline2, executor2 = make_executor(units=4)
    procs = []
    for i in range(4):
        ctx = pipeline2.make_context(addr=0x40 * (i + 1), data=line(i))
        procs.append(sim2.process(run_subops(executor2, ctx)))
    sim2.run()
    assert sim2.now > single  # contention stretched the makespan


def test_pipelined_units_shorten_contention_not_latency():
    """With an initiation interval below the latency, a single-write
    chain is unchanged but concurrent writes overlap on one unit."""
    sim, pipeline, executor = make_executor(units=1,
                                            pipeline_fraction=0.25)
    ctx = pipeline.make_context(addr=0x40, data=line(1))
    sim.process(run_subops(executor, ctx))
    sim.run()
    single = sim.now
    # Critical-path latency is NOT shortened by pipelining.
    critical = pipeline.graph.parallel_schedule(units=64).makespan
    assert single >= critical

    sim2, pipeline2, executor2 = make_executor(units=1,
                                               pipeline_fraction=0.25)
    for i in range(4):
        ctx2 = pipeline2.make_context(addr=0x40 * (i + 1), data=line(i))
        sim2.process(run_subops(executor2, ctx2))
    sim2.run()
    # Four writes through one pipelined unit cost far less than 4x.
    assert sim2.now < 2.5 * single


def test_invalid_pipeline_fraction_rejected():
    import pytest as _pytest
    with _pytest.raises(SimulationError):
        make_executor(pipeline_fraction=0.0)
    with _pytest.raises(SimulationError):
        make_executor(pipeline_fraction=1.5)


def test_stats_count_executed_subops():
    sim, pipeline, executor = make_executor()
    ctx = pipeline.make_context(addr=0x40, data=line(1))
    sim.process(run_subops(executor, ctx))
    sim.run()
    # Zero-latency ops (none by default) still count.
    assert executor.stats.counters["subops_executed"].value == \
        len(pipeline.all_subops)
