"""Integration tests for the assembled NVM system."""

import pytest

from repro.common.config import default_config
from repro.core import NvmSystem


def small_config(**overrides):
    base = dict(mode="serialized",
                memory=None)
    cfg = default_config()
    cfg = cfg.replace(**overrides) if overrides else cfg
    return cfg.validate()


def make_system(**overrides):
    return NvmSystem(default_config(**overrides))


def simple_write_program(core, addr, data, critical=False):
    yield from core.store(addr, data)
    yield from core.clwb(addr, len(data), critical=critical)
    yield from core.sfence()


def test_store_then_read_roundtrip():
    system = make_system(mode="serialized")
    core = system.cores[0]
    results = []

    def prog():
        yield from core.store(0x1000, b"hello")
        value = yield from core.read(0x1000, 5)
        results.append(value)

    system.run_programs([prog()])
    assert results == [b"hello"]


@pytest.mark.parametrize("mode", ["serialized", "parallel", "janus",
                                  "ideal"])
def test_persisted_line_lands_encrypted_in_nvm(mode):
    system = make_system(mode=mode)
    core = system.cores[0]
    data = bytes([7]) * 64
    system.run_programs([simple_write_program(core, 0x2000, data)])
    system.run()  # let background drains finish
    stored = system.nvm.read_line(0x2000)
    assert stored != bytes(64)
    assert stored != data  # ciphertext, not plaintext
    engine = system.pipeline.by_name["encryption"].engine
    assert engine.decrypt(0x2000, stored) == data


def test_mode_ordering_serialized_slowest_ideal_fastest():
    times = {}
    for mode in ("serialized", "parallel", "janus", "ideal"):
        system = make_system(mode=mode)
        core = system.cores[0]

        def prog(core=core):
            for i in range(8):
                yield from simple_write_program(
                    core, 0x4000 + 64 * i, bytes([i + 1]) * 64)

        times[mode] = system.run_programs([prog()])
    assert times["ideal"] < times["janus"] <= times["parallel"] + 1e-9
    assert times["parallel"] < times["serialized"]


def test_janus_mode_without_requests_behaves_like_parallel():
    """With no PRE_* calls the IRB never hits; latency tracks the
    parallel design (the engine falls back to full dataflow runs)."""
    t = {}
    for mode in ("parallel", "janus"):
        system = make_system(mode=mode)
        core = system.cores[0]
        t[mode] = system.run_programs(
            [simple_write_program(core, 0x4000, bytes([9]) * 64)])
    assert t["janus"] == pytest.approx(t["parallel"], rel=0.01)


def test_janus_pre_execution_accelerates_write():
    def instrumented(core):
        obj = core.api.pre_init()
        data = bytes([3]) * 64
        yield from core.api.pre_both(obj, 0x5000, data)
        yield from core.compute(2000)  # window for pre-execution
        yield from simple_write_program(core, 0x5000, data)

    def uninstrumented(core):
        data = bytes([3]) * 64
        yield from core.compute(2000)
        yield from simple_write_program(core, 0x5000, data)

    sys_janus = make_system(mode="janus")
    t_janus = sys_janus.run_programs([instrumented(sys_janus.cores[0])])
    sys_par = make_system(mode="parallel")
    t_par = sys_par.run_programs([uninstrumented(sys_par.cores[0])])
    assert t_janus < t_par
    assert sys_janus.janus.stats.counters["fully_pre_executed"].value == 1


def test_duplicate_write_skips_device_write():
    system = make_system(mode="serialized")
    core = system.cores[0]
    data = bytes([0x5A]) * 64

    def prog():
        yield from simple_write_program(core, 0x6000, data)
        yield from simple_write_program(core, 0x7000, data)

    system.run_programs([prog()])
    system.run()
    assert system.controller.stats.counters[
        "writes_cancelled_by_dedup"].value == 1
    # The second line was never physically written.
    assert system.nvm.read_line(0x7000) == bytes(64)
    dedup = system.pipeline.by_name["dedup"]
    assert dedup.table.remap[0x7000] == dedup.table.remap[0x6000]


def test_multi_core_programs_share_memory_system():
    system = make_system(mode="serialized", cores=4)
    lines = []

    def prog(core, base):
        yield from simple_write_program(core, base, bytes([core.core_id + 1]) * 64)
        lines.append(base)

    system.run_programs([prog(c, 0x8000 + 0x1000 * i)
                         for i, c in enumerate(system.cores)])
    assert len(lines) == 4
    system.run()
    for i, base in enumerate(sorted(lines)):
        engine = system.pipeline.by_name["encryption"].engine
        assert engine.decrypt(base, system.nvm.read_line(base)) \
            == bytes([i + 1]) * 64


def test_multicore_contention_stretches_time():
    """With a constrained shared memory system (one bank, tiny write
    queue), four cores' writes back-pressure each other."""
    import dataclasses
    from repro.common.config import MemoryConfig

    def make(cores):
        cfg = default_config(cores=cores)
        cfg = cfg.replace(memory=MemoryConfig(
            channels=1, write_service_ns=600, write_queue_entries=2))
        return NvmSystem(cfg.validate())

    def workload(core, base):
        for i in range(8):
            yield from simple_write_program(core, base + 64 * i,
                                            bytes([i + 1]) * 64)

    single = make(1)
    t1 = single.run_programs([workload(single.cores[0], 0x10000)])
    quad = make(4)
    t4 = quad.run_programs([workload(c, 0x10000 + 0x10000 * i)
                            for i, c in enumerate(quad.cores)])
    # 4x the work on a saturated memory system: strictly slower than
    # one core's run, but far better than 4x serial.
    assert t1 < t4 < 4 * t1


def test_critical_write_waits_for_metadata():
    system = make_system(mode="serialized")
    core = system.cores[0]
    system.run_programs([simple_write_program(core, 0x9000,
                                              bytes([1]) * 64,
                                              critical=True)])
    assert system.controller.stats.counters[
        "metadata_atomic_waits"].value == 1


def test_selective_atomicity_off_makes_every_write_wait():
    system = make_system(mode="serialized",
                         selective_metadata_atomicity=False)
    core = system.cores[0]
    system.run_programs([simple_write_program(core, 0x9000,
                                              bytes([1]) * 64)])
    assert system.controller.stats.counters[
        "metadata_atomic_waits"].value == 1


def test_sfence_with_nothing_outstanding_is_cheap():
    system = make_system(mode="serialized")
    core = system.cores[0]

    def prog():
        yield from core.sfence()

    t = system.run_programs([prog()])
    assert t < 1.0


def test_crash_flushes_adr_domain():
    system = make_system(mode="serialized")
    core = system.cores[0]
    data = bytes([0x42]) * 64
    # Run only until the persist point; device write still in flight.
    proc = system.sim.process(simple_write_program(core, 0xA000, data))
    system.sim.run(until=None, stop_event=proc)
    snapshot = system.crash()
    assert 0xA000 in snapshot["nvm_lines"]
    engine = system.pipeline.by_name["encryption"].engine
    assert engine.decrypt(0xA000, snapshot["nvm_lines"][0xA000]) == data


def test_drain_failure_is_not_swallowed():
    """A write-queue drain has no waiter; an error landing its line
    in functional NVM must still stop the run instead of vanishing
    while ``run_programs`` returns normally."""
    from repro.harness.crash_campaign import build
    from repro.workloads import WorkloadParams

    system, [workload] = build(
        "queue", "serialized", WorkloadParams(n_transactions=3))
    drains = []

    def broken(entry):
        drains.append(entry.addr)
        raise RuntimeError(f"cannot land {entry.addr:#x}")

    system.controller._drain_to_nvm = broken
    with pytest.raises(RuntimeError, match="cannot land"):
        system.run_programs([workload.run()])
    assert len(drains) == 1
