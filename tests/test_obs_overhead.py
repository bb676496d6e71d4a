"""Pin the disabled-observability path to doing no observability work.

The profiler and the sampler are hooks that :meth:`Simulator.run`
reads once per call.  These tests guarantee the *disabled*
configuration (the default for every figure sweep and bench run)
allocates no spans, samples or log records, and that attaching a hook
does not change what the run simulates.  Its host cost is measured
end to end by ``perfbench/`` with ``--trace 0``.
"""

from repro.harness.runner import run_point
from repro.obs import log as runlog
from repro.obs.tracer import NULL_TRACER
from repro.sim import Simulator
from repro.workloads import WorkloadParams


class TestDisabledPathStructure:
    def test_hooks_default_to_none(self):
        sim = Simulator()
        assert sim.profile is None and sim.sampler is None

    def test_instrumented_loop_used_when_profiler_attached(self):
        from repro.obs.profile import SimProfiler

        sim = Simulator()
        sim.profile = SimProfiler()
        sim._schedule(1.0, lambda: None)
        sim.run()
        assert sim.profile.total_events == 1

    def test_disabled_run_allocates_no_obs_state(self):
        result = run_point("queue", mode="janus",
                           params=WorkloadParams(n_transactions=2))
        assert result.transactions == 2
        # No tracer given: the system wires the shared no-op tracer,
        # which stores nothing.
        assert len(NULL_TRACER) == 0
        assert runlog.current() is None

    def test_instrumented_and_fast_loops_agree(self):
        params = WorkloadParams(n_transactions=3)
        from repro.obs.profile import SimProfiler

        plain = run_point("queue", mode="janus", params=params)
        profiled = run_point("queue", mode="janus", params=params,
                             profiler=SimProfiler())
        assert profiled.elapsed_ns == plain.elapsed_ns
        assert profiled.stats == plain.stats

