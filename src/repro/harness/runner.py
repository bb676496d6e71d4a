"""Run one (workload, mode, variant, cores) design point."""

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.common.config import SystemConfig
from repro.harness.crash_campaign import build, recover_image
from repro.obs import log as runlog
from repro.obs.tracer import Tracer
from repro.workloads import WorkloadParams


@dataclass
class ExperimentResult:
    """Outcome of one simulated run."""

    workload: str
    mode: str
    variant: str
    cores: int
    elapsed_ns: float
    transactions: int
    stats: Dict[str, float] = field(default_factory=dict)
    #: Full metrics snapshot (``MetricsRegistry.snapshot``) of the run.
    snapshot: Optional[Dict] = None
    #: Recovered-structure digest (``with_digest=True``): crash the
    #: completed run, recover, and hash every core's logical state.
    #: Topology-blind — identical at any shard width for equivalent
    #: runs (docs/sharding.md), unlike the per-scope metrics above.
    digest: Optional[str] = None

    @property
    def ns_per_transaction(self) -> float:
        return self.elapsed_ns / self.transactions \
            if self.transactions else float("inf")


def run_point(workload: str,
              mode: str = "serialized",
              variant: Optional[str] = None,
              cores: int = 1,
              params: Optional[WorkloadParams] = None,
              config: Optional[SystemConfig] = None,
              tracer: Optional[Tracer] = None,
              profiler=None,
              sampler=None,
              with_digest: bool = False,
              **config_overrides) -> ExperimentResult:
    """Simulate one design point and return its result.

    The point is built by :func:`repro.harness.crash_campaign.build`,
    which also picks the paper's default ``variant``.  Pass a
    :class:`Tracer` to capture the run's span timeline (export with
    :func:`repro.obs.export_chrome_trace`), a
    :class:`repro.obs.profile.SimProfiler` to attribute dispatch
    cost, and/or a :class:`repro.obs.timeseries.TimeSeriesSampler`
    to record a metric time series (the sampler is bound to the
    system's registry here).  Both are hooks on the simulator's one
    dispatch loop; with neither, it does no observability work.
    """
    system, workloads = build(workload, mode, params, variant=variant,
                              cores=cores, config=config,
                              tracer=tracer, **config_overrides)
    variant = workloads[0].variant
    if profiler is not None:
        system.sim.profile = profiler
    if sampler is not None:
        system.sim.sampler = sampler.bind(system.metrics, tracer=tracer)
    runlog.event("harness.runner", "run_point.start",
                 workload=workload, mode=mode, variant=variant,
                 cores=cores)
    elapsed = system.run_programs([w.run() for w in workloads])
    if sampler is not None:
        sampler.finish(elapsed)
    transactions = sum(w.completed_transactions for w in workloads)
    runlog.event("harness.runner", "run_point.done", sim_ns=elapsed,
                 workload=workload, mode=mode, variant=variant,
                 cores=cores, transactions=transactions,
                 events=system.sim.events)

    # Flat view for quick access; every registered scope (mc, janus,
    # irb, bmo, wq, nvm, core*) exports under its dotted path.
    stats: Dict[str, float] = system.metrics.as_flat_dict()
    dedup = system.pipeline.by_name.get("dedup")
    if dedup is not None:
        stats["dedup.observed_ratio"] = dedup.observed_ratio()
    snapshot = system.metrics.snapshot(meta={
        "workload": workload, "mode": mode, "variant": variant,
        "cores": cores, "elapsed_ns": elapsed,
        "transactions": transactions})
    digest = None
    if with_digest:
        # Crash the completed (quiesced, drained) run, recover from
        # the persisted image, and hash every core's recovered
        # logical structure.  Runs after the measurement and the
        # metrics snapshot, so it never perturbs either.
        state = recover_image(system.crash(), workloads)
        hasher = hashlib.sha256()
        for instance in workloads:
            hasher.update(instance.logical_digest(state.read)
                          .encode("ascii"))
        digest = hasher.hexdigest()
    return ExperimentResult(
        workload=workload, mode=mode, variant=variant, cores=cores,
        elapsed_ns=elapsed, transactions=transactions, stats=stats,
        snapshot=snapshot, digest=digest)


def speedup_over(baseline: ExperimentResult,
                 candidate: ExperimentResult) -> float:
    """Speedup of ``candidate`` relative to ``baseline`` (same work)."""
    if candidate.elapsed_ns <= 0:
        return float("inf")
    return baseline.elapsed_ns / candidate.elapsed_ns
