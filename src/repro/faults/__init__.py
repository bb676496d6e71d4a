"""Deterministic fault injection + graceful degradation.

``repro.faults`` models what the paper's robustness story has to
survive: media cells flipping or sticking, metadata stores being
corrupted, stale IRB results, and write-queue entries dropped or torn
by power loss.  Everything is seeded — the same
:class:`~repro.faults.plan.FaultPlan` against the same system seed
produces byte-identical behaviour — so fault campaigns are replayable
evidence, not flaky noise.

* :class:`~repro.faults.plan.FaultSpec` / ``FaultPlan`` describe
  *what* to inject and *when* (on the Nth eligible event);
* :class:`~repro.faults.injector.FaultInjector` is the hook layer the
  machine calls from the write queue, Janus engine, resilient-read
  path, and crash path;
* :class:`~repro.faults.degraded.DegradedModeManager` is the
  graceful-degradation policy: bounded retry with deterministic
  sim-time exponential backoff (:class:`~repro.faults.degraded.
  RetryPolicy`) for correctable faults, line poisoning for
  uncorrectable ones;
* recovery and scrub are themselves crashable: ``recovery_crash`` /
  ``scrub_crash`` specs fire at instrumented steps and raise
  :class:`~repro.common.errors.RecoveryCrash` (see
  ``docs/robustness.md`` for the idempotence contract).
"""

from repro.faults.degraded import DegradedModeManager, RetryPolicy
from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    FAULT_KINDS,
    FaultPlan,
    FaultPlanError,
    FaultSpec,
)

__all__ = [
    "FAULT_KINDS",
    "FaultPlan",
    "FaultPlanError",
    "FaultSpec",
    "FaultInjector",
    "DegradedModeManager",
    "RetryPolicy",
]
