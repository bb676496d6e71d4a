"""Profile-guided instrumentation (paper §6, future work #1).

The static pass is limited by missing runtime information: loop trip
counts, pointer targets, allocator results (§4.5.2).  The paper's
future-work section proposes *dynamic analysis* to recover those
opportunities.  This module implements it:

1. run the workload once with a :class:`RecordingPlan` — a plan that
   issues nothing but records, for every hook firing, which objects
   had a usable address and/or full-line data at that moment;
2. derive an :class:`InstrumentationPlan` from the profile: each
   (hook, object) pair that consistently carried usable inputs gets
   the strongest directive the profile supports (``both`` > ``addr`` /
   ``data``), placed at the *earliest* hook where the inputs were
   available.

Because hooks inside loops fire per iteration, the derived plan covers
loop bodies and allocator-produced addresses — exactly the territory
the static pass must cede, and in practice it converges on the
hand-written manual plans (asserted by tests).
"""

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from repro.compiler.instrument import Directive, InstrumentationPlan


@dataclass
class _Observation:
    """What one (hook, object) pair offered across a profiling run."""

    firings: int = 0
    with_addr: int = 0
    with_data: int = 0
    with_both: int = 0


class RecordingPlan(InstrumentationPlan):
    """A plan that records hook environments instead of issuing.

    Drop-in replacement for a real plan during a profiling run: it
    reports no directives (``at`` returns []), and the workload's
    ``fire_hook`` helper feeds it through :meth:`observe`.
    """

    def __init__(self, template: str = "profile"):
        super().__init__(template=template)
        self.observations: Dict[Tuple[str, str], _Observation] = {}
        #: Order in which hooks were first seen (per transaction the
        #: pattern repeats; first-seen order approximates earliness).
        self.hook_order: List[str] = []

    def at(self, hook: str) -> List[Directive]:
        return []

    def observe(self, hook: str, env: Dict[str, Tuple]) -> None:
        if hook not in self.hook_order:
            self.hook_order.append(hook)
        for obj, (addr, data, _size) in env.items():
            key = (hook, obj)
            record = self.observations.setdefault(key, _Observation())
            record.firings += 1
            has_addr = addr is not None
            has_data = data is not None and len(data) % 64 == 0 \
                and len(data) > 0
            if has_addr:
                record.with_addr += 1
            if has_data:
                record.with_data += 1
            if has_addr and has_data:
                record.with_both += 1


class ProfileGuidedInstrumenter:
    """Derives a plan from a profiling run."""

    def __init__(self, min_availability: float = 0.9):
        #: Fraction of firings that must have carried the inputs for a
        #: directive to be emitted (guards against conditional paths
        #: where the object is usually unusable).
        self.min_availability = min_availability

    def profile(self, system, workload_factory) -> RecordingPlan:
        """Run one profiling pass; returns the filled recording plan.

        ``workload_factory(plan)`` must build a fresh workload bound
        to ``plan`` (see :func:`profile_workload` for the common
        case).
        """
        plan = RecordingPlan()
        workload = workload_factory(plan)
        system.run_programs([workload.run()])
        return plan

    def derive(self, recording: RecordingPlan,
               template_name: str = "profile-guided"
               ) -> InstrumentationPlan:
        """Build the instrumentation plan from a profile."""
        plan = InstrumentationPlan(template=template_name)
        # Earliest hook first, so each object lands where its inputs
        # first became available.
        claimed: Dict[str, Set[str]] = {}
        for hook in recording.hook_order:
            for (obs_hook, obj), record in \
                    recording.observations.items():
                if obs_hook != hook:
                    continue
                if obj in claimed.get("__both__", set()):
                    continue
                threshold = self.min_availability * record.firings
                if record.with_both >= threshold:
                    plan.add(hook, Directive("both", obj))
                    claimed.setdefault("__both__", set()).add(obj)
                elif record.with_addr >= threshold and \
                        obj not in claimed.get("__addr__", set()):
                    plan.add(hook, Directive("addr", obj))
                    claimed.setdefault("__addr__", set()).add(obj)
                elif record.with_data >= threshold and \
                        obj not in claimed.get("__data__", set()):
                    plan.add(hook, Directive("data", obj))
                    claimed.setdefault("__data__", set()).add(obj)
        return plan


def build_profile_guided_plan(workload_name: str,
                              params=None,
                              seed: int = 42) -> InstrumentationPlan:
    """Convenience: profile ``workload_name`` on a scratch system and
    return the derived plan."""
    from repro.common.config import default_config
    from repro.core import NvmSystem
    from repro.workloads import WorkloadParams
    from repro.workloads.registry import WORKLOADS

    params = params or WorkloadParams(n_items=16, value_size=64,
                                      n_transactions=6)
    cls = WORKLOADS[workload_name]
    # Profile on a cheap design point: the plan issues nothing, so the
    # mode does not matter; parallel avoids Janus bookkeeping.
    system = NvmSystem(default_config(mode="parallel", seed=seed))
    instrumenter = ProfileGuidedInstrumenter()

    def factory(plan):
        workload = cls(system, system.cores[0], params, plan=plan)
        workload.setup()
        return workload

    recording = instrumenter.profile(system, factory)
    return instrumenter.derive(recording,
                               template_name=f"{workload_name}-pgo")
