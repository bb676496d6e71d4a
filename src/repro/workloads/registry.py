"""Workload registry and factory."""

from typing import Dict, Optional, Type

from repro.common.errors import ConfigError
from repro.compiler import InstrumentationPlan
from repro.workloads.array_swap import ArraySwapWorkload
from repro.workloads.base import TransactionalWorkload, WorkloadParams
from repro.workloads.btree import BTreeWorkload
from repro.workloads.hash_table import HashTableWorkload
from repro.workloads.queue_wl import QueueWorkload
from repro.workloads.rbtree import RBTreeWorkload
from repro.workloads.tatp import TatpWorkload
from repro.workloads.tpcc import TpccWorkload

#: The paper's Table 4 suite, in its order.
WORKLOADS: Dict[str, Type[TransactionalWorkload]] = {
    "array_swap": ArraySwapWorkload,
    "queue": QueueWorkload,
    "hash_table": HashTableWorkload,
    "rbtree": RBTreeWorkload,
    "btree": BTreeWorkload,
    "tatp": TatpWorkload,
    "tpcc": TpccWorkload,
}

#: The five workloads whose transaction size scales (Fig. 13/14).
SCALABLE_WORKLOADS = [name for name, cls in WORKLOADS.items()
                      if cls.scalable]

INSTRUMENTATION_VARIANTS = ("baseline", "manual", "auto", "profile")


def plan_for(workload_cls: Type[TransactionalWorkload],
             variant: str,
             params: Optional[WorkloadParams] = None
             ) -> InstrumentationPlan:
    """The instrumentation plan for a variant of a workload."""
    if variant == "baseline":
        return InstrumentationPlan.empty(workload_cls.name)
    if variant == "manual":
        return workload_cls.manual_plan()
    if variant == "auto":
        return workload_cls.auto_plan()
    if variant == "profile":
        # §6 future-work: dynamic (profile-guided) instrumentation.
        from repro.compiler.profile_guided import \
            build_profile_guided_plan
        return build_profile_guided_plan(workload_cls.name,
                                         params=params)
    raise ConfigError(f"unknown instrumentation variant {variant!r}")


def make_workload(name: str, system, core,
                  params: Optional[WorkloadParams] = None,
                  variant: str = "manual") -> TransactionalWorkload:
    """Construct and seed a workload instance on one core."""
    if name not in WORKLOADS:
        raise ConfigError(
            f"unknown workload {name!r}; choose from "
            f"{sorted(WORKLOADS)}")
    cls = WORKLOADS[name]
    params = params or WorkloadParams()
    workload = cls(system, core, params,
                   plan=plan_for(cls, variant, params=params),
                   variant=variant)
    workload.setup()
    return workload
