#!/usr/bin/env python3
"""Extending the framework with a new BMO.

The paper's software interface is deliberately generic: programs only
expose the address and data of future writes, so the hardware BMO set
can change without touching the software (§3.2 requirement 3).  This
example adds an ORAM-flavoured "address scrambling" BMO, composes it
with the standard pipeline, and shows that (a) the dependency analysis
classifies the new sub-operations automatically and (b) existing
pre-execution requests cover them with no program changes.

Run:  python examples/custom_bmo.py
"""

import hashlib

from repro.bmo import BmoPipeline, DedupBmo, EncryptionBmo
from repro.bmo.base import ADDR, BackendOperation, BmoContext, SubOp
from repro.bmo.dedup import DedupTable
from repro.bmo.executor import BmoExecutor
from repro.common.config import default_config
from repro.sim import Resource, Simulator


class ScramblingBmo(BackendOperation):
    """Toy ORAM-style location scrambling (Table 1 lists ORAM at
    ~1000 ns — we model a lightweight one-hop variant)."""

    name = "scrambling"

    def __init__(self, latency_ns: float = 120.0, regions: int = 1 << 20):
        super().__init__()
        self.latency_ns = latency_ns
        self.regions = regions
        self.epoch = 0

    def _s1(self, ctx: BmoContext) -> None:
        digest = hashlib.sha1(
            ctx.addr.to_bytes(8, "little")
            + self.epoch.to_bytes(4, "little")).digest()
        slot = int.from_bytes(digest[:4], "little") % self.regions
        ctx.values["scrambled_slot"] = slot

    def subops(self):
        return (
            SubOp("S1", self.name, self.latency_ns,
                  external=frozenset({ADDR}), run=self._s1),
        )

    def commit(self, ctx: BmoContext) -> None:
        pass

    def stale_subops(self, ctx: BmoContext) -> set:
        return set()


def main():
    cfg = default_config()
    scrambler = ScramblingBmo()
    pipeline = BmoPipeline([
        scrambler,
        DedupBmo(cfg.bmo_latencies, cfg.dedup,
                 table=DedupTable(shadow_base=1 << 30),
                 with_encryption=True),
        EncryptionBmo(cfg.bmo_latencies, with_dedup=True),
    ])

    print("pipeline with a custom BMO:")
    print(pipeline.describe())
    print()

    labels = pipeline.classification()
    print(f"S1 classified automatically as: {labels['S1']!r} "
          "(pre-executable with the address alone)")

    # The generic interface needs no change: an address-only
    # pre-execution covers S1 together with E1-E2.
    sim = Simulator()
    executor = BmoExecutor(sim, pipeline,
                           Resource(sim, capacity=4, name="units"))
    ctx = pipeline.make_context(addr=0x4000)  # address known early
    executor.start(ctx, pipeline.graph.runnable_with(ctx.available_inputs))
    sim.run()
    print(f"address-only pre-execution completed: "
          f"{sorted(ctx.completed)}")
    assert "S1" in ctx.completed
    assert "scrambled_slot" in ctx.values

    # When the write arrives, only the data-dependent work remains.
    ctx.data = bytes(64)
    remaining = [name for name in pipeline.all_subops
                 if name not in ctx.completed]
    print(f"remaining at write time: {remaining}")


if __name__ == "__main__":
    main()
