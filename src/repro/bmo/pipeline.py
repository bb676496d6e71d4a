"""Composition of BMOs into one write-path pipeline.

``BmoPipeline`` concatenates the sub-operations of the enabled BMOs,
wires the inter-operation dependency edges that their integration
creates (paper Fig. 6), and owns the *commit* step — the single place
where shared mechanism state (counters, dedup tables, Merkle tree)
mutates, invoked by the memory controller when a write actually lands.

``build_pipeline`` constructs the paper's evaluated configuration
(dedup + encryption + integrity) or any subset/superset, from a
:class:`repro.common.config.SystemConfig`.

*When* the pipeline runs relative to a writeback is decided one layer
up, by the scheduling policy (:mod:`repro.bmo.policy`): serialized and
parallel run it inline, janus pre-executes pieces of it, coalesced
discounts shared integrity-node charges across a write batch, and
async-epoch replays buffered writes through it at epoch close.  Every
mode funnels through the same :meth:`BmoPipeline.commit`, so mechanism
state mutates identically regardless of scheduling — the basis of the
final-image equivalence oracle (``docs/scheduling-modes.md``).
"""

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set

from repro.bmo.base import BackendOperation, BmoContext
from repro.bmo.compression import CompressionBmo
from repro.bmo.dedup import DedupBmo, DedupTable
from repro.bmo.ecc import EccBmo
from repro.bmo.encryption import EncryptionBmo
from repro.bmo.graph import DependencyGraph
from repro.bmo.integrity import IntegrityBmo
from repro.bmo.wear_leveling import WearLevelingBmo
from repro.common.config import SystemConfig
from repro.common.errors import SimulationError
from repro.crypto.counter_mode import CounterModeEngine


@dataclass
class WriteAction:
    """What the memory controller must do after the BMOs commit."""

    #: False when deduplication cancelled the data write.
    write_data: bool
    #: Device line address for the payload (wear-leveling may remap).
    device_addr: int
    #: Bytes to store (ciphertext when encryption is on).
    payload: Optional[bytes]
    #: Number of metadata lines (counter/remap entry) to persist.
    metadata_lines: int


class BmoPipeline:
    """An ordered set of BMOs sharing one dependency graph."""

    def __init__(self, bmos: Sequence[BackendOperation]):
        self.bmos: List[BackendOperation] = list(bmos)
        self.by_name: Dict[str, BackendOperation] = {
            bmo.name: bmo for bmo in self.bmos}
        if len(self.by_name) != len(self.bmos):
            raise SimulationError("duplicate BMO in pipeline")
        subops = []
        for bmo in self.bmos:
            subops.extend(bmo.subops())
        self.graph = DependencyGraph(subops)
        self._order = tuple(self.graph.topological_order)
        self._serial_latency = sum(
            op.latency_ns for op in self.graph.subops.values())
        # Static name set, used by the per-commit completeness check.
        self._subop_names = frozenset(self.graph.subops)

    # -- context lifecycle ---------------------------------------------
    def make_context(self, addr: Optional[int] = None,
                     data: Optional[bytes] = None) -> BmoContext:
        return BmoContext(addr=addr, data=data)

    @property
    def bmo_order(self) -> List[str]:
        return [bmo.name for bmo in self.bmos]

    @property
    def all_subops(self) -> List[str]:
        return self.graph.topological_order

    def serial_latency(self) -> float:
        """Total latency when the BMOs execute as monolithic units."""
        return self._serial_latency

    def execute_all(self, ctx: BmoContext) -> BmoContext:
        """Run every sub-op not yet completed functionally, in
        topological order, with no timing.

        Its callers run a fresh context through it: the serialized
        block's end (``BmoExecutor._serial_end``, after one unit grant
        charged the serial latency), every seeded line
        (``TransactionalWorkload.seed``) and shadow paging's set-up
        (``ShadowObject._seed``).  The actions run in one loop, with
        no :meth:`SubOp.execute` frame per sub-op.  Each is read from
        ``graph.subops`` when it runs, so an entry replaced after the
        pipeline was built (after seeding, say) is honoured; an action
        that raises leaves the sub-ops before it marked completed, as
        :meth:`SubOp.execute` does.
        """
        subops = self.graph.subops
        completed = ctx.completed
        for name in self._order:
            if name in completed:
                continue
            run = subops[name].run
            if run is not None:
                run(ctx)
            completed.add(name)
        return ctx

    # -- staleness ---------------------------------------------------------
    def stale_subops(self, ctx: BmoContext) -> Set[str]:
        """Completed sub-ops whose inputs changed since they ran, plus
        everything downstream of them (which consumed stale values)."""
        stale: Set[str] = set()
        for bmo in self.bmos:
            stale |= bmo.stale_subops(ctx)
        stale &= ctx.completed
        if not stale:
            return set()
        downstream = self.graph.reachable_from(stale)
        return (stale | downstream) & ctx.completed

    def invalidate(self, ctx: BmoContext, names: Set[str]) -> None:
        """Forget the results of ``names`` so they re-execute."""
        ctx.completed -= names

    # -- commit ------------------------------------------------------------
    def commit(self, ctx: BmoContext) -> WriteAction:
        """Apply all results to shared state; returns the write action.

        Must be called with a fully-executed, non-stale context; the
        executor guarantees this by looping on :meth:`stale_subops`.
        """
        if not self._subop_names.issubset(ctx.completed):
            missing = self._subop_names - ctx.completed
            raise SimulationError(
                f"commit with incomplete sub-ops: {sorted(missing)}")
        dedup = self.by_name.get("dedup")
        if dedup is not None:
            # One lookup for the check and for the dedup commit.
            live = dedup.table.lookup(ctx.require("fingerprint"), ctx.data)
            if (live is not None) != bool(ctx.values.get("is_dup")):
                raise SimulationError(
                    "stale duplicate verdict reached commit; the "
                    "executor must refresh stale sub-ops first")
        for bmo in self.bmos:
            if bmo is dedup:
                dedup.commit(ctx, live)
            else:
                bmo.commit(ctx)

        is_dup = bool(ctx.values.get("is_dup"))
        if "encryption" in self.by_name:
            payload = ctx.values.get("ciphertext")
        else:
            payload = ctx.data
        device_addr = ctx.values.get("wl_addr", ctx.addr)
        metadata_lines = 1 if (
            "encryption" in self.by_name or dedup is not None) else 0
        return WriteAction(
            write_data=not is_dup,
            device_addr=device_addr,
            payload=None if is_dup else payload,
            metadata_lines=metadata_lines,
        )

    # -- persistence --------------------------------------------------------
    def unreconstructable_metadata(self) -> dict:
        snapshot = {}
        for bmo in self.bmos:
            snapshot[bmo.name] = bmo.unreconstructable_metadata()
        return snapshot

    def restore_metadata(self, snapshot: dict) -> None:
        for bmo in self.bmos:
            if bmo.name in snapshot:
                bmo.restore_metadata(snapshot[bmo.name])

    # -- introspection -------------------------------------------------------
    def classification(self) -> Dict[str, str]:
        return self.graph.classification()

    def describe(self) -> str:
        lines = [f"pipeline: {' -> '.join(self.bmo_order)}"]
        labels = self.classification()
        for name in self.graph.topological_order:
            op = self.graph.subops[name]
            deps = ",".join(op.deps) or "-"
            lines.append(
                f"  {name:>4} [{op.bmo:>12}] {op.latency_ns:7.1f} ns  "
                f"deps={deps:<12} external={labels[name]}")
        lines.append(f"  serial latency: {self.serial_latency():.1f} ns")
        return "\n".join(lines)


def build_pipeline(config: SystemConfig,
                   dedup_table: DedupTable = None,
                   nvm_copy_line=None) -> BmoPipeline:
    """Construct the pipeline described by ``config.bmos``.

    The returned pipeline shares one encryption engine across BMOs
    and wires the integration edges of paper Fig. 6.
    """
    enabled = set(config.bmos)
    engine = CounterModeEngine()
    bmos: List[BackendOperation] = []
    # Pipeline order mirrors the paper: dedup decides first, then
    # encryption, then integrity protects the metadata.  Compression /
    # wear-leveling / ECC slot around them when enabled.
    if "compression" in enabled:
        bmos.append(CompressionBmo(config.bmo_latencies))
    if "wear_leveling" in enabled:
        bmos.append(WearLevelingBmo(
            config.bmo_latencies,
            region_lines=min(1 << 16,
                             config.memory.capacity_bytes // 64)))
    if "dedup" in enabled:
        table = dedup_table if dedup_table is not None else DedupTable(
            shadow_base=config.memory.capacity_bytes // 2)
        bmos.append(DedupBmo(config.bmo_latencies, config.dedup,
                             table=table, nvm_copy_line=nvm_copy_line,
                             with_encryption="encryption" in enabled))
    if "encryption" in enabled:
        bmos.append(EncryptionBmo(config.bmo_latencies, engine=engine,
                                  with_dedup="dedup" in enabled))
    if "integrity" in enabled:
        bmos.append(IntegrityBmo(
            config.bmo_latencies, config.integrity,
            with_encryption="encryption" in enabled,
            with_dedup="dedup" in enabled))
    if "ecc" in enabled:
        bmos.append(EccBmo(config.bmo_latencies,
                           with_encryption="encryption" in enabled))
    if "oram" in enabled:
        from repro.bmo.oram import OramBmo
        bmos.append(OramBmo(config.bmo_latencies))
    if not bmos:
        raise SimulationError("pipeline needs at least one BMO")
    return BmoPipeline(bmos)
