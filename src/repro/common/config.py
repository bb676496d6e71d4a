"""System configuration mirroring Table 3 of the paper.

The configuration is a tree of frozen-ish dataclasses.  ``SystemConfig``
is the root object handed to :class:`repro.core.machine.NvmSystem`; the
sub-configs are consumed by the corresponding subsystems.  All latency
fields are nanoseconds.

Paper defaults (Table 3):

* out-of-order core at 4 GHz; L1 64 KB, L2 2 MB
* counter cache 512 KB, Merkle-tree cache 512 KB
* pre-execution request queue 16 entries/core
* pre-execution operation queue 64 entries/core
* 4 BMO units per core, cache-line granularity
* intermediate result buffer 64 entries/core
* 4 GB PCM at 533 MHz
* BMO latencies: AES-128 40 ns, SHA-1 40 ns, MD5 321 ns
"""

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List

from repro.common.errors import ConfigError
from repro.common.units import CACHE_LINE_BYTES, KIB, MIB


class ShardingError(ConfigError):
    """Sharding parameters failed construction-time validation.

    Mirrors :class:`repro.faults.plan.FaultPlanError`: ``problems``
    holds one dict per defect (``{"field": name, "detail": message}``)
    and the aggregated message lists every problem, so a caller that
    got three knobs wrong learns all three at once instead of playing
    whack-a-mole.
    """

    def __init__(self, problems: List[Dict]):
        self.problems = list(problems)
        detail = "; ".join(f"{p['field']}: {p['detail']}"
                           for p in self.problems)
        super().__init__(
            f"invalid sharding config ({len(self.problems)} problem"
            f"{'s' if len(self.problems) != 1 else ''}): {detail}")


def _is_power_of_two(value: int) -> bool:
    return isinstance(value, int) and value > 0 \
        and value & (value - 1) == 0


def _quantize_ns_fields(cfg) -> None:
    """Snap integral ``*_ns`` latency fields to int at load time.

    The simulator clock is integer-nanosecond; latencies that are
    whole numbers of ns become ints here so scheduling never touches
    float arithmetic for them.  Sub-ns *rates* (``instruction_ns =
    0.25``) stay float — their products are quantized once per
    scheduled delay by the simulator.
    """
    for f in dataclasses.fields(cfg):
        if not f.name.endswith("_ns"):
            continue
        value = getattr(cfg, f.name)
        if type(value) is float and value.is_integer():
            setattr(cfg, f.name, int(value))


@dataclass
class CacheConfig:
    """On-chip cache hierarchy parameters (latency model, not tags)."""

    l1_size_bytes: int = 64 * KIB
    l1_hit_ns: float = 1.0
    l2_size_bytes: int = 2 * MIB
    l2_hit_ns: float = 5.0
    #: Latency for a dirty line to travel from the cache hierarchy to
    #: the memory controller on a ``clwb`` (paper §2.3: ~15 ns).
    writeback_ns: float = 15.0
    #: Counter cache (for counter-mode encryption reads).
    counter_cache_bytes: int = 512 * KIB

    def validate(self) -> None:
        if self.l1_size_bytes <= 0 or self.l2_size_bytes <= 0:
            raise ConfigError("cache sizes must be positive")
        if self.writeback_ns < 0:
            raise ConfigError("writeback latency cannot be negative")


@dataclass
class MemoryConfig:
    """NVM device timing (4 GB PCM @533 MHz in the paper)."""

    capacity_bytes: int = 4 * 1024 * MIB
    #: Latency of one 64 B line read from NVM, charged on a cache
    #: miss (reads do not occupy a channel).
    read_service_ns: float = 60.0
    #: Service time the channel is busy for one 64 B write (tWR-dominated).
    write_service_ns: float = 150.0
    #: Number of independent bank groups serving accesses in parallel
    #: (PCM devices hide their long tWR behind bank-level parallelism;
    #: 16 concurrently-writable banks keeps even 8 KB transactions
    #: BMO-bound rather than device-bound, as in the paper's device).
    channels: int = 16
    #: Write-queue entries (the persist domain under ADR).
    write_queue_entries: int = 128

    def validate(self) -> None:
        if self.capacity_bytes % CACHE_LINE_BYTES:
            raise ConfigError("capacity must be a multiple of the line size")
        if self.channels <= 0 or self.write_queue_entries <= 0:
            raise ConfigError("channels and write queue must be positive")


@dataclass
class BmoLatencies:
    """Per-sub-operation hardware latencies (paper Tables 1 and 3)."""

    #: AES-128 OTP generation (encryption sub-op E2).
    aes_ns: float = 40.0
    #: SHA-1 hash for one Merkle-tree node / MAC (integrity I1–I3, E4).
    sha1_ns: float = 40.0
    #: MD5 fingerprint of a 64 B line (dedup D1).
    md5_ns: float = 321.0
    #: CRC-32 fingerprint (lightweight dedup alternative, Fig. 12).
    crc32_ns: float = 80.0
    #: Dedup-table lookup (D2).
    dedup_lookup_ns: float = 10.0
    #: Address-mapping-table update (D3).
    remap_update_ns: float = 10.0
    #: Counter generation/increment (E1).
    counter_gen_ns: float = 2.0
    #: XOR of OTP with data (E3).
    xor_ns: float = 1.0
    #: Compression of one line (FPC/BDI class, Table 1: 5–30 ns).
    compression_ns: float = 20.0
    #: Wear-leveling remap (Start-Gap, Table 1: ~1 ns).
    wear_leveling_ns: float = 1.0
    #: Error-correction encode (ECP, Table 1: 0.4–3 ns).
    ecc_ns: float = 2.0

    def validate(self) -> None:
        for f in dataclasses.fields(self):
            if getattr(self, f.name) < 0:
                raise ConfigError(f"latency {f.name} cannot be negative")


@dataclass
class DedupConfig:
    """Deduplication mechanism parameters."""

    #: Fraction of writes carrying a value that already exists in
    #: memory.  The workload generators inject duplicates at this rate
    #: (paper uses 0.5 as the main ratio, following NV-Dedup/DeWrite).
    target_ratio: float = 0.5
    #: Fingerprint algorithm: ``"md5"`` or ``"crc32"``.
    algorithm: str = "md5"

    def validate(self) -> None:
        if not 0.0 <= self.target_ratio <= 1.0:
            raise ConfigError("dedup ratio must be in [0, 1]")
        if self.algorithm not in ("md5", "crc32"):
            raise ConfigError(f"unknown dedup algorithm {self.algorithm!r}")


@dataclass
class IntegrityConfig:
    """Bonsai-Merkle-tree integrity verification parameters."""

    #: Fan-out of the hash tree (8 in the paper's example).
    arity: int = 8
    #: Tree height (levels of hashing above the leaves).  9 levels for
    #: a 4 GB NVM with arity 8 — 9 x 40 ns = 360 ns per write.
    height: int = 9
    #: Fraction of upper-level updates absorbed by the Merkle cache.
    #: 0.0 means every level is recomputed on every write (paper
    #: default for writes: the full 360 ns is charged).
    cached_levels: int = 0
    #: Ablation knob: when True, a pre-executed Merkle path is
    #: invalidated (and the stale levels re-hashed on the critical
    #: path) whenever ANY concurrent write disturbed a sibling node.
    #: The paper's model — like real BMT engines, whose update queue
    #: and Merkle cache absorb upper-level churn off the critical
    #: path — does not charge this, so the default is False.  The
    #: committed tree is recomputed functionally either way; this
    #: flag changes only the charged latency.
    strict_sibling_invalidation: bool = False

    def validate(self) -> None:
        if self.arity < 2:
            raise ConfigError("merkle arity must be >= 2")
        if self.height < 1:
            raise ConfigError("merkle height must be >= 1")
        if not 0 <= self.cached_levels < self.height:
            raise ConfigError("cached_levels must be in [0, height)")


@dataclass
class JanusConfig:
    """Janus pre-execution hardware resources (Table 3)."""

    request_queue_entries: int = 16
    operation_queue_entries: int = 64
    irb_entries: int = 64
    bmo_units: int = 4
    #: Resource multiplier for the Fig. 14 sweep (1x, 2x, 4x).
    resource_scale: float = 1.0
    #: ``True`` removes all resource limits (Fig. 14 "Unlimited").
    unlimited_resources: bool = False
    #: Maximum lifetime of an IRB entry before the age register
    #: discards it (paper §4.6, "unused pre-execution result").
    irb_max_age_ns: float = 1_000_000.0

    def scaled(self, name: str) -> int:
        """Entry count for resource ``name`` after scaling."""
        base = getattr(self, name)
        if self.unlimited_resources:
            return 1 << 30
        return max(1, int(base * self.resource_scale))

    def validate(self) -> None:
        for name in ("request_queue_entries", "operation_queue_entries",
                     "irb_entries", "bmo_units"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.resource_scale <= 0:
            raise ConfigError("resource_scale must be positive")


@dataclass
class SchedulingConfig:
    """Relaxed write-path scheduling parameters.

    Consumed by the ``coalesced`` and ``async-epoch`` modes (see
    ``docs/scheduling-modes.md``); ignored by the strict modes.
    """

    #: ``async-epoch``: writebacks buffered before the epoch closes
    #: and its BMO/persist work is scheduled as one batch.
    epoch_writes: int = 32
    #: ``async-epoch``: how many closed-but-unflushed epochs may be
    #: outstanding before new writebacks stall (the staleness dial —
    #: bounds post-crash data loss to ``staleness_epochs + 1`` open/
    #: in-flight epochs of writes).
    staleness_epochs: int = 2
    #: ``async-epoch``: cost charged to the critical path for parking
    #: one writeback in the volatile epoch buffer.
    buffer_ns: float = 2.0

    def validate(self) -> None:
        if self.epoch_writes <= 0:
            raise ConfigError("epoch_writes must be positive")
        if self.staleness_epochs < 1:
            raise ConfigError("staleness_epochs must be >= 1")
        if self.buffer_ns < 0:
            raise ConfigError("buffer_ns cannot be negative")


@dataclass
class CoreConfig:
    """Simulated core parameters."""

    #: Fixed per-instruction cost charged for bookkeeping compute
    #: between memory operations (one cycle of the 4 GHz core).
    instruction_ns: float = 0.25
    #: Per-line cost for the tail of a multi-line sequential access:
    #: hardware prefetching and memory-level parallelism overlap the
    #: misses of a streaming access, so only the first line pays the
    #: full hierarchy latency.
    stream_line_ns: float = 2.0


@dataclass
class SystemConfig:
    """Root configuration for one simulated NVM system."""

    cores: int = 1
    #: Write-path scheduling mode: serialized | parallel | janus |
    #: ideal | coalesced | async-epoch (docs/scheduling-modes.md).
    mode: str = "janus"
    #: Memory-controller shards (power of two).  1 keeps the classic
    #: single-controller machine, bit-identical to the pre-sharding
    #: system; N > 1 interleaves line addresses across N controllers,
    #: each with its own write queue, NVM channel group, scheduling
    #: policy, and (in janus mode) IRB — see ``docs/sharding.md``.
    shards: int = 1
    #: Interleave granularity of the shard address map, in bytes
    #: (power of two, >= the cache-line size).  Consecutive
    #: ``shard_interleave_bytes`` stripes rotate across shards.
    shard_interleave_bytes: int = CACHE_LINE_BYTES
    core: CoreConfig = field(default_factory=CoreConfig)
    cache: CacheConfig = field(default_factory=CacheConfig)
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    bmo_latencies: BmoLatencies = field(default_factory=BmoLatencies)
    dedup: DedupConfig = field(default_factory=DedupConfig)
    integrity: IntegrityConfig = field(default_factory=IntegrityConfig)
    janus: JanusConfig = field(default_factory=JanusConfig)
    scheduling: SchedulingConfig = field(
        default_factory=SchedulingConfig)
    #: Which BMOs are active, in pipeline order.
    bmos: tuple = ("dedup", "encryption", "integrity")
    #: Apply metadata atomicity only to consistency-critical writes
    #: (paper §4.3, selective counter-atomicity) vs. every write.
    selective_metadata_atomicity: bool = True
    #: BMO units are pipelined: a sub-operation *occupies* its unit
    #: for this fraction of its latency (initiation interval), while
    #: the full latency is still charged to the dependent chain.
    #: 1.0 degenerates to fully-occupying units (an ablation).
    bmo_unit_pipeline_fraction: float = 0.05
    #: Attach :class:`repro.validate.InvariantChecker` and run the
    #: cross-layer invariant suite after every BMO-pipeline commit
    #: (CLI ``repro run --check``).  Functional-only: violations raise
    #: ``InvariantViolation``, timing is unaffected.
    check_invariants: bool = False
    seed: int = 42

    MODES = ("serialized", "parallel", "janus", "ideal",
             "coalesced", "async-epoch")
    #: Modes whose sfence completion does not imply durability (the
    #: write may still sit in a volatile epoch buffer).
    RELAXED_MODES = ("async-epoch",)

    def validate(self) -> "SystemConfig":
        """Check the whole tree; returns self for chaining."""
        if self.cores <= 0:
            raise ConfigError("need at least one core")
        if self.mode not in self.MODES:
            raise ConfigError(
                f"mode must be one of {self.MODES}, got {self.mode!r}")
        self._validate_sharding()
        _quantize_ns_fields(self.core)
        _quantize_ns_fields(self.cache)
        _quantize_ns_fields(self.memory)
        _quantize_ns_fields(self.bmo_latencies)
        _quantize_ns_fields(self.janus)
        _quantize_ns_fields(self.scheduling)
        known_bmos = {"dedup", "encryption", "integrity", "compression",
                      "wear_leveling", "ecc", "oram"}
        for name in self.bmos:
            if name not in known_bmos:
                raise ConfigError(f"unknown BMO {name!r}")
        if len(set(self.bmos)) != len(self.bmos):
            raise ConfigError("duplicate BMO in pipeline")
        if not 0.0 < self.bmo_unit_pipeline_fraction <= 1.0:
            raise ConfigError(
                "bmo_unit_pipeline_fraction must be in (0, 1]")
        self.cache.validate()
        self.memory.validate()
        self.bmo_latencies.validate()
        self.dedup.validate()
        self.integrity.validate()
        self.janus.validate()
        self.scheduling.validate()
        return self

    def _validate_sharding(self) -> None:
        """Collect *every* sharding defect into one ShardingError."""
        problems: List[Dict] = []
        if not _is_power_of_two(self.shards):
            problems.append({
                "field": "shards",
                "detail": f"must be a power of two >= 1, "
                          f"got {self.shards!r}"})
        if not _is_power_of_two(self.shard_interleave_bytes):
            problems.append({
                "field": "shard_interleave_bytes",
                "detail": f"must be a power of two, "
                          f"got {self.shard_interleave_bytes!r}"})
        elif self.shard_interleave_bytes < CACHE_LINE_BYTES:
            problems.append({
                "field": "shard_interleave_bytes",
                "detail": f"must be >= the cache line "
                          f"({CACHE_LINE_BYTES} B), "
                          f"got {self.shard_interleave_bytes}"})
        if not problems and isinstance(self.shards, int) \
                and self.shards > 0:
            stripe = self.shard_interleave_bytes * self.shards
            if self.memory.capacity_bytes % stripe:
                problems.append({
                    "field": "shards",
                    "detail": f"capacity {self.memory.capacity_bytes} "
                              f"is not a multiple of the full stripe "
                              f"({stripe} B = interleave x shards), so "
                              f"coverage cannot balance"})
        if problems:
            raise ShardingError(problems)

    def replace(self, **kwargs) -> "SystemConfig":
        """Return a deep-ish copy with top-level fields replaced."""
        return dataclasses.replace(self, **kwargs)


def default_config(**overrides) -> SystemConfig:
    """A validated paper-default configuration with overrides applied."""
    cfg = SystemConfig(**overrides)
    return cfg.validate()
