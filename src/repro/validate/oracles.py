"""Reusable differential oracles.

Two lockstep comparisons back the repo's equivalence arguments:

* **Mode oracle** — run one op sequence under serialized (the
  reference), janus, and any other design point; crash, recover
  through ciphertext + metadata, and diff the final NVM images.  The
  paper's requirement 1 (§3.2) in its strongest form: pre-execution
  and DAG parallelization are *latency* optimizations, so recovered
  contents must be byte-identical to the serialized baseline for
  arbitrary programs.  Promoted from ``tests/test_mode_equivalence``.

* **IRB lockstep** — drive the indexed
  :class:`~repro.janus.irb.IntermediateResultBuffer` and the
  :class:`~repro.janus.irb_linear.LinearScanIrb` reference with the
  same operation stream and compare observable state after every
  step.  Promoted from ``tests/test_irb_equivalence``.

Both raise :class:`OracleMismatch` (never a bare ``AssertionError``)
so the fuzz harness can classify divergences as structured failures.

Op vocabulary (shared with :mod:`repro.validate.fuzz`) — each op is a
tuple; ``slot`` indexes a small line arena, ``v`` indexes
:data:`PALETTE`:

==========================  =========================================
``("store", slot, v)``      plain store + persist (no hint)
``("hinted", slot, v)``     correct PRE_BOTH hint, window, store
``("stale", slot, hv, v)``  PRE_BOTH hints value ``hv``, program
                            stores ``v`` — the §4.3.1 stale-data path
``("addr", slot, v)``       PRE_ADDR hint, then store
``("data", slot, v)``       PRE_DATA hint (address-less), then store
``("split", slot, v)``      PRE_ADDR + PRE_DATA on one pre_obj — the
                            two requests merge in the IRB
``("clear",)``              thread_exit: clear the thread's entries
``("swap", lo, hi)``        OS memory swap over arena slots [lo, hi)
``("compute", n)``          n instructions of core-local work
==========================  =========================================

Hint ops are free no-ops outside janus mode, so one sequence drives
every design point.
"""

import hashlib
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.common.config import SchedulingConfig, default_config
from repro.common.errors import RecoveryCrash, ReproError
from repro.consistency import recover
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.core import NvmSystem
from repro.harness.crash_campaign import build, recover_image, \
    reference_trajectory
from repro.janus.irb import IntermediateResultBuffer, IrbEntry
from repro.janus.irb_linear import LinearScanIrb
from repro.sim import Simulator
from repro.workloads import WorkloadParams

LINE = 64
#: Data values the op vocabulary indexes into — small on purpose, so
#: duplicate writes (the dedup-relevant case) occur constantly.
PALETTE = [bytes([v]) * LINE for v in range(1, 7)]


class OracleMismatch(ReproError):
    """Two lockstep executions diverged."""

    def __init__(self, detail: str, diff=None):
        super().__init__(detail)
        self.detail = detail
        self.diff = diff if diff is not None else []


# ---------------------------------------------------------------------------
# Mode oracle: serialized vs janus (vs any mode) final-image diff
# ---------------------------------------------------------------------------
def apply_ops(core, base: int, ops: Sequence[tuple]):
    """Generator: interpret one op sequence on ``core`` against the
    arena at ``base``.  See the module docstring for the vocabulary."""
    api = core.api
    for op in ops:
        kind = op[0]
        if kind == "store":
            _, slot, v = op
            addr, value = base + slot * LINE, PALETTE[v]
            yield from core.store(addr, value)
            yield from core.persist(addr, LINE)
        elif kind == "hinted":
            _, slot, v = op
            addr, value = base + slot * LINE, PALETTE[v]
            obj = api.pre_init()
            yield from api.pre_both(obj, addr, value)
            yield from core.compute(800)
            yield from core.store(addr, value)
            yield from core.persist(addr, LINE)
        elif kind == "stale":
            _, slot, hv, v = op
            addr = base + slot * LINE
            obj = api.pre_init()
            yield from api.pre_both(obj, addr, PALETTE[hv])
            yield from core.compute(800)
            yield from core.store(addr, PALETTE[v])
            yield from core.persist(addr, LINE)
        elif kind == "addr":
            _, slot, v = op
            addr = base + slot * LINE
            obj = api.pre_init()
            yield from api.pre_addr(obj, addr, LINE)
            yield from core.compute(400)
            yield from core.store(addr, PALETTE[v])
            yield from core.persist(addr, LINE)
        elif kind == "data":
            _, slot, v = op
            addr = base + slot * LINE
            obj = api.pre_init()
            yield from api.pre_data(obj, PALETTE[v])
            yield from core.compute(400)
            yield from core.store(addr, PALETTE[v])
            yield from core.persist(addr, LINE)
        elif kind == "split":
            # Data-only then address-only requests on one pre_obj: the
            # decoder emits two operations that merge inside the IRB.
            # Data first, so the merged-into entry starts address-less
            # and must be *re-filed* into the address indexes when the
            # PRE_ADDR arrives — the trickiest merge direction.
            _, slot, v = op
            addr = base + slot * LINE
            obj = api.pre_init()
            yield from api.pre_data(obj, PALETTE[v])
            yield from api.pre_addr(obj, addr, LINE)
            yield from core.compute(800)
            yield from core.store(addr, PALETTE[v])
            yield from core.persist(addr, LINE)
        elif kind == "clear":
            api.thread_exit()
        elif kind == "swap":
            _, lo, hi = op
            if core.system.janus_frontend is not None:
                # The frontend broadcasts to every shard's engine (it
                # IS the engine at shards=1).
                core.system.janus_frontend.on_memory_swap(
                    base + lo * LINE, base + hi * LINE)
        elif kind == "compute":
            yield from core.compute(op[1])
        else:
            raise ValueError(f"unknown oracle op {op!r}")


def partition_ops(ops: Sequence[tuple],
                  threads: int) -> List[List[tuple]]:
    """Split one op list into per-thread streams, deterministically.

    Slotted ops go to thread ``slot % threads`` — each arena line is
    owned by exactly one thread, so the final image is
    interleaving-independent and mode equivalence still holds — while
    ``swap`` (a global IRB notification) pins to thread 0 and
    ``clear``/``compute`` round-robin by position.  Running streams
    concurrently is what lets one thread's pipeline commits land
    inside another thread's pre-execution window, which is where
    cross-layer invariant bugs hide.
    """
    if threads <= 1:
        return [list(ops)]
    streams: List[List[tuple]] = [[] for _ in range(threads)]
    for index, op in enumerate(ops):
        if op[0] in ("store", "hinted", "stale", "addr", "data",
                     "split"):
            streams[op[1] % threads].append(op)
        elif op[0] == "swap":
            streams[0].append(op)
        else:
            streams[index % threads].append(op)
    return streams


def run_write_program(mode: str, ops: Sequence[tuple],
                      n_lines: int = 12, seed: int = 11,
                      check: bool = False,
                      threads: int = 1,
                      shards: int = 1) -> List[bytes]:
    """Run ``ops`` under ``mode``; return the recovered arena image.

    The system is crashed at the end and recovered through ciphertext
    and metadata with MAC verification — the image is what a user
    would actually read back, not the volatile view.  ``check=True``
    additionally runs the :class:`InvariantChecker` on every commit.
    ``threads`` > 1 partitions the ops (see :func:`partition_ops`)
    over that many concurrent cores; ``shards`` > 1 runs the sharded
    machine (the arena interleaves across controllers).
    """
    system = NvmSystem(default_config(mode=mode, seed=seed,
                                      cores=max(1, threads),
                                      check_invariants=check,
                                      shards=shards))
    base = system.heap.alloc_line(n_lines * LINE, label="arena")
    system.run_programs(
        [apply_ops(system.cores[tid], base, stream)
         for tid, stream in enumerate(partition_ops(ops, threads))])
    if system.checker is not None:
        system.checker.check_all(full=True)
    snapshot = system.crash()
    state = recover(snapshot, verify_macs=True)
    return [state.read(base + slot * LINE, LINE)
            for slot in range(n_lines)]


def diff_images(reference: List[bytes],
                candidate: List[bytes]) -> List[Tuple[int, str, str]]:
    """Slots where two arena images disagree, as (slot, ref, got)."""
    out = []
    for slot, (ref, got) in enumerate(zip(reference, candidate)):
        if ref != got:
            out.append((slot, ref.hex(), got.hex()))
    if len(reference) != len(candidate):
        out.append((-1, f"len={len(reference)}",
                    f"len={len(candidate)}"))
    return out


def check_mode_equivalence(ops: Sequence[tuple],
                           modes: Iterable[str] = ("janus",),
                           n_lines: int = 12, seed: int = 11,
                           check: bool = True,
                           threads: int = 1,
                           shards: Iterable[int] = (1,)) -> None:
    """Raise :class:`OracleMismatch` unless every mode's recovered
    image matches the serialized reference for ``ops``.

    This is the *final-image* contract: it holds unconditionally for
    ``parallel``/``janus``/``ideal``/``coalesced`` (their relaxations
    are timing-only) and for ``async-epoch`` on **completed** runs —
    ``run_programs`` quiesces the policy, so every epoch has flushed
    by the time the crash snapshot is taken.  Mid-run crashes of
    ``async-epoch`` are covered by the *bounded-staleness* contract
    instead (:func:`check_bounded_staleness`).

    The reference is always the unsharded serialized machine; every
    candidate mode runs at every shard count in ``shards``, so the
    sharded topology must be functionally invisible too.
    """
    reference = run_write_program("serialized", ops, n_lines=n_lines,
                                  seed=seed, check=check,
                                  threads=threads)
    for n_shards in shards:
        for mode in modes:
            if mode == "serialized" and n_shards == 1:
                continue  # that is the reference itself
            image = run_write_program(mode, ops, n_lines=n_lines,
                                      seed=seed, check=check,
                                      threads=threads,
                                      shards=n_shards)
            diff = diff_images(reference, image)
            if diff:
                raise OracleMismatch(
                    f"{mode} (shards={n_shards}) image diverges from "
                    f"serialized on {len(diff)} slot(s)", diff=diff)


def run_workload_digest(mode: str, workload: str, seed: int = 7,
                        txns: int = 8, items: int = 16,
                        check: bool = True, shards: int = 1) -> str:
    """Run a workload kernel to completion, crash, recover, and return
    the logical digest of the recovered structure."""
    system, [instance] = build(
        workload, mode, WorkloadParams(n_items=items, n_transactions=txns),
        seed, check_invariants=check, shards=shards)
    system.run_programs([instance.run()])
    if system.checker is not None:
        system.checker.check_all(full=True)
    state = recover_image(system.crash(), [instance])
    return instance.logical_digest(state.read)


def check_workload_equivalence(workload: str, seed: int = 7,
                               txns: int = 8, items: int = 16,
                               check: bool = True,
                               modes: Iterable[str] = ("janus",),
                               shards: Iterable[int] = (1,)
                               ) -> None:
    """Raise :class:`OracleMismatch` unless every candidate mode's run
    of a workload kernel recovers to the serialized run's digest.

    The reference is always the unsharded (``shards=1``) serialized
    run; candidates sweep ``modes`` x ``shards``, so a sharded
    topology of any width must recover to the identical logical
    structure."""
    reference = run_workload_digest("serialized", workload, seed=seed,
                                    txns=txns, items=items, check=check)
    for n_shards in shards:
        for mode in modes:
            if mode == "serialized" and n_shards == 1:
                continue  # that is the reference itself
            candidate = run_workload_digest(mode, workload, seed=seed,
                                            txns=txns, items=items,
                                            check=check,
                                            shards=n_shards)
            if reference != candidate:
                raise OracleMismatch(
                    f"{workload}: {mode} (shards={n_shards}) digest "
                    f"{candidate[:12]} != serialized "
                    f"{reference[:12]}",
                    diff=[("digest", reference, candidate)])


# ---------------------------------------------------------------------------
# Bounded staleness: async-epoch crashes land on epoch boundaries
# ---------------------------------------------------------------------------
def run_staleness_crash(workload: str, seed: int = 7, txns: int = 12,
                        items: int = 8, crash_fraction: float = 0.5,
                        staleness_epochs: int = 2,
                        epoch_writes: int = 32,
                        check: bool = False,
                        shards: int = 1) -> dict:
    """Crash one ``async-epoch`` run mid-stream and recover it.

    Runs the serialized reference trajectory first (per-commit
    digests are mode-independent), then a fresh ``async-epoch``
    system crashed at ``crash_fraction`` of the reference horizon.
    Returns the evidence record the bounded-staleness oracle judges:
    recovered commit ids, demoted ids, the recovered digest vs. the
    reference digest at that commit count, and the policy watermark
    from the crash snapshot.
    """
    params = WorkloadParams(n_items=items, n_transactions=txns)
    digests, horizon = reference_trajectory(workload, "serialized",
                                            params, seed)
    system, [instance] = build(
        workload, "async-epoch", params, seed, check_invariants=check,
        shards=shards,
        scheduling=SchedulingConfig(staleness_epochs=staleness_epochs,
                                    epoch_writes=epoch_writes))
    system.sim.process(instance.run(), name="stream")
    system.sim.run(until=horizon * crash_fraction)
    if system.checker is not None:
        system.checker.check_all(full=True)
    snapshot = system.crash()
    scheduling = snapshot["metadata"].get("scheduling", {})
    state = recover_image(snapshot, [instance])
    k = len(state.committed_txns)
    return {
        "workload": workload,
        "crash_fraction": crash_fraction,
        "committed": list(state.committed_txns),
        "demoted": list(state.demoted_txns),
        "rolled_back": list(state.rolled_back),
        "digest": instance.logical_digest(state.read),
        "reference_digest": digests.get(k),
        "scheduling": scheduling,
    }


def check_bounded_staleness(workload: str, seed: int = 7,
                            txns: int = 12, items: int = 8,
                            crash_fractions: Sequence[float] =
                            (0.35, 0.6, 0.85),
                            staleness_epochs: int = 2,
                            epoch_writes: int = 32,
                            check: bool = False,
                            shards: int = 1) -> int:
    """The ``async-epoch`` consistency contract, as an oracle.

    For each crash point: (1) the recovered commit set must be the
    prefix ``1..k`` — recovery lands exactly on a closed-epoch
    boundary (on the sharded machine, the cross-shard consistent
    cut), never mid-epoch; (2) every surviving commit must be inside
    the durable watermark; (3) the recovered digest must equal the
    mode-independent reference digest at ``k``; (4) the snapshot
    watermark must witness the staleness bound — at shards=1 the
    exact ``epochs_closed - epochs_flushed <= staleness_epochs``, on
    the sharded machine per shard with one epoch of slack for
    coordinator demand-closes (docs/sharding.md).  Raises
    :class:`OracleMismatch` on any breach; returns the number of
    crash points checked.
    """
    for fraction in crash_fractions:
        record = run_staleness_crash(
            workload, seed=seed, txns=txns, items=items,
            crash_fraction=fraction,
            staleness_epochs=staleness_epochs,
            epoch_writes=epoch_writes, check=check, shards=shards)
        committed = record["committed"]
        k = len(committed)
        tag = f"{workload} @ {fraction}" if shards == 1 \
            else f"{workload} @ {fraction} (shards={shards})"
        if committed != list(range(1, k + 1)):
            raise OracleMismatch(
                f"{tag}: recovered commits {committed} are not the "
                f"prefix 1..{k}", diff=[("committed", committed)])
        flushed = set(record["scheduling"].get("flushed_txns", ()))
        outside = [t for t in committed if t not in flushed]
        if outside:
            raise OracleMismatch(
                f"{tag}: commits {outside} survived recovery outside "
                f"the durable watermark {sorted(flushed)}",
                diff=[("outside", outside)])
        if record["digest"] != record["reference_digest"]:
            raise OracleMismatch(
                f"{tag}: digest at k={k} diverges from the reference "
                f"trajectory",
                diff=[("reference", record["reference_digest"]),
                      ("got", record["digest"])])
        per_shard = record["scheduling"].get("per_shard")
        if per_shard:
            for shard_id, meta in enumerate(per_shard):
                debt = meta["epochs_closed"] - meta["epochs_flushed"]
                if debt > staleness_epochs + 1:
                    raise OracleMismatch(
                        f"{tag}: shard {shard_id} holds {debt} "
                        f"unflushed epochs, exceeding the bound "
                        f"{staleness_epochs} + 1 demand-close",
                        diff=[("scheduling",
                               record["scheduling"])])
        else:
            closed = record["scheduling"].get("epochs_closed", 0)
            done = record["scheduling"].get("epochs_flushed", 0)
            if closed - done > staleness_epochs:
                raise OracleMismatch(
                    f"{tag}: {closed - done} unflushed epochs exceeds "
                    f"the staleness bound {staleness_epochs}",
                    diff=[("scheduling", record["scheduling"])])
    return len(tuple(crash_fractions))


# ---------------------------------------------------------------------------
# Recovery idempotence: crash recovery at every step, recover again
# ---------------------------------------------------------------------------
def _recovery_digest(state) -> tuple:
    """Default observable outcome of one recovery: the transaction
    verdicts plus a hash of every materialised program-visible line."""
    digest = hashlib.sha256()
    overlay = state.overlay_snapshot()
    for addr in sorted(overlay):
        digest.update(addr.to_bytes(8, "little"))
        digest.update(overlay[addr])
    return (tuple(state.committed_txns), tuple(state.rolled_back),
            digest.hexdigest())


def check_recovery_idempotent(snapshot: dict,
                              undo_log_regions: Sequence[Tuple[int, int]] = (),
                              redo_log_regions: Sequence[Tuple[int, int]] = (),
                              verify_macs: bool = True,
                              digest_fn=None, policy=None) -> int:
    """Prove ``recover(crash(recover(s))) == recover(s)`` at *every*
    instrumented crash point.

    One reference recovery counts the instrumented steps and records
    the observable outcome (``digest_fn(state)``, defaulting to
    transaction verdicts + an overlay hash).  Then, for each step
    ``n``, a fresh copy of the snapshot is recovered with a seeded
    ``recovery_crash`` armed at step ``n`` — which must raise
    :class:`RecoveryCrash` — and recovered *again* without the
    injector.  The second recovery must reproduce the reference
    outcome exactly (including the quarantine set), or
    :class:`OracleMismatch` is raised.  Returns the number of crash
    points exercised.
    """
    digest_fn = digest_fn if digest_fn is not None else _recovery_digest

    def fresh() -> dict:
        # Recovery's only image mutations are whole-line heal-backs,
        # so a shallow per-line copy isolates each attempt (the bytes
        # themselves are immutable; metadata is only read).
        return {"nvm_lines": dict(snapshot["nvm_lines"]),
                "metadata": snapshot["metadata"]}

    ref_quarantine: set = set()
    reference = recover(fresh(), undo_log_regions, redo_log_regions,
                        verify_macs=verify_macs, policy=policy,
                        quarantine=ref_quarantine)
    n_steps = reference.steps
    ref_digest = digest_fn(reference)
    for step in range(1, n_steps + 1):
        injector = FaultInjector(FaultPlan(seed=step, specs=[
            FaultSpec(kind="recovery_crash", after_n=step)]))
        quarantine: set = set()
        snap = fresh()
        try:
            recover(snap, undo_log_regions, redo_log_regions,
                    verify_macs=verify_macs, injector=injector,
                    policy=policy, quarantine=quarantine)
        except RecoveryCrash:
            pass
        else:
            raise OracleMismatch(
                f"recovery_crash armed at step {step} never fired "
                f"({n_steps} instrumented steps)")
        retry = recover(snap, undo_log_regions, redo_log_regions,
                        verify_macs=verify_macs, policy=policy,
                        quarantine=quarantine)
        if quarantine != ref_quarantine:
            raise OracleMismatch(
                f"recovery after a crash at step {step} quarantined "
                f"{sorted(quarantine)} != reference "
                f"{sorted(ref_quarantine)}")
        got = digest_fn(retry)
        if got != ref_digest:
            raise OracleMismatch(
                f"recovery is not idempotent across a crash at step "
                f"{step}/{n_steps}",
                diff=[("reference", ref_digest), ("got", got)])
    return n_steps


# ---------------------------------------------------------------------------
# IRB lockstep: indexed implementation vs linear-scan reference
# ---------------------------------------------------------------------------
LINES = [LINE * i for i in range(12)]
PAYLOADS = [bytes([b]) * LINE for b in (0x11, 0x22, 0x33)]
THREADS = (0, 1, 2)


def canon_entry(entry) -> tuple:
    """Identity-free view of an entry for cross-implementation
    comparison."""
    return (entry.pre_id, entry.thread_id, entry.transaction_id,
            -1 if entry.line_addr is None else entry.line_addr,
            entry.data or b"", entry.data_seq, entry.created_at,
            tuple(sorted(entry.ctx.completed)))


def canon(irb) -> list:
    return sorted(canon_entry(e) for e in irb.entries())


def clone(entry: IrbEntry) -> IrbEntry:
    return IrbEntry(
        pre_id=entry.pre_id, thread_id=entry.thread_id,
        transaction_id=entry.transaction_id,
        line_addr=entry.line_addr, data=entry.data,
        data_seq=entry.data_seq)


def random_entry(rng, lines=LINES, pre_ids: int = 6, txns: int = 2,
                 addr_p: float = 0.7) -> IrbEntry:
    has_addr = rng.random() < addr_p
    has_data = rng.random() < 0.6 or not has_addr
    return IrbEntry(
        pre_id=rng.randrange(pre_ids),
        thread_id=rng.choice(THREADS),
        transaction_id=rng.randrange(txns),
        line_addr=rng.choice(lines) if has_addr else None,
        data=rng.choice(PAYLOADS) if has_data else None,
        data_seq=rng.randrange(2))


class IrbLockstep:
    """Indexed IRB and linear reference driven as one, verified after
    every operation.

    Every mutator applies the operation to both implementations,
    compares the per-op result, then :meth:`verify`-s the full
    observable state (resident entries, occupancy, stats bag).
    Divergence raises :class:`OracleMismatch` tagged with the op.
    """

    def __init__(self, capacity: int = 10, max_age_ns: float = 500.0):
        self.sim_a, self.sim_b = Simulator(), Simulator()
        self.indexed = IntermediateResultBuffer(
            self.sim_a, capacity=capacity, max_age_ns=max_age_ns)
        self.linear = LinearScanIrb(
            self.sim_b, capacity=capacity, max_age_ns=max_age_ns)
        self.steps = 0

    def advance(self, dt: float) -> None:
        """Move both clocks forward in lockstep."""
        self.sim_a.now += dt
        self.sim_b.now += dt

    def _mismatch(self, op: str, detail: str) -> OracleMismatch:
        return OracleMismatch(
            f"IRB lockstep diverged at step {self.steps} ({op}): "
            f"{detail}",
            diff=[("indexed", canon(self.indexed)),
                  ("linear", canon(self.linear))])

    def _compare_pair(self, op: str, got_a, got_b) -> None:
        if (got_a is None) != (got_b is None):
            raise self._mismatch(
                op, f"indexed -> {got_a is not None}, "
                    f"linear -> {got_b is not None}")
        if got_a is not None and canon_entry(got_a) != canon_entry(got_b):
            raise self._mismatch(op, "returned entries differ")

    def insert(self, entry: IrbEntry):
        got_a = self.indexed.insert(entry)
        got_b = self.linear.insert(clone(entry))
        self._compare_pair("insert", got_a, got_b)
        self.verify("insert")
        return got_a

    def match(self, thread_id: int, line_addr: int, data: bytes):
        got_a = self.indexed.match_write(thread_id, line_addr, data)
        got_b = self.linear.match_write(thread_id, line_addr, data)
        self._compare_pair("match", got_a, got_b)
        self.verify("match")
        return got_a

    def consume_nth(self, index: int) -> None:
        """Consume the same logical entry (canon order) on both sides."""
        resident_a = sorted(self.indexed.entries(), key=canon_entry)
        resident_b = sorted(self.linear.entries(), key=canon_entry)
        if not resident_a:
            return
        index %= len(resident_a)
        self.indexed.consume(resident_a[index])
        self.linear.consume(resident_b[index])
        self.verify("consume")

    def invalidate_line(self, line_addr: int) -> int:
        count_a = self.indexed.invalidate_line(line_addr)
        count_b = self.linear.invalidate_line(line_addr)
        if count_a != count_b:
            raise self._mismatch("invalidate_line",
                                 f"{count_a} != {count_b}")
        self.verify("invalidate_line")
        return count_a

    def invalidate_range(self, lo: int, hi: int) -> int:
        count_a = self.indexed.invalidate_range(lo, hi)
        count_b = self.linear.invalidate_range(lo, hi)
        if count_a != count_b:
            raise self._mismatch("invalidate_range",
                                 f"{count_a} != {count_b}")
        self.verify("invalidate_range")
        return count_a

    def clear_thread(self, thread_id: int) -> int:
        count_a = self.indexed.clear_thread(thread_id)
        count_b = self.linear.clear_thread(thread_id)
        if count_a != count_b:
            raise self._mismatch("clear_thread",
                                 f"{count_a} != {count_b}")
        self.verify("clear_thread")
        return count_a

    def verify(self, op: str = "verify") -> None:
        """Full observable-state comparison; raises on divergence."""
        self.steps += 1
        if len(self.indexed) != len(self.linear):
            raise self._mismatch(
                op, f"occupancy {len(self.indexed)} != "
                    f"{len(self.linear)}")
        if canon(self.indexed) != canon(self.linear):
            raise self._mismatch(op, "resident entries differ")
        if self.indexed.stats.as_dict() != self.linear.stats.as_dict():
            raise self._mismatch(op, "stats bags differ")


def run_random_irb_trace(rng, steps: int = 400, capacity: int = 10,
                         max_age_ns: float = 500.0, lines=LINES,
                         pre_ids: int = 6, txns: int = 2,
                         addr_p: float = 0.7,
                         lockstep: Optional[IrbLockstep] = None) -> None:
    """Drive a seeded random operation trace through the lockstep.

    ``rng`` is any ``random.Random``-like stream (the callers use
    ``repro.common.rng`` named streams so traces replay exactly).
    Raises :class:`OracleMismatch` on the first divergence.
    """
    pair = lockstep if lockstep is not None else IrbLockstep(
        capacity=capacity, max_age_ns=max_age_ns)
    for _ in range(steps):
        # Jumps large enough to trigger aging on both clocks.
        pair.advance(rng.choice([0, 0, 1, 5, 40, 200]))
        roll = rng.random()
        if roll < 0.45:
            pair.insert(random_entry(rng, lines=lines, pre_ids=pre_ids,
                                     txns=txns, addr_p=addr_p))
        elif roll < 0.70:
            pair.match(rng.choice(THREADS), rng.choice(lines),
                       rng.choice(PAYLOADS))
        elif roll < 0.80:
            pair.consume_nth(rng.randrange(1 << 16))
        elif roll < 0.88:
            pair.invalidate_line(rng.choice(lines))
        elif roll < 0.94:
            pair.clear_thread(rng.choice(THREADS))
        else:
            lo = rng.choice(lines)
            pair.invalidate_range(lo, lo + LINE * rng.randrange(1, 4))
