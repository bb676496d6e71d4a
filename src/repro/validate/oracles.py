"""Reusable differential oracles.

The **mode oracle** backs the repo's equivalence arguments: run one
op sequence under serialized (the reference), janus, and any other
design point; crash, recover through ciphertext + metadata, and diff
the final NVM images.  The paper's requirement 1 (§3.2) in its
strongest form: pre-execution and DAG parallelization are *latency*
optimizations, so recovered contents must be byte-identical to the
serialized baseline for arbitrary programs.  Promoted from
``tests/test_mode_equivalence``.

The oracles raise :class:`OracleMismatch` (never a bare
``AssertionError``) so the fuzz harness can classify divergences as
structured failures.

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
from typing import Iterable, List, Sequence, Tuple

from repro.common.config import default_config
from repro.common.errors import RecoveryCrash, ReproError
from repro.consistency import recover
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.core import NvmSystem
from repro.harness.crash_campaign import build, recover_image
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
    instead (``check_bounded_staleness`` in
    ``tests/staleness_oracle.py``).

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
