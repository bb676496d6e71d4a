"""Multi-cycle soak campaign: run -> crash -> recover -> *resume*.

The crash campaign (:mod:`repro.harness.crash_campaign`) proves one
crash/recovery round trip lands on a committed boundary.  The soak
campaign proves the system survives a *lifetime* of them: for every
``workload x mode`` cell it drives N cycles of

1. rebuild the system **on the previous cycle's recovered image**
   (heap layout re-carved with :meth:`~repro.mem.heap.NvmHeap.reserve`,
   carried lines re-seeded through the BMO pipeline, Python-side
   cursors rederived via ``on_restore``, rng streams re-forked under a
   cycle tag so the run never replays itself);
2. run a slice of transactions and pull the plug — at a seeded time,
   at a write-queue acceptance (so ``wq_*`` faults provably strike an
   ADR-resident entry), or *mid-recovery* / *mid-scrub* via the
   ``recovery_crash`` / ``scrub_crash`` hooks;
3. recover (MAC-verified, with the retry/backoff media policy and a
   quarantine set shared by recovery, re-recovery and scrub within
   the cycle), re-recovering after a seeded mid-recovery crash and
   asserting the second pass converges (the idempotence oracle runs
   in full on those cycles);
4. scrub, then check the recovered digest against a fault-free *twin*
   that started from the identical carried image.

Media damage **accumulates**: device-write pressure feeds a
:class:`~repro.bmo.wear_leveling.StartGap` region, and each gap move
turns the hottest line into a sticky stuck-at cell (always a single
high-word bit, so ECC keeps it correctable and the lines stay in
service — the quarantine path is exercised by the fault cycles, not
by wear).

Each cell is a sealed, seeded computation, so the campaign shards
cells across worker processes through :mod:`repro.harness.parallel`
and assembles the report in submission order — the JSON document is
byte-identical at any ``--jobs``.

The crash step and the report close-out are
:mod:`repro.harness.crash_campaign`'s; this module keeps the
lifecycle: restore, per-cycle fault plans, wear, carry.
"""

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.bmo.wear_leveling import StartGap
from repro.common.errors import (
    IntegrityError,
    RecoveryCrash,
    ReproError,
    UncorrectableMediaError,
)
from repro.common.rng import DeterministicRng
from repro.consistency import scrub
from repro.faults import (
    DegradedModeManager,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
)
from repro.harness.crash_campaign import (
    account,
    build,
    close_out,
    config_dict,
    recover_image,
    recovery_fields,
    run_to_accept,
    trajectory,
    violation_lines,
)
from repro.harness.parallel import ParallelExecutor, SweepTask
from repro.obs import log as runlog
from repro.validate.oracles import OracleMismatch, check_recovery_idempotent
from repro.workloads import WORKLOADS, WorkloadParams

SCHEMA = "repro-soak-v1"
#: Metadata stores plus ECC — accumulated media damage must be
#: correctable evidence, never silent corruption.
SOAK_BMOS = ("dedup", "encryption", "integrity", "ecc")
#: Per-cycle fault schedule; cycle ``i`` uses ``ROTATION[i % 7]``.
#: ``irb_corrupt`` degrades to ``wq_drop`` outside janus mode.
ROTATION = (
    "clean",
    "media_write_flip",
    "recovery_crash",
    "media_read_transient",
    "wq_tear",
    "irb_corrupt",
    "scrub_crash",
)


@dataclass
class SoakConfig:
    """Everything that determines a soak campaign (and its report)."""

    workloads: Tuple[str, ...] = tuple(WORKLOADS)
    modes: Tuple[str, ...] = ("serialized", "janus")
    #: Lifecycle cycles per workload x mode cell.
    cycles: int = 20
    #: Transactions executed (or attempted) per cycle.
    txns_per_cycle: int = 6
    seed: int = 7
    n_items: int = 8
    value_size: int = 64
    #: Run the full recovery-idempotence oracle on every
    #: ``recovery_crash`` cycle (crash at *every* instrumented step).
    idempotence_oracle: bool = True
    #: Memory-controller shards (docs/sharding.md): a sharded soak
    #: proves a *lifetime* of crashes always recovers onto a
    #: cross-shard consistent cut, even with per-shard flushers at
    #: different depths when the plug is pulled.
    shards: int = 1

    def params(self) -> WorkloadParams:
        # Capacity knobs (undo-log size, tpcc order slots) are sized
        # by n_transactions, and a soak lifetime spans every cycle.
        return WorkloadParams(
            n_items=self.n_items, value_size=self.value_size,
            n_transactions=self.cycles * self.txns_per_cycle)

    to_dict = config_dict


def quick_config(seed: int = 7) -> SoakConfig:
    """CI-sized soak: two workloads, four cycles (still covering a
    clean, a media, a mid-recovery, and a transient-read cycle)."""
    return SoakConfig(workloads=("array_swap", "queue"), cycles=4,
                      seed=seed)


# -- restore: rebuild a system on a recovered image ---------------------------
def _restore(name: str, mode: str, config: SoakConfig,
             carry: Optional[Dict], cycle: int,
             injector: Optional[FaultInjector] = None):
    """A fresh system, optionally resumed on the carried image.

    ``build`` + ``setup()`` deterministically reproduce a *prefix* of
    the carried allocations (nothing ever frees); ``reserve`` re-carves
    the transaction-time tail at its exact addresses; ``seed`` replays
    every carried line through the BMO pipeline so metadata (counters,
    MACs, dedup, ECC codes) is consistent with the restored bytes.
    """
    system, [workload] = build(name, mode, config.params(), config.seed,
                               injector=injector, bmos=SOAK_BMOS,
                               shards=config.shards)
    if carry is not None:
        live = {a.addr for a in system.heap.live_allocations()}
        for addr, size, label in carry["allocs"]:
            if addr not in live:
                system.heap.reserve(addr, size, label=label)
        for addr in sorted(carry["image"]):
            workload.seed(addr, carry["image"][addr])
        workload.on_restore(system.volatile.read)
    # Never replay a previous cycle's rng positions — and keep the
    # fault-free twin and the faulted run drawing identical streams.
    workload.refork_streams(f"cycle{cycle}")
    return system, workload


def _cycle_plan(kind: str, cycle: int, seed: int, after_n: int,
                bit: int) -> FaultPlan:
    """The (validated-at-construction) fault plan for one cycle."""
    if kind == "clean":
        specs: List[FaultSpec] = []
    elif kind == "media_write_flip":
        # One seeded low-word bit: always ECC-correctable, so the
        # damage is healed evidence, never quarantine churn.
        specs = [FaultSpec(kind=kind, after_n=after_n, bits=(bit,))]
    elif kind == "media_read_transient":
        # Two bits in one 64-bit word: the *returned copy* is
        # uncorrectable, the stored line is clean — this is what
        # drives the recovery read path through its retry budget.
        specs = [FaultSpec(kind=kind, after_n=1 + after_n % 3,
                           bits=(5, 21))]
    elif kind == "recovery_crash":
        specs = [FaultSpec(kind=kind, after_n=1 + after_n % 24)]
    elif kind == "scrub_crash":
        specs = [FaultSpec(kind=kind, after_n=1 + after_n % 12)]
    elif kind in ("wq_tear", "wq_drop"):
        specs = [FaultSpec(kind=kind, after_n=1)]
    elif kind == "irb_corrupt":
        specs = [FaultSpec(kind=kind, after_n=after_n, bits=(bit,))]
    else:  # pragma: no cover - rotation guard
        raise ReproError(f"unknown soak fault kind {kind!r}")
    return FaultPlan(seed=seed * 1000 + cycle, specs=specs)


def _wear_victims(carry: Dict, system, footprint: List[int],
                  cycle: int) -> List[Dict]:
    """Feed the cycle's device-write pressure into Start-Gap; each gap
    move wears out the hottest not-yet-stuck line (one high-word
    stuck-at bit — correctable forever, since no line ever collects a
    second one)."""
    wear: StartGap = carry["wear"]
    before = wear.moves
    counts: Dict[int, int] = {}
    for device in system.devices:
        for line, n in device.write_counts.items():
            counts[line] = counts.get(line, 0) + n
    for _ in range(sum(counts.values())):
        wear.record_write()
    new_victims = []
    hottest = sorted((line for line in footprint
                      if line not in carry["stuck"]),
                     key=lambda line: (-counts.get(line, 0), line))
    for k in range(min(wear.moves - before, 2, len(hottest))):
        line = hottest[k]
        bit = 320 + (cycle * 7 + k) % 192
        carry["stuck"][line] = [(bit, 1)]
        new_victims.append({"addr": line, "bit": bit,
                            "gap_moves": wear.moves})
    return new_victims


def _footprint(system, workload) -> List[int]:
    """Carried line addresses: every live allocation except the undo
    log (recovery already resolved it; each cycle starts a fresh one)."""
    log_lo = workload.log.base
    log_hi = workload.log.base + workload.log.capacity
    lines: List[int] = []
    for alloc in system.heap.live_allocations():
        if alloc.addr >= log_lo and alloc.addr < log_hi:
            continue
        for line in range(alloc.addr, alloc.addr + alloc.size, 64):
            lines.append(line)
    return lines


# -- one lifecycle cycle ------------------------------------------------------
def _run_cycle(name: str, mode: str, config: SoakConfig,
               carry: Optional[Dict], cycle: int, rng) -> Dict:
    """One run -> crash -> recover -> scrub -> check -> carry step.

    Returns the cycle record; the new carry rides in ``record["_carry"]``
    (popped by the caller, never serialised).  A rejected cycle keeps
    the previous carry — the persistent image is unchanged, exactly
    like a real machine refusing to mount damaged state.
    """
    kind = ROTATION[cycle % len(ROTATION)]
    if kind == "irb_corrupt" and mode != "janus":
        kind = "wq_drop"
    # Every seeded choice is drawn up front, unconditionally, so a
    # rejected cycle never desynchronises later cycles' draws.
    crash_frac = 0.30 + 0.55 * rng.random()
    after_n = 1 + rng.randrange(16)
    accept_n = 2 + rng.randrange(6)
    bit = rng.randrange(320)
    policy = RetryPolicy()

    runlog.bind(cycle=cycle)
    try:
        # The fault-free twin, from the same carried image: the
        # reference digest after every commit, plus the horizon.
        twin, twin_workload = _restore(name, mode, config, carry, cycle)
        digests, horizon = trajectory(twin, twin_workload,
                                      config.txns_per_cycle)
        plan = _cycle_plan(kind, cycle, config.seed, after_n, bit)
        injector = FaultInjector(plan)
        if carry is not None:
            # Accumulated wear: stuck-at cells re-damage every write.
            injector._stuck.update(
                {addr: list(cells)
                 for addr, cells in carry["stuck"].items()})
        system, workload = _restore(name, mode, config, carry, cycle,
                                    injector=injector)
        record: Dict = {"cycle": cycle, "fault": kind}
        runlog.event("soak", "cycle.start", level="info",
                     workload=name, mode=mode, fault=kind)

        program = workload.run(config.txns_per_cycle)
        if kind == "clean":
            system.run_programs([program])
        elif kind in ("wq_tear", "wq_drop"):
            run_to_accept(system, program, accept_n)
        else:
            system.run_until([program], until=crash_frac * horizon)
        record["crash_at"] = system.sim.now
        snapshot = system.crash()

        # One quarantine set per cycle, shared by recovery, re-recovery
        # and scrub (a mid-scrub crash must not lose poison records).
        # It does NOT ride in the carry: the restore re-seeds every
        # carried line — a full rewrite — and rewriting a poisoned line
        # clears its poison.  Persistent damage is modelled where it
        # lives: stuck cells re-damage on write, and a line whose data
        # was truly lost simply drops out of the carried image.
        quarantine: Set[int] = set()
        state = None
        record["mid_recovery_crash"] = False
        try:
            try:
                state = recover_image(snapshot, [workload],
                                      injector=injector, policy=policy,
                                      quarantine=quarantine)
            except RecoveryCrash as crashed:
                # The seeded second power failure: recovery must be
                # re-runnable from the (mutated) snapshot + quarantine.
                record["mid_recovery_crash"] = True
                record["crash_step"] = crashed.step
                record["crash_stage"] = crashed.stage
                runlog.event("soak", "recovery.crashed", level="warn",
                             workload=name, mode=mode,
                             step=crashed.step, stage=crashed.stage)
                state = recover_image(snapshot, [workload],
                                      policy=policy,
                                      quarantine=quarantine)
            record["result"] = "recovered"
        except ReproError as error:
            record["result"] = f"rejected:{type(error).__name__}"
            record["error"] = str(error)
            runlog.event("soak", "recovery.rejected", level="error",
                         workload=name, mode=mode,
                         error=type(error).__name__)

        if kind == "recovery_crash" and config.idempotence_oracle \
                and state is not None:
            # The full contract, not just the one seeded point: crash
            # at *every* instrumented step and prove convergence.
            # Gated on a successful main recovery — a snapshot the
            # recovery legitimately rejects rejects identically inside
            # the oracle's reference pass.
            try:
                record["oracle_points"] = check_recovery_idempotent(
                    snapshot, [(workload.log.base, workload.log.capacity)],
                    verify_macs=True, policy=policy)
            except OracleMismatch as mismatch:
                record["oracle_failed"] = str(mismatch)

        if state is not None:
            record.update(recovery_fields(state))
            record["read_retries"] = state.read_retries
            record["backoff_ns"] = state.backoff_ns
            record["escalations"] = state.escalations
            try:
                record["digest"] = workload.logical_digest(state.read)
                record["digest_ok"] = \
                    record["digest"] == digests.get(record["committed"])
            except ReproError as error:
                record["result"] = f"rejected:{type(error).__name__}"
                record["error"] = str(error)
                state = None

        # Post-crash scrub, itself crashable on scrub_crash cycles.
        degraded = DegradedModeManager(system, injector=injector,
                                       policy=policy,
                                       quarantine=quarantine)
        try:
            scrub_report = scrub(system, degraded=degraded)
            record["mid_scrub_crash"] = False
        except RecoveryCrash as crashed:
            record["mid_scrub_crash"] = True
            record["scrub_crash_stage"] = crashed.stage
            runlog.event("soak", "scrub.crashed", level="warn",
                         workload=name, mode=mode, step=crashed.step,
                         stage=crashed.stage)
            # Re-scrub without the injector: heals and quarantine
            # records are idempotent, the shared set survived.
            redo = DegradedModeManager(system, policy=policy,
                                       quarantine=quarantine)
            scrub_report = scrub(system, degraded=redo, injector=None)
            degraded = redo
        record["scrub"] = {
            "clean": scrub_report.clean,
            "lines_checked": scrub_report.lines_checked,
            "mac_failures": len(scrub_report.mac_failures),
            "corrected_lines": len(scrub_report.corrected_lines),
            "poisoned_lines": len(scrub_report.poisoned_lines),
        }
        record["injected"] = list(injector.injected)
        faults = system.metrics.scope("faults").as_dict()
        record["degraded_retries"] = int(faults.get("read_retries", 0))
        record["degraded_backoff_ns"] = \
            int(faults.get("retry_backoff_ns", 0))

        account(record, {
            "rejected": record["result"].startswith("rejected:"),
            "media_corrected": record.get("media_corrected", 0) > 0,
            "torn_log_lines": record.get("torn_log_lines", 0) > 0,
            "read_retries": record.get("read_retries", 0) > 0
            or record["degraded_retries"] > 0,
            "escalated": record.get("escalations", 0) > 0,
            "mid_recovery_crash": record["mid_recovery_crash"],
            "mid_scrub_crash": record["mid_scrub_crash"],
            "scrub_corrected": record["scrub"]["corrected_lines"] > 0,
            "scrub_poisoned": record["scrub"]["poisoned_lines"] > 0,
            "scrub_detected": record["scrub"]["mac_failures"] > 0,
        })

        if state is not None:
            # Harvest the next cycle's carry from the recovered image.
            new_carry: Dict = {
                "stuck": dict(carry["stuck"]) if carry else {},
                "wear": carry["wear"] if carry
                else StartGap(max(len(_footprint(system, workload)), 1),
                              gap_write_interval=64),
                "allocs": [(a.addr, a.size, a.label)
                           for a in system.heap.live_allocations()],
            }
            footprint = _footprint(system, workload)
            footprint_set = set(footprint)
            image: Dict[int, bytes] = {}
            lost: List[int] = []
            for line in sorted(state.written_lines()):
                if line not in footprint_set:
                    continue
                # Extract through the *recovered* view: a line scrub
                # poisoned on the post-crash media may still have been
                # resolved by recovery (rollback / redo / heal) — that
                # published value is the data the next cycle resumes
                # on.  Only a line recovery itself cannot produce is
                # genuinely lost.
                try:
                    image[line] = state.read_line(line)
                except UncorrectableMediaError:
                    lost.append(line)
                except IntegrityError as error:
                    record["extract_error"] = str(error)
                    break
            new_carry["image"] = image
            record["wear_victims"] = _wear_victims(new_carry, system,
                                                   footprint, cycle)
            record["carried_lines"] = len(image)
            record["lost_lines"] = len(lost)
            record["stuck_lines"] = len(new_carry["stuck"])
            record["quarantined_lines"] = len(quarantine)
            if "extract_error" not in record:
                record["_carry"] = new_carry
        runlog.event("soak", "cycle.done", level="info", workload=name,
                     mode=mode, result=record["result"],
                     committed=record.get("committed"),
                     digest_ok=record.get("digest_ok"))
        return record
    finally:
        runlog.unbind("cycle")


def run_cell(name: str, mode: str, config: SoakConfig) -> Dict:
    """One workload x mode cell: the full lifecycle, sequentially.

    Cycles chain through the carried image, so a cell is the sharding
    unit — cells are independent seeded computations, cycles are not.
    """
    rng = DeterministicRng(config.seed).stream(f"soak-{name}-{mode}")
    carry: Optional[Dict] = None
    cycles: List[Dict] = []
    for cycle in range(config.cycles):
        record = _run_cycle(name, mode, config, carry, cycle, rng)
        carry = record.pop("_carry", carry)
        cycles.append(record)
    recovered = sum(1 for c in cycles if c["result"] == "recovered")
    return {
        "cycles": cycles,
        "recovered": recovered,
        "rejected": len(cycles) - recovered,
        "digests_ok": sum(1 for c in cycles if c.get("digest_ok")),
        "committed_total": sum(c.get("committed", 0) for c in cycles),
        "final_carried_lines": len(carry["image"]) if carry else 0,
        "final_stuck_lines": len(carry["stuck"]) if carry else 0,
        "final_quarantined": next(
            (c["quarantined_lines"] for c in reversed(cycles)
             if "quarantined_lines" in c), 0),
    }


# -- the campaign -------------------------------------------------------------
def run_soak(config: Optional[SoakConfig] = None,
             jobs: Optional[int] = None,
             progress=None) -> Dict:
    """Run the soak campaign; returns the (deterministic) report.

    Cells shard across worker processes; the report is assembled in
    submission order, so the JSON document is byte-identical for any
    job count.
    """
    config = config or SoakConfig()
    executor = ParallelExecutor(jobs=jobs, progress=progress)
    runlog.event("soak", "campaign.start",
                 workloads=list(config.workloads),
                 modes=list(config.modes), cycles=config.cycles,
                 seed=config.seed)
    cells = [(name, mode) for name in config.workloads
             for mode in config.modes]
    results = {r.key: r for r in executor.map([
        SweepTask(key=(name, mode), fn=run_cell,
                  kwargs=dict(name=name, mode=mode, config=config))
        for name, mode in cells])}

    report: Dict = {
        "schema": SCHEMA,
        "config": config.to_dict(),
        "cells": {},
        "violations": [],
    }
    violations: List[Dict] = report["violations"]
    for name in config.workloads:
        entry: Dict = {}
        report["cells"][name] = entry
        for mode in config.modes:
            outcome = results[(name, mode)]
            if not outcome.ok:
                entry[mode] = {"result": "failed",
                               "error": outcome.error}
                violations.append({"workload": name, "mode": mode,
                                   "kind": "cell-failed",
                                   "detail": outcome.error})
                continue
            cell = outcome.value
            entry[mode] = cell
            for record in cell["cycles"]:
                where = {"workload": name, "mode": mode,
                         "cycle": record["cycle"]}
                if record.get("silent"):
                    violations.append({**where, "kind": "silent-fault"})
                if record.get("oracle_failed"):
                    violations.append(
                        {**where, "kind": "idempotence-broken",
                         "detail": record["oracle_failed"]})
                if record.get("extract_error"):
                    violations.append(
                        {**where, "kind": "extract-integrity",
                         "detail": record["extract_error"]})
                if record["result"] == "recovered":
                    if not record.get("digest_ok") \
                            and not any(record["evidence"].values()):
                        violations.append(
                            {**where, "kind": "digest-mismatch"})
                    if not record.get("prefix_ok", True):
                        violations.append({**where,
                                           "kind": "commit-gap"})
                elif not record["fault"].startswith(("wq_", "media",
                                                     "irb")):
                    # Only injected-damage cycles may reject; a clean
                    # or crash-hook cycle that rejects lost data.
                    violations.append({**where,
                                       "kind": "recovery-rejected",
                                       "detail": record.get("error",
                                                            "")})

    return close_out(report, summarise(report), "soak", "cycles")


def summarise(report: Dict) -> Dict:
    cycles = recovered = rejected = digests_ok = 0
    injected = retries = backoff = escalations = 0
    mid_recovery = mid_scrub = oracle_points = committed = 0
    for entry in report["cells"].values():
        for cell in entry.values():
            if cell.get("result") == "failed":
                continue
            for record in cell["cycles"]:
                cycles += 1
                committed += record.get("committed", 0)
                if record["result"] == "recovered":
                    recovered += 1
                else:
                    rejected += 1
                if record.get("digest_ok"):
                    digests_ok += 1
                injected += len(record.get("injected", []))
                retries += record.get("read_retries", 0) \
                    + record.get("degraded_retries", 0)
                backoff += record.get("backoff_ns", 0) \
                    + record.get("degraded_backoff_ns", 0)
                escalations += record.get("escalations", 0)
                mid_recovery += bool(record.get("mid_recovery_crash"))
                mid_scrub += bool(record.get("mid_scrub_crash"))
                oracle_points += record.get("oracle_points", 0)
    return {
        "cycles": cycles,
        "recovered": recovered,
        "rejected": rejected,
        "digests_ok": digests_ok,
        "committed_txns": committed,
        "faults_injected": injected,
        "read_retries": retries,
        "backoff_ns": backoff,
        "escalations": escalations,
        "mid_recovery_crashes": mid_recovery,
        "mid_scrub_crashes": mid_scrub,
        "idempotence_points": oracle_points,
        "violations": len(report["violations"]),
    }


def render_summary(report: Dict) -> str:
    summary = report["summary"]
    lines = [
        f"soak: {summary['cycles']} cycles "
        f"({summary['recovered']} recovered, "
        f"{summary['rejected']} rejected, "
        f"{summary['committed_txns']} txns committed)",
        f"  mid-recovery crashes: {summary['mid_recovery_crashes']}, "
        f"mid-scrub crashes: {summary['mid_scrub_crashes']}, "
        f"idempotence points: {summary['idempotence_points']}",
        f"  media policy: {summary['read_retries']} retries, "
        f"{summary['backoff_ns']} ns backoff, "
        f"{summary['escalations']} escalations",
        f"  faults injected: {summary['faults_injected']}",
    ]
    for name, entry in report["cells"].items():
        for mode, cell in entry.items():
            if cell.get("result") == "failed":
                lines.append(f"    {name:12s} {mode:10s} FAILED")
                continue
            lines.append(
                f"    {name:12s} {mode:10s} "
                f"{cell['recovered']:3d} recovered / "
                f"{cell['rejected']} rejected, "
                f"{cell['digests_ok']} digests ok, "
                f"stuck={cell['final_stuck_lines']} "
                f"quarantined={cell['final_quarantined']}")
    lines += violation_lines(report, "every cycle recovered onto a "
                             "committed boundary or rejected "
                             "explicitly; no silent data loss")
    return "\n".join(lines)
