"""Crash-point campaign: sweep seeded crash points, prove recovery.

The campaign is the repo's end-to-end robustness argument.  For every
``workload x mode`` pair it:

1. runs a *calibration* pass to completion, recording the logical
   digest of the structure after every committed transaction (the
   reference trajectory) and the run's time horizon;
2. sweeps ``points`` seeded crash times across that horizon — each
   point runs a fresh system, pulls the plug mid-stream, recovers
   (MAC-verified) and rolls back the undo log, then decodes the
   recovered image with the workload's structure-aware
   ``logical_state``;
3. asserts the recovered digest equals the reference digest at the
   recovered commit count — i.e. recovery always lands exactly on a
   committed-transaction boundary — and that the post-crash scrub is
   clean.

Because the reference trajectories are compared *across modes*, the
campaign also proves the paper's requirement 1 (§3.2): Janus
pre-execution never changes the post-crash recoverable state relative
to the serialized baseline.

A second section exercises every fault class from
:mod:`repro.faults` in a targeted scenario and classifies the outcome
(recovered-consistent / rejected with a ``ReproError`` subclass /
corrected / poisoned).  A fault that produces a divergent digest with
no error and no correction evidence is a *silent* failure and lands
in ``violations``.

Reports are deterministic: identical seed + config produce a
byte-identical JSON document (no timestamps in the body — the date
lives only in the file name).  Every simulation point (reference
trajectory, crash point, fault scenario) is a sealed seeded run, so
the campaign shards them across worker processes through
:mod:`repro.harness.parallel` (``jobs``/``--jobs``/``$REPRO_JOBS``)
and assembles the report in sweep order — the bytes are identical at
any job count.

The crash step (:func:`build`, :func:`trajectory`,
:func:`run_to_accept`, :func:`recover_image`, :func:`recovery_fields`,
:func:`account`) and the report close-out live here once: the soak
campaign, the differential oracles and ``repro scrub`` call the same
functions, and every report is written by
:func:`repro.harness.report.write_json`.  :func:`build` is also the
one builder of a design point behind ``run_point`` and the point
commands.  It stays in this module because ``perfbench/cells.py``
times the crash step by wrapping this module's ``recover``,
``scrub``, ``make_workload`` and ``NvmSystem`` globals, so the crash
step must keep calling them through those names.
"""

import json
from dataclasses import dataclass, fields
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.config import SystemConfig, default_config
from repro.common.errors import ReproError
from repro.common.rng import DeterministicRng
from repro.consistency import recover, scrub
from repro.core import NvmSystem
from repro.faults import DegradedModeManager, FaultInjector, FaultPlan, \
    FaultSpec
from repro.harness.parallel import ParallelExecutor, SweepTask, TaskResult
from repro.obs import log as runlog
from repro.workloads import WORKLOADS, WorkloadParams, make_workload

SCHEMA = "repro-crashtest-v1"
DEFAULT_MODES = ("serialized", "janus")
#: BMO set used by the fault scenarios: every metadata store plus ECC,
#: so media faults exercise correction *and* poisoning.
FAULT_BMOS = ("dedup", "encryption", "integrity", "ecc")
#: IRB faults need the Janus engine; run every scenario under Janus so
#: the scenarios also cover the pre-execution datapath.
SCENARIO_MODE = "janus"


def config_dict(config) -> Dict:
    """A campaign config's serialised form (its ``to_dict``): every
    field, tuples as lists.  ``shards`` appears only when sharded, so
    unsharded reports stay byte-identical to pre-sharding campaigns."""
    out = {}
    for spec in fields(config):
        value = getattr(config, spec.name)
        if spec.name == "shards" and value == 1:
            continue
        out[spec.name] = list(value) if isinstance(value, tuple) \
            else value
    return out


@dataclass
class CampaignConfig:
    """Everything that determines a campaign (and its report)."""

    workloads: Tuple[str, ...] = tuple(WORKLOADS)
    modes: Tuple[str, ...] = DEFAULT_MODES
    #: Seeded crash points per workload x mode.
    points: int = 20
    seed: int = 7
    n_items: int = 8
    value_size: int = 64
    n_transactions: int = 12
    fault_scenarios: bool = True
    #: Memory-controller shards (docs/sharding.md).  The sharded
    #: campaign proves recovery lands on a *cross-shard* consistent
    #: cut — e.g. a crash caught with one shard's epoch flusher
    #: behind the others still recovers a committed boundary.
    shards: int = 1

    def params(self) -> WorkloadParams:
        return WorkloadParams(n_items=self.n_items,
                              value_size=self.value_size,
                              n_transactions=self.n_transactions)

    to_dict = config_dict


def quick_config(seed: int = 7) -> CampaignConfig:
    """CI-sized campaign: two workloads, fewer points."""
    return CampaignConfig(workloads=("array_swap", "queue"),
                          points=5, seed=seed, n_transactions=8)


# -- the crash step ----------------------------------------------------------
def build(name: str, mode: str, params: Optional[WorkloadParams] = None,
          seed: Optional[int] = None, *, variant: Optional[str] = None,
          cores: int = 1, config: Optional[SystemConfig] = None,
          tracer=None, injector: Optional[FaultInjector] = None,
          bmos: Optional[Sequence[str]] = None, **overrides):
    """One design point: a fresh system in ``mode`` and one ``name``
    workload per core.  Returns ``(system, workloads)``.

    ``variant`` defaults to the paper's: hand instrumentation (§4.4)
    under janus, none elsewhere.  ``config`` is the base configuration
    (paper defaults when omitted); ``seed``, ``bmos`` and
    ``overrides`` (``shards``, ``scheduling``, ``check_invariants``,
    ...) replace its top-level fields.
    """
    if variant is None:
        variant = "manual" if mode == "janus" else "baseline"
    if seed is not None:
        overrides["seed"] = seed
    if bmos is not None:
        overrides["bmos"] = tuple(bmos)
    base = config if config is not None else default_config()
    system = NvmSystem(base.replace(mode=mode, cores=cores, **overrides),
                       tracer=tracer, injector=injector)
    params = params or WorkloadParams()
    return system, [make_workload(name, system, core, params,
                                  variant=variant)
                    for core in system.cores]


def recover_image(snapshot: Dict, workloads, **kwargs):
    """MAC-verified recovery of a crash ``snapshot``, rolling back
    every workload's undo log.  ``kwargs`` go to :func:`recover`
    (``injector``, ``policy``, ``quarantine``)."""
    return recover(snapshot, [(w.log.base, w.log.capacity)
                              for w in workloads],
                   verify_macs=True, **kwargs)


def trajectory(system, workload, txns: int):
    """Run ``txns`` transactions to completion, taking the logical
    digest after setup and after every commit.

    Returns ``(digests, horizon_ns)`` where ``digests[k]`` is the
    logical digest with exactly ``k`` transactions committed.
    """
    digests: Dict[int, str] = {
        0: workload.logical_digest(system.volatile.read)}

    def driver():
        for _ in range(txns):
            yield from workload.run(1)
            k = system.cores[0].current_txn_id
            digests[k] = workload.logical_digest(system.volatile.read)

    horizon = system.run_programs([driver()])
    return digests, horizon


def reference_trajectory(name: str, mode: str, params: WorkloadParams,
                         seed: int,
                         bmos: Optional[Sequence[str]] = None,
                         shards: int = 1):
    """Run to completion; digest after setup and after every commit.

    Returns :func:`trajectory`'s ``(digests, horizon_ns)``.  The
    workloads draw all their randomness from mode-independent rng
    streams, so for a fixed seed the trajectory is identical across
    modes — the campaign asserts exactly that.
    """
    system, [workload] = build(name, mode, params, seed, bmos=bmos,
                               shards=shards)
    return trajectory(system, workload, params.n_transactions)


def run_to_accept(system, program, n: int) -> None:
    """Run ``program`` until the ``n``th write-queue acceptance,
    counted across every shard's queue, completes: the only instant
    an entry is sure to sit undrained in the ADR domain, which the
    ``wq_*`` faults need.  Every queue's acceptance observer is
    removed again."""
    stop = system.sim.event("accept-crash")
    seen = {"accepts": 0}

    def observe(entry) -> None:
        seen["accepts"] += 1
        if seen["accepts"] == n and not stop.triggered:
            stop.succeed()

    for queue in system.write_queues:
        queue.on_accept = observe
    system.sim.process(program, name="stream")
    try:
        system.sim.run(stop_event=stop)
    finally:
        for queue in system.write_queues:
            queue.on_accept = None


def recovery_fields(state) -> Dict:
    """The record fields of a successful recovery: the commit count,
    whether the commits are the prefix ``1..k``, and the rollback,
    media-correction and torn-log evidence."""
    committed = state.committed_txns
    return {
        "committed": len(committed),
        "prefix_ok": committed == list(range(1, len(committed) + 1)),
        "rolled_back": len(state.rolled_back),
        "media_corrected": len(state.media_corrected),
        "torn_log_lines": len(set(state.torn_log_lines)),
    }


def account(record: Dict, evidence: Dict) -> None:
    """Set ``record``'s ``evidence`` and silent-fault verdict: an
    injected fault must leave the recovered state consistent (ECC fix,
    IRB recompute, rollback) or leave evidence; a divergent digest
    with no evidence is a silent failure."""
    record["evidence"] = evidence
    injected = record.get("injected", [])
    silent = (record["result"] == "recovered"
              and not record.get("digest_ok", False)
              and not any(evidence.values()))
    record["accounted"] = not injected or not silent
    record["silent"] = bool(injected) and silent


def run_crash_point(name: str, mode: str, params: WorkloadParams,
                    seed: int, crash_at: float,
                    plan: Optional[FaultPlan] = None,
                    bmos: Optional[Sequence[str]] = None,
                    crash_on_accept: Optional[int] = None,
                    shards: int = 1) -> Dict:
    """One crash point: run, crash, recover, scrub, decode.

    Returns a record with the recovered commit count, the logical
    digest (or the rejection error), rollback/scrub evidence, and any
    injected faults.  Never lets damage through silently: a
    ``ReproError`` from recovery or decoding is captured as an
    explicit rejection.

    ``crash_on_accept=N`` crashes the instant the Nth write-queue
    acceptance completes (:func:`run_to_accept`).
    """
    injector = FaultInjector(plan) if plan is not None else None
    system, [workload] = build(name, mode, params, seed,
                               injector=injector, bmos=bmos,
                               shards=shards)
    if crash_on_accept is None:
        system.sim.process(workload.run(), name="stream")
        system.sim.run(until=crash_at)
    else:
        run_to_accept(system, workload.run(), crash_on_accept)
        crash_at = system.sim.now
    snapshot = system.crash()

    record: Dict = {"crash_at": crash_at, "mode": mode}
    try:
        state = recover_image(snapshot, [workload])
        record.update(recovery_fields(state))
        record["digest"] = workload.logical_digest(state.read)
        record["result"] = "recovered"
    except ReproError as error:
        record["result"] = f"rejected:{type(error).__name__}"
        record["error"] = str(error)

    degraded = DegradedModeManager(system, injector=injector)
    report = scrub(system, degraded=degraded)
    record["scrub"] = {
        "clean": report.clean,
        "lines_checked": report.lines_checked,
        "mac_failures": len(report.mac_failures),
        "merkle_failures": len(report.merkle_failures),
        "dedup_failures": len(report.dedup_failures),
        "corrected_lines": len(report.corrected_lines),
        "poisoned_lines": len(report.poisoned_lines),
    }
    if injector is not None:
        record["injected"] = list(injector.injected)
    return record


def crash_mid_bmo(name: str, mode: str = "janus",
                  commit_index: int = 5,
                  params: Optional[WorkloadParams] = None,
                  seed: int = 7):
    """Crash in the mid-BMO window: metadata committed, data write
    not yet accepted into the persist domain.

    The pipeline commits unreconstructable metadata synchronously in
    ``_persist``; the write-queue acceptance (the ADR persist point)
    is a separate simulation event.  Stopping the simulator exactly
    between the two models a power failure in that window.  Returns
    ``(system, workload, snapshot)``; the caller recovers and checks
    the image still lands on a committed boundary.
    """
    params = params or WorkloadParams(n_items=8, value_size=64,
                                      n_transactions=10)
    system, [workload] = build(name, mode, params, seed)
    original = system.pipeline.commit
    stop = system.sim.event("mid-bmo-crash")
    state = {"commits": 0}

    def wrapped(ctx):
        action = original(ctx)
        state["commits"] += 1
        if state["commits"] == commit_index and not stop.triggered:
            stop.succeed()
        return action

    system.pipeline.commit = wrapped
    system.sim.process(workload.run(), name="stream")
    system.sim.run(stop_event=stop)
    system.pipeline.commit = original
    snapshot = system.crash()
    return system, workload, snapshot


# -- fault scenarios ---------------------------------------------------------
#: (label, kind, spec kwargs, bmos, expectation note).  ``after_n``
#: values are small so short scenario runs reliably reach them.
FAULT_SCENARIOS = (
    ("media-flip-correctable", "media_write_flip",
     {"after_n": 4, "bits": (13,)}, FAULT_BMOS,
     "single-bit media damage: ECC corrects during recovery/scrub"),
    ("media-flip-uncorrectable", "media_write_flip",
     {"after_n": 4, "bits": (3, 9)}, FAULT_BMOS,
     "double-bit same-word damage: detected, line poisoned"),
    ("media-read-transient", "media_read_transient",
     {"after_n": 2, "bits": (5, 21)}, FAULT_BMOS,
     "transient read damage: bounded retry re-fetches clean bytes"),
    ("meta-merkle", "meta_merkle",
     {"bits": (7,)}, ("dedup", "encryption", "integrity"),
     "Merkle leaf corruption at power loss: scrub localises it"),
    ("meta-counter", "meta_counter",
     {"bits": (0,)}, ("encryption", "integrity"),
     "counter bump at power loss: MAC chain breaks, IntegrityError"),
    ("irb-corrupt", "irb_corrupt",
     {"after_n": 2, "bits": (17,)}, None,
     "IRB data corruption: write-time mismatch forces recompute"),
    ("irb-stale", "irb_stale",
     {"after_n": 2}, None,
     "stale pre-executed result: invalidation refreshes it"),
    ("wq-drop", "wq_drop",
     {"after_n": 1}, None,
     "ADR drop at power loss: log CRC / MAC detects the hole"),
    ("wq-tear", "wq_tear",
     {"after_n": 1}, None,
     "ADR torn line at power loss: detected, never consumed"),
)


def run_fault_scenario(label: str, kind: str, spec_kwargs: Dict,
                       bmos: Optional[Sequence[str]],
                       config: CampaignConfig) -> Dict:
    """Inject one fault class; classify and account for the outcome."""
    params = config.params()
    name = config.workloads[0]
    digests, horizon = reference_trajectory(name, SCENARIO_MODE, params,
                                            config.seed, bmos=bmos)
    plan = FaultPlan(seed=config.seed,
                     specs=[FaultSpec(kind=kind, **spec_kwargs)])
    # wq_* faults strike entries sitting in the ADR domain at power
    # loss; crash at an acceptance so one provably is.
    accept = 9 if kind.startswith("wq_") else None
    record = run_crash_point(name, SCENARIO_MODE, params, config.seed,
                             crash_at=0.6 * horizon, plan=plan,
                             bmos=bmos, crash_on_accept=accept)
    record["label"] = label
    record["kind"] = kind
    record["workload"] = name
    if record["result"] == "recovered":
        expected = digests.get(record["committed"])
        record["digest_ok"] = record["digest"] == expected

    scrub_info = record["scrub"]
    account(record, {
        "rejected": record["result"].startswith("rejected:"),
        "media_corrected": record.get("media_corrected", 0) > 0,
        "torn_log_lines": record.get("torn_log_lines", 0) > 0,
        "scrub_corrected": scrub_info["corrected_lines"] > 0,
        "scrub_poisoned": scrub_info["poisoned_lines"] > 0,
        "scrub_detected": (scrub_info["mac_failures"]
                           + scrub_info["merkle_failures"]
                           + scrub_info["dedup_failures"]) > 0,
    })
    return record


# -- the campaign ------------------------------------------------------------
def _crash_times(config: CampaignConfig, name: str, mode: str,
                 horizon: float) -> List[float]:
    """The seeded crash times for one workload x mode sweep."""
    rng = DeterministicRng(config.seed).stream(
        f"crash-points-{name}-{mode}")
    return [max(1.0, (i + rng.random()) / config.points * horizon)
            for i in range(config.points)]


def run_campaign(config: Optional[CampaignConfig] = None,
                 jobs: Optional[int] = None,
                 progress=None) -> Dict:
    """Run the full campaign; returns the (deterministic) report.

    ``jobs`` shards the independent simulation points (reference
    trajectories, crash points, fault scenarios) across worker
    processes via :mod:`repro.harness.parallel`.  Every point is a
    sealed seeded run and the report is assembled in sweep order, so
    the JSON document is **byte-identical for any job count** —
    including ``jobs=1``, which runs inline with no processes at all.
    A point that still fails after the executor's bounded retries is
    recorded as a ``failed:`` result plus a ``point-failed`` violation
    instead of sinking the sweep.
    """
    config = config or CampaignConfig()
    executor = ParallelExecutor(jobs=jobs, progress=progress)
    runlog.event("harness.crashtest", "campaign.start",
                 workloads=list(config.workloads),
                 modes=list(config.modes), points=config.points,
                 seed=config.seed)
    report: Dict = {
        "schema": SCHEMA,
        "config": config.to_dict(),
        "workloads": {},
        "fault_scenarios": [],
        "violations": [],
    }
    violations: List[Dict] = report["violations"]
    params = config.params()
    pairs = [(name, mode) for name in config.workloads
             for mode in config.modes]

    # Phase 1 — reference trajectories (one per workload x mode).
    # These anchor every downstream check, so a failure here is fatal.
    references = executor.map_values([
        SweepTask(key=(name, mode), fn=reference_trajectory,
                  kwargs=dict(name=name, mode=mode, params=params,
                              seed=config.seed, shards=config.shards))
        for name, mode in pairs])

    # Phase 2 — every crash point of every sweep, one task each.
    point_tasks = []
    crash_ats: Dict[Tuple, float] = {}
    for name, mode in pairs:
        _digests, horizon = references[(name, mode)]
        for i, crash_at in enumerate(
                _crash_times(config, name, mode, horizon)):
            crash_ats[(name, mode, i)] = crash_at
            point_tasks.append(SweepTask(
                key=(name, mode, i), fn=run_crash_point,
                kwargs=dict(name=name, mode=mode, params=params,
                            seed=config.seed, crash_at=crash_at,
                            shards=config.shards)))
    point_results = {r.key: r for r in executor.map(point_tasks)}

    # Phase 3 — fault-class scenarios.
    scenario_results: Dict[str, "TaskResult"] = {}
    if config.fault_scenarios:
        scenario_results = {r.key[0]: r for r in executor.map([
            SweepTask(key=(label,), fn=run_fault_scenario,
                      kwargs=dict(label=label, kind=kind,
                                  spec_kwargs=dict(spec_kwargs),
                                  bmos=bmos, config=config))
            for label, kind, spec_kwargs, bmos, _note
            in FAULT_SCENARIOS])}

    # Assembly — strictly in sweep order, never completion order.
    for name in config.workloads:
        entry: Dict = {"modes": {}}
        report["workloads"][name] = entry
        reference: Optional[Dict[int, str]] = None
        for mode in config.modes:
            digests, horizon = references[(name, mode)]
            if reference is None:
                reference = digests
            elif digests != reference:
                violations.append({
                    "workload": name, "mode": mode,
                    "kind": "mode-divergence",
                    "detail": "reference trajectory differs from "
                              f"{config.modes[0]}",
                })
            points = []
            for i in range(config.points):
                crash_at = crash_ats[(name, mode, i)]
                outcome = point_results[(name, mode, i)]
                if not outcome.ok:
                    record = {"crash_at": crash_at, "mode": mode,
                              "result": "failed:" +
                              outcome.error.split(":", 1)[0],
                              "error": outcome.error}
                else:
                    record = outcome.value
                record["point"] = i
                if record["result"] == "recovered":
                    expected = digests.get(record["committed"])
                    record["digest_ok"] = record["digest"] == expected
                    for flag, kind in ((record["digest_ok"],
                                        "digest-mismatch"),
                                       (record["prefix_ok"],
                                        "commit-gap"),
                                       (record["scrub"]["clean"],
                                        "scrub-dirty")):
                        if not flag:
                            violations.append({
                                "workload": name, "mode": mode,
                                "point": i, "kind": kind,
                                "crash_at": crash_at,
                            })
                else:
                    # No faults are injected in the main sweep, so a
                    # rejection here is itself a violation; a point
                    # whose *simulation* failed (the task raised or
                    # its worker died, after retries) is one too.
                    violations.append({
                        "workload": name, "mode": mode, "point": i,
                        "kind": "point-failed"
                        if record["result"].startswith("failed:")
                        else "recovery-rejected",
                        "detail": record.get("error", ""),
                        "crash_at": crash_at,
                    })
                points.append(record)
            entry["modes"][mode] = {
                "horizon_ns": horizon,
                "reference_digests": {str(k): v
                                      for k, v in digests.items()},
                "points": points,
            }

    if config.fault_scenarios:
        for label, _kind, _spec_kwargs, _bmos, note in FAULT_SCENARIOS:
            outcome = scenario_results[label]
            if not outcome.ok:
                record = {"label": label,
                          "result": "failed:" +
                          outcome.error.split(":", 1)[0],
                          "error": outcome.error,
                          "accounted": False}
                violations.append({
                    "kind": "scenario-failed", "scenario": label,
                    "detail": outcome.error,
                })
            else:
                record = outcome.value
            record["note"] = note
            report["fault_scenarios"].append(record)
            if record.get("silent"):
                violations.append({
                    "kind": "silent-fault",
                    "scenario": label,
                    "detail": "injected fault produced a divergent "
                              "digest with no detection evidence",
                })

    return close_out(report, summarise(report), "harness.crashtest",
                     "crash_points")


def summarise(report: Dict) -> Dict:
    points = 0
    recovered = 0
    rejected = 0
    injected = 0
    for entry in report["workloads"].values():
        for mode_entry in entry["modes"].values():
            for record in mode_entry["points"]:
                points += 1
                if record["result"] == "recovered":
                    recovered += 1
                else:
                    rejected += 1
    accounted = sum(1 for s in report["fault_scenarios"]
                    if s.get("accounted"))
    for scenario in report["fault_scenarios"]:
        injected += len(scenario.get("injected", []))
    return {
        "crash_points": points,
        "recovered": recovered,
        "rejected": rejected,
        "fault_scenarios": len(report["fault_scenarios"]),
        "faults_injected": injected,
        "scenarios_accounted": accounted,
        "violations": len(report["violations"]),
    }


# -- report close-out (shared with the soak campaign) ------------------------
def close_out(report: Dict, summary: Dict, component: str,
              count: str) -> Dict:
    """Seal a campaign report: attach ``summary``, then log every
    violation and ``campaign.done`` with the summary's ``count``."""
    report["summary"] = summary
    violations = report["violations"]
    for violation in violations:
        runlog.event(component, "violation", level="error", **violation)
    runlog.event(component, "campaign.done", **{count: summary[count]},
                 violations=len(violations))
    return report


def violation_lines(report: Dict, all_clear: str) -> List[str]:
    """The closing block of a campaign's text summary: each violation
    as one JSON line, or the ``all_clear`` invariant statement."""
    violations = report["violations"]
    if not violations:
        return ["  invariants: " + all_clear]
    return [f"  VIOLATIONS: {len(violations)}"] + [
        "    " + json.dumps(violation, sort_keys=True)
        for violation in violations]


def render_summary(report: Dict) -> str:
    summary = report["summary"]
    lines = [
        f"crashtest: {summary['crash_points']} crash points "
        f"({summary['recovered']} recovered, "
        f"{summary['rejected']} rejected)",
        f"  fault scenarios: {summary['fault_scenarios']} "
        f"({summary['faults_injected']} faults injected, "
        f"{summary['scenarios_accounted']} accounted)",
    ]
    for scenario in report["fault_scenarios"]:
        status = "ok" if scenario.get("accounted") else "SILENT"
        lines.append(f"    {scenario['label']:28s} "
                     f"{scenario['result']:32s} {status}")
    lines += violation_lines(report, "all crash points recovered onto "
                             "a committed boundary; no silent faults")
    return "\n".join(lines)
