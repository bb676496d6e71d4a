"""Seeded stateful fuzzing over the Janus API and workload kernels
(``repro fuzz``).

Pipeline:

1. **Generate** — :func:`generate_cases` derives a deterministic case
   list from one root seed: ``api`` cases (random op sequences over
   the :mod:`repro.validate.oracles` vocabulary — stale hints, split
   requests, thread clears, swaps) and ``workload`` cases (small
   kernels run serialized-vs-janus to a recovered digest).
2. **Execute** — every case runs under the
   :class:`~repro.validate.invariants.InvariantChecker` *and* the
   differential oracles; any ``InvariantViolation``, any
   ``OracleMismatch``, and any unexpected exception is a failure.
   Cases shard across worker processes via
   :mod:`repro.harness.parallel`; results merge in submission order,
   so the report is byte-identical at any job count.
3. **Reduce** — failing ``api`` cases go through a delta-debugging
   (ddmin-style) pass that removes op chunks while the same failure
   class reproduces, yielding a minimal deterministic repro.
4. **Report** — minimized repros land in ``results/FUZZ_<date>/`` as
   ``repro_<NNN>.json`` (replayable with ``repro fuzz --replay``),
   plus a ``fuzz_report.json`` summary.  File *content* carries no
   timestamps, so identical seeds produce byte-identical repros.
"""

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.rng import DeterministicRng
from repro.harness.parallel import ParallelExecutor, SweepTask
from repro.harness.report import RESULTS_DIR, dated_path, write_json
from repro.obs import log as runlog
from repro.validate.invariants import InvariantViolation
from repro.validate.oracles import (
    PALETTE,
    OracleMismatch,
    check_mode_equivalence,
    check_workload_equivalence,
)

SCHEMA_REPRO = "repro-fuzz-repro-v1"
SCHEMA_REPORT = "repro-fuzz-report-v1"
#: Workload kernels mixed into the default case diet (small, fast,
#: structurally diverse).
DEFAULT_WORKLOADS = ("array_swap", "queue", "hash_table")
#: Cases per worker-process batch (amortizes fork cost).
BATCH = 4

#: Candidate-mode rotation for differential cases: every api/workload
#: case diffs one of these against the serialized reference, cycling
#: by case ordinal, so even a ``--quick`` (12-case) campaign covers
#: the relaxed ``coalesced``/``async-epoch`` modes alongside janus.
MODE_ROTATION = (("janus",), ("coalesced",), ("async-epoch",))

#: Op kinds with generation weights.  ``stale`` and ``split`` are
#: over-represented on purpose: they exercise IRB invalidation and
#: merge re-filing, the §4.3.1 hazards.
_OP_WEIGHTS = (
    ("store", 18), ("hinted", 18), ("stale", 14), ("split", 14),
    ("addr", 10), ("data", 10), ("clear", 6), ("swap", 5),
    ("compute", 5),
)


@dataclass
class FuzzCase:
    """One deterministic fuzz input (JSON round-trippable)."""

    kind: str            # "api" | "workload"
    seed: int
    ops: List[tuple] = field(default_factory=list)  # api cases only
    params: Dict = field(default_factory=dict)

    def to_dict(self) -> Dict:
        return {"kind": self.kind, "seed": self.seed,
                "ops": [list(op) for op in self.ops],
                "params": dict(self.params)}

    @classmethod
    def from_dict(cls, data: Dict) -> "FuzzCase":
        return cls(kind=data["kind"], seed=data["seed"],
                   ops=[tuple(op) for op in data.get("ops", [])],
                   params=dict(data.get("params", {})))


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------
def _pick_op(rng, n_lines: int) -> tuple:
    total = sum(w for _, w in _OP_WEIGHTS)
    roll = rng.randrange(total)
    for kind, weight in _OP_WEIGHTS:
        roll -= weight
        if roll < 0:
            break
    if kind == "stale":
        return ("stale", rng.randrange(n_lines),
                rng.randrange(len(PALETTE)), rng.randrange(len(PALETTE)))
    if kind == "clear":
        return ("clear",)
    if kind == "swap":
        lo = rng.randrange(n_lines)
        return ("swap", lo, min(n_lines, lo + 1 + rng.randrange(3)))
    if kind == "compute":
        return ("compute", 100 * (1 + rng.randrange(10)))
    return (kind, rng.randrange(n_lines), rng.randrange(len(PALETTE)))


def generate_api_case(seed: int, max_ops: int = 16,
                      n_lines: int = 8,
                      threads: int = 2) -> FuzzCase:
    """Two concurrent threads by default: one thread's pipeline
    commits land inside the other's pre-execution windows, so the
    invariant checker observes mid-flight IRB states that a
    single-threaded program would serialize away."""
    rng = DeterministicRng(seed).stream("fuzz-api")
    n_ops = 2 + rng.randrange(max(1, max_ops - 1))
    ops = [_pick_op(rng, n_lines) for _ in range(n_ops)]
    return FuzzCase(kind="api", seed=seed, ops=ops,
                    params={"n_lines": n_lines, "threads": threads})


def generate_cases(seed: int, count: int, max_ops: int = 16,
                   workloads: Sequence[str] = DEFAULT_WORKLOADS,
                   shards: int = 1) -> List[FuzzCase]:
    """The deterministic case list for one root seed.

    Diet: mostly ``api`` cases and one small ``workload`` kernel per
    7 (round-robin over ``workloads``; pass an empty sequence to
    disable).  Cases rotate their candidate mode through
    :data:`MODE_ROTATION`.

    ``shards != 1`` runs every differential case's *candidate* on an
    N-way sharded machine against the unsharded serialized reference
    (docs/sharding.md); the param is omitted at 1 so default repro
    files stay byte-identical to pre-sharding campaigns.
    """
    cases: List[FuzzCase] = []
    for index in range(count):
        case_seed = seed * 1_000_003 + index
        modes = MODE_ROTATION[index % len(MODE_ROTATION)]
        if workloads and index % 7 == 6:
            name = workloads[(index // 7) % len(workloads)]
            cases.append(FuzzCase(
                kind="workload", seed=case_seed,
                params={"workload": name, "txns": 5, "items": 10,
                        "modes": list(modes)}))
        else:
            case = generate_api_case(case_seed, max_ops=max_ops)
            case.params["modes"] = list(modes)
            cases.append(case)
        if shards != 1:
            cases[-1].params["shards"] = shards
    return cases


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------
def _jsonable(value):
    """Recursively coerce a failure payload to JSON-able types —
    oracle diffs carry raw line payloads (bytes) and tuples."""
    if isinstance(value, bytes):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _jsonable(item)
                for key, item in value.items()}
    return value


def _failure_from(error: BaseException) -> Dict:
    if isinstance(error, InvariantViolation):
        failure = {"class": "invariant"}
        failure.update(_jsonable(error.as_dict()))
        return failure
    if isinstance(error, OracleMismatch):
        return {"class": "oracle", "detail": error.detail,
                "diff": _jsonable(list(error.diff))}
    return {"class": "exception", "type": type(error).__name__,
            "detail": str(error)}


def failure_key(failure: Dict) -> Tuple:
    """Equivalence class used by the reducer: a trial input must fail
    the *same way* to count as a reproduction."""
    return (failure.get("class"), failure.get("invariant"),
            failure.get("type"))


def run_case(case: FuzzCase) -> Optional[Dict]:
    """Execute one case; returns a failure dict or ``None``."""
    shards = (case.params.get("shards", 1),)
    try:
        if case.kind == "api":
            check_mode_equivalence(
                case.ops,
                modes=tuple(case.params.get("modes", ("janus",))),
                n_lines=case.params.get("n_lines", 8),
                seed=case.seed % 1009, check=True,
                threads=case.params.get("threads", 1),
                shards=shards)
        elif case.kind == "workload":
            check_workload_equivalence(
                case.params["workload"], seed=case.seed % 1009,
                txns=case.params.get("txns", 5),
                items=case.params.get("items", 10), check=True,
                modes=tuple(case.params.get("modes", ("janus",))),
                shards=shards)
        else:
            raise ValueError(f"unknown case kind {case.kind!r}")
    except BaseException as error:  # noqa: BLE001 — classify, don't sink
        return _failure_from(error)
    return None


def run_batch(case_dicts: List[Dict]) -> List[Optional[Dict]]:
    """Worker entry point: one failure-or-None per case, in order."""
    return [run_case(FuzzCase.from_dict(data)) for data in case_dicts]


# ---------------------------------------------------------------------------
# delta-debugging reduction (api cases)
# ---------------------------------------------------------------------------
def reduce_case(case: FuzzCase, failure: Dict,
                max_runs: int = 400) -> Tuple[FuzzCase, int]:
    """Minimize an ``api`` case's op list while the same failure class
    reproduces (greedy ddmin: halving chunk sizes down to single ops).

    Returns ``(reduced_case, runs_used)``.  Deterministic: reduction
    order depends only on the op list, never on timing or job count.
    """
    if case.kind != "api":
        return case, 0
    target = failure_key(failure)
    ops = list(case.ops)
    runs = 0

    def still_fails(trial_ops: List[tuple]) -> bool:
        nonlocal runs
        if runs >= max_runs:
            return False
        runs += 1
        trial = FuzzCase(kind="api", seed=case.seed,
                         ops=list(trial_ops), params=dict(case.params))
        trial_failure = run_case(trial)
        return (trial_failure is not None
                and failure_key(trial_failure) == target)

    chunk = max(1, len(ops) // 2)
    while True:
        index = 0
        while index < len(ops):
            trial = ops[:index] + ops[index + chunk:]
            if trial and still_fails(trial):
                ops = trial
            else:
                index += chunk
        if chunk == 1:
            break
        chunk = max(1, chunk // 2)
    return FuzzCase(kind="api", seed=case.seed, ops=ops,
                    params=dict(case.params)), runs


# ---------------------------------------------------------------------------
# the driver
# ---------------------------------------------------------------------------
def run_fuzz(cases: int = 60, seed: int = 0, max_ops: int = 16,
             jobs: Optional[int] = None,
             workloads: Sequence[str] = DEFAULT_WORKLOADS,
             out_dir: Optional[str] = None, write: bool = True,
             progress=None, shards: int = 1,
             worker_fn: str = "repro.validate.fuzz:run_batch") -> Dict:
    """Run one fuzz campaign; returns the report dict.

    Deterministic contract: the report body and every repro file are
    byte-identical for the same ``(seed, cases, max_ops, workloads)``
    at any ``jobs`` count — sharding is merged in submission order and
    reduction happens in the parent.

    ``worker_fn`` names the batch runner resolved inside each worker
    process (``module:callable``, same contract as :func:`run_batch`).
    Mutation-testing harnesses point it at a wrapper that plants a
    bug before delegating — worker processes do not inherit the
    parent's monkeypatches.
    """
    runlog.event("validate.fuzz", "campaign.start", cases=cases,
                 seed=seed, max_ops=max_ops,
                 workloads=list(workloads))
    case_list = generate_cases(seed, cases, max_ops=max_ops,
                               workloads=workloads, shards=shards)
    batches = [case_list[i:i + BATCH]
               for i in range(0, len(case_list), BATCH)]
    tasks = [SweepTask(key=("fuzz", i), fn=worker_fn,
                       args=([c.to_dict() for c in batch],))
             for i, batch in enumerate(batches)]
    executor = ParallelExecutor(jobs=jobs, timeout_s=600.0,
                                progress=progress)
    results = executor.map(tasks)

    failures = []
    for batch_index, result in enumerate(results):
        if not result.ok:
            # The batch runner itself died (it classifies per-case
            # failures internally, so this is harness trouble).
            failures.append({
                "case": {"kind": "batch", "seed": seed,
                         "ops": [], "params": {"batch": batch_index}},
                "failure": {"class": "harness", "detail": result.error},
            })
            continue
        for offset, failure in enumerate(result.value):
            if failure is None:
                continue
            case = batches[batch_index][offset]
            failures.append({"case": case.to_dict(),
                             "failure": failure})

    repros = []
    for entry in failures:
        case = FuzzCase.from_dict(entry["case"]) \
            if entry["case"]["kind"] != "batch" else None
        if case is not None and case.kind == "api":
            reduced, runs = reduce_case(case, entry["failure"])
            entry["reduced"] = reduced.to_dict()
            entry["reduction_runs"] = runs
        repros.append(entry)

    for entry in repros:
        runlog.event("validate.fuzz", "case_failed", level="error",
                     kind=entry["case"]["kind"],
                     failure_class=entry["failure"].get("class"),
                     detail=entry["failure"].get("detail"))
    runlog.event("validate.fuzz", "campaign.done",
                 cases=len(case_list), failures=len(repros))
    report = {
        "schema": SCHEMA_REPORT,
        "seed": seed,
        "cases": len(case_list),
        "case_mix": _case_mix(case_list),
        "failures": len(repros),
        "repros": repros,
    }
    if write:
        directory = out_dir if out_dir is not None \
            else dated_path(RESULTS_DIR, "FUZZ")
        report["dir"] = directory
        for index, entry in enumerate(repros):
            write_json({"schema": SCHEMA_REPRO, **entry},
                       Path(directory) / f"repro_{index:03d}.json")
        write_json({k: v for k, v in report.items() if k != "dir"},
                   Path(directory) / "fuzz_report.json")
    return report


def _case_mix(case_list: List[FuzzCase]) -> Dict[str, int]:
    mix: Dict[str, int] = {}
    for case in case_list:
        mix[case.kind] = mix.get(case.kind, 0) + 1
    return mix


def replay(path: str) -> Optional[Dict]:
    """Re-run the (reduced, if present) case from a repro file;
    returns the fresh failure dict, or ``None`` if it no longer
    fails."""
    with open(path) as handle:
        payload = json.load(handle)
    case = FuzzCase.from_dict(payload.get("reduced") or payload["case"])
    return run_case(case)


def render_report(report: Dict) -> str:
    lines = [f"fuzz: {report['cases']} cases "
             f"(mix {report['case_mix']}), seed {report['seed']}: "
             f"{report['failures']} failure(s)"]
    for index, entry in enumerate(report["repros"]):
        failure = entry["failure"]
        case = entry.get("reduced", entry["case"])
        label = failure.get("invariant") or failure.get("type") \
            or failure.get("detail", "")
        lines.append(
            f"  repro_{index:03d}: {entry['case']['kind']} "
            f"[{failure['class']}] {label} "
            f"({len(case.get('ops', []))} ops after reduction)")
    return "\n".join(lines)
