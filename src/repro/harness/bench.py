"""Wall-clock performance benchmark harness (``repro bench``).

The simulator's *simulated* write latencies are the paper's subject;
this harness tracks the *host* cost of simulating them, so that perf
regressions in the hot write path (IRB lookups, metric accounting,
event dispatch) are caught by CI instead of silently accumulating.

Three parts:

* **Workload benches** — run every tier-1 workload under Janus mode
  and record wall-clock seconds, host time per simulated transaction,
  dispatched simulator events/sec, and simulated-ns advanced per
  wall-second.
* **IRB microbenchmark** — drive the indexed
  :class:`~repro.janus.irb.IntermediateResultBuffer` and the
  linear-scan reference (:class:`~repro.janus.irb_linear.LinearScanIrb`)
  with an identical high-occupancy operation stream and report the
  indexed/linear speedup.  This ratio is host-speed-independent.
* **Calibration** — a fixed pure-Python loop timed on the same host.
  Cross-machine comparisons (CI versus the machine that produced the
  committed baseline) normalise host time per transaction by the
  calibration score, so the regression gate measures the *code*, not
  the hardware.

Reports are JSON (``schema: repro-bench-v1``), written as
``BENCH_<date>.json`` under ``benchmarks/perf/`` — the repo's perf
trajectory.  :func:`compare` diffs two reports and returns the
regressions beyond a threshold.
"""

import datetime
import glob
import json
import os
import platform
import sys
import time
from typing import Dict, List, Optional, Tuple

from repro.common.config import default_config
from repro.common.rng import DeterministicRng
from repro.core import NvmSystem
from repro.janus.irb import IntermediateResultBuffer, IrbEntry
from repro.janus.irb_linear import LinearScanIrb
from repro.sim import Simulator
from repro.workloads import WORKLOADS, WorkloadParams, make_workload

BENCH_SCHEMA = "repro-bench-v1"
DEFAULT_DIR = os.path.join("benchmarks", "perf")
DEFAULT_THRESHOLD = 0.25
#: Acceptance floor for the indexed IRB's microbench speedup.
DEFAULT_MIN_IRB_SPEEDUP = 2.0


# -- calibration ---------------------------------------------------------
def calibrate(target_s: float = 0.05, repeats: int = 3) -> float:
    """Score this host: iterations/sec of a fixed dict-churn loop.

    The loop exercises the same primitive operations the simulator
    leans on (dict insert/lookup/delete, integer arithmetic), so the
    score tracks how fast this host runs *this kind* of Python.

    Best of ``repeats``: transient load only ever slows the loop
    down, so the fastest sample is the most faithful estimate of the
    host's steady speed.  A single sample can be depressed by a
    scheduler stall, which skews every normalised time/txn number
    derived from the report.
    """
    n = 10_000
    best = 0.0
    for _ in range(repeats):
        while True:
            start = time.perf_counter()
            table: Dict[int, int] = {}
            acc = 0
            for i in range(n):
                table[i & 1023] = i
                acc += table.get((i * 7) & 1023, 0)
                if i & 2047 == 0:
                    table.clear()
            elapsed = time.perf_counter() - start
            if elapsed >= target_s:
                break
            n *= 4
        best = max(best, n / elapsed)
    return best


# -- workload benches ----------------------------------------------------
def bench_workload(name: str, txns: int, mode: str = "janus",
                   cores: int = 1, repeats: int = 1) -> Dict:
    """Time one workload end to end; returns the best of ``repeats``."""
    best: Optional[Dict] = None
    for _ in range(repeats):
        cfg = default_config(mode=mode)
        cfg = cfg.replace(mode=mode, cores=cores)
        system = NvmSystem(cfg)
        params = WorkloadParams(n_transactions=txns)
        variant = "manual" if mode == "janus" else "baseline"
        workloads = [make_workload(name, system, core, params,
                                   variant=variant)
                     for core in system.cores]
        start = time.perf_counter()
        sim_ns = system.run_programs([w.run() for w in workloads])
        wall_s = time.perf_counter() - start
        events = system.sim.events
        sample = {
            "wall_s": wall_s,
            "sim_ns": sim_ns,
            "events": events,
            "events_per_sec": events / wall_s if wall_s else 0.0,
            "sim_ns_per_wall_s": sim_ns / wall_s if wall_s else 0.0,
            "transactions": sum(w.completed_transactions
                                for w in workloads),
        }
        if best is None or sample["wall_s"] < best["wall_s"]:
            best = sample
    return best


# -- IRB microbenchmark --------------------------------------------------
def _irb_op_stream(resident: int, ops: int, seed: int = 0
                   ) -> Tuple[List[Tuple], List[Tuple]]:
    """Deterministic (fill, mixed-op) streams for the IRB bench.

    The fill keeps ``resident`` entries live (distinct keys and lines,
    a few threads); the mixed stream is write-path-shaped: mostly
    ``match_write`` (hits and misses), with consume+reinsert churn and
    occasional line invalidations.
    """
    rng = DeterministicRng(seed).stream(f"bench:irb:{resident}:{ops}")
    threads = 4
    fill = []
    for i in range(resident):
        fill.append(("insert", i, i % threads, 64 * i, bytes([i & 0xFF]) * 64))
    mixed = []
    for _ in range(ops):
        roll = rng.random()
        i = rng.randrange(resident)
        thread = i % threads
        line = 64 * i
        if roll < 0.70:
            # match_write: ~half hits, half misses (wrong thread/line).
            if rng.random() < 0.5:
                mixed.append(("match", thread, line, b"\x00" * 64))
            else:
                mixed.append(("match", (thread + 1) % threads, line,
                              b"\x00" * 64))
        elif roll < 0.90:
            mixed.append(("churn", i, thread, line,
                          bytes([rng.randrange(256)]) * 64))
        else:
            mixed.append(("inval", line))
    return fill, mixed


def _drive_irb(irb, fill: List[Tuple], mixed: List[Tuple]) -> float:
    """Run the streams against ``irb``; returns mixed-phase seconds."""
    live = {}
    for op in fill:
        _, i, thread, line, data = op
        entry = IrbEntry(pre_id=i, thread_id=thread, transaction_id=0,
                         line_addr=line, data=data)
        live[i] = irb.insert(entry)
    start = time.perf_counter()
    for op in mixed:
        kind = op[0]
        if kind == "match":
            irb.match_write(op[1], op[2], op[3])
        elif kind == "churn":
            _, i, thread, line, data = op
            old = live.get(i)
            if old is not None:
                irb.consume(old)
            live[i] = irb.insert(
                IrbEntry(pre_id=i, thread_id=thread, transaction_id=0,
                         line_addr=line, data=data))
        else:  # inval
            irb.invalidate_line(op[1])
    return time.perf_counter() - start


def bench_irb_micro(resident: int = 384, ops: int = 4000,
                    seed: int = 0, repeats: int = 3) -> Dict:
    """Indexed vs linear-scan IRB on an identical op stream.

    ``resident`` keeps the buffer at high occupancy (the acceptance
    criterion asks for >= 256 live entries) so the linear scans pay
    their full O(n) cost per operation.
    """
    fill, mixed = _irb_op_stream(resident, ops, seed=seed)
    indexed_s = linear_s = float("inf")
    for _ in range(repeats):
        indexed_s = min(indexed_s, _drive_irb(
            IntermediateResultBuffer(Simulator(), capacity=2 * resident,
                                     max_age_ns=None),
            fill, mixed))
        linear_s = min(linear_s, _drive_irb(
            LinearScanIrb(Simulator(), capacity=2 * resident,
                          max_age_ns=None),
            fill, mixed))
    return {
        "resident_entries": resident,
        "ops": ops,
        "indexed_wall_s": indexed_s,
        "linear_wall_s": linear_s,
        "indexed_ops_per_sec": ops / indexed_s if indexed_s else 0.0,
        "linear_ops_per_sec": ops / linear_s if linear_s else 0.0,
        "speedup": linear_s / indexed_s if indexed_s else float("inf"),
    }


# -- the full report -----------------------------------------------------
def run_bench(quick: bool = False, seed: int = 0,
              workloads: Optional[List[str]] = None,
              jobs: int = 1, progress=None) -> Dict:
    """Run the whole suite and return a ``repro-bench-v1`` report.

    ``jobs`` shards the per-workload benches (each a sealed repeated
    run) across worker processes via :mod:`repro.harness.parallel`.
    The default stays 1 — this is a *timing* harness, and concurrent
    benches contend for cores, so the CI regression gate and the
    committed baselines always use ``jobs=1``; ``jobs>1`` is for
    quick exploratory sweeps where relative numbers suffice.
    """
    from repro.harness.parallel import ParallelExecutor, SweepTask

    names = list(workloads) if workloads else sorted(WORKLOADS)
    txns = 6 if quick else 24
    # Quick runs are short enough that a single sample is noisy on
    # shared CI runners; best-of-3 keeps the regression gate stable
    # (full runs are long enough for best-of-2).
    repeats = 3 if quick else 2
    executor = ParallelExecutor(jobs=jobs, progress=progress)
    results = executor.map_values(
        [SweepTask(key=(name,), fn="repro.harness.bench:bench_workload",
                   kwargs=dict(name=name, txns=txns, repeats=repeats))
         for name in names], strict=True)
    per_workload: Dict[str, Dict] = {
        name: results[(name,)] for name in names}
    micro = bench_irb_micro(
        resident=256 if quick else 384,
        ops=1500 if quick else 4000,
        seed=seed,
        repeats=2 if quick else 3)
    total_wall = sum(w["wall_s"] for w in per_workload.values())
    total_events = sum(w["events"] for w in per_workload.values())
    total_sim_ns = sum(w["sim_ns"] for w in per_workload.values())
    return {
        "schema": BENCH_SCHEMA,
        "meta": {
            "date": datetime.date.today().isoformat(),
            "quick": quick,
            "jobs": executor.jobs,
            "txns": txns,
            "python": platform.python_version(),
            "platform": platform.platform(),
            "calibration_ops_per_sec": calibrate(),
        },
        "workloads": per_workload,
        "irb_micro": micro,
        "totals": {
            "wall_s": total_wall,
            "events": total_events,
            "events_per_sec": (total_events / total_wall
                               if total_wall else 0.0),
            "sim_ns_per_wall_s": (total_sim_ns / total_wall
                                  if total_wall else 0.0),
        },
    }


# -- trajectory files ----------------------------------------------------
def bench_path(directory: str = DEFAULT_DIR,
               date: Optional[str] = None) -> str:
    date = date or datetime.date.today().isoformat()
    return os.path.join(directory, f"BENCH_{date}.json")


def find_baseline(directory: str = DEFAULT_DIR,
                  exclude: Optional[str] = None) -> Optional[str]:
    """Latest ``BENCH_*.json`` in ``directory`` other than ``exclude``.

    ``BENCH_<ISO-date>.json`` names sort chronologically.
    """
    paths = sorted(glob.glob(os.path.join(directory, "BENCH_*.json")))
    if exclude is not None:
        excluded = os.path.abspath(exclude)
        paths = [p for p in paths if os.path.abspath(p) != excluded]
    return paths[-1] if paths else None


def load_report(path: str) -> Dict:
    with open(path) as handle:
        report = json.load(handle)
    if report.get("schema") != BENCH_SCHEMA:
        raise ValueError(f"{path}: not a {BENCH_SCHEMA} report")
    return report


# -- regression gate -----------------------------------------------------
def _txn_cost(wall_s: float, transactions: int, report: Dict,
              calibrated: bool) -> Optional[float]:
    """Host time per simulated transaction, in calibration-loop
    iterations when ``calibrated`` (so hosts of different speed
    compare), else in seconds."""
    if not transactions:
        return None
    cost = wall_s / transactions
    if calibrated:
        cost *= report["meta"]["calibration_ops_per_sec"]
    return cost


def _workload_cost(report: Dict, workload: str,
                   calibrated: bool) -> Optional[float]:
    bench = report.get("workloads", {}).get(workload)
    if bench is None:
        return None
    return _txn_cost(bench["wall_s"], bench.get("transactions", 0),
                     report, calibrated)


def _total_cost(report: Dict, calibrated: bool) -> Optional[float]:
    wall_s = report.get("totals", {}).get("wall_s")
    if wall_s is None:
        return None
    transactions = sum(bench.get("transactions", 0)
                       for bench in report.get("workloads", {}).values())
    return _txn_cost(wall_s, transactions, report, calibrated)


#: Extra slack on per-workload checks over the aggregate threshold.
#: Individual workload samples are a fraction of a second of wall
#: clock; ±30% swings from shared-host noise are routine, so gating
#: each workload at the aggregate threshold made the gate flaky.
WORKLOAD_NOISE_ALLOWANCE = 0.15


def compare(baseline: Dict, current: Dict,
            threshold: float = DEFAULT_THRESHOLD) -> List[str]:
    """Regressions of ``current`` vs ``baseline`` beyond ``threshold``.

    Compares host time per simulated transaction (``wall_s /
    transactions``), normalised by each report's calibration score
    when both have one (so a slower CI host does not read as a code
    regression).  Events/sec is not gated: it rewards a design for
    dispatching more events, and doing the same work with fewer
    events would read as a slowdown.  A check fails when transaction
    throughput — the inverse of the cost — falls by more than its
    threshold, i.e. when the cost rises by more than
    ``t / (1 - t)``.  Two tiers:

    * the **total** across all workloads — where independent
      per-workload noise largely averages out — gates at
      ``threshold``;
    * each **individual workload** gates at ``threshold`` plus
      :data:`WORKLOAD_NOISE_ALLOWANCE`, catching a catastrophic
      single-workload regression that a healthy aggregate could hide.

    Returns human-readable descriptions; an empty list means the gate
    passes.
    """
    regressions: List[str] = []
    calibrated = bool(
        baseline.get("meta", {}).get("calibration_ops_per_sec")
        and current.get("meta", {}).get("calibration_ops_per_sec"))
    unit = ("normalised host time/txn" if calibrated
            else "host time/txn")
    workload_threshold = min(0.9, threshold + WORKLOAD_NOISE_ALLOWANCE)
    checks = [
        (workload, _workload_cost(baseline, workload, calibrated),
         _workload_cost(current, workload, calibrated),
         workload_threshold)
        for workload in sorted(baseline.get("workloads", {}))]
    checks.append(("total", _total_cost(baseline, calibrated),
                   _total_cost(current, calibrated), threshold))
    for name, base, cur, limit in checks:
        if base is None or cur is None or base <= 0:
            continue
        fall = 1.0 - base / cur
        if fall > limit:
            regressions.append(
                f"{name}: {unit} rose {cur / base - 1.0:.0%} "
                f"({base:.3g} -> {cur:.3g}; throughput fell {fall:.0%}, "
                f"threshold {limit:.0%})")
    return regressions


def render(report: Dict, baseline: Optional[Dict] = None) -> str:
    """Human-readable summary of one report (plus baseline deltas)."""
    lines = []
    meta = report["meta"]
    lines.append(f"repro bench — {meta['date']}"
                 f"{' (quick)' if meta.get('quick') else ''}  "
                 f"py{meta['python']}")
    lines.append(f"{'workload':12s} {'wall s':>8s} {'ms/txn':>8s} "
                 f"{'events':>9s} {'events/s':>10s} {'sim-ns/s':>12s}")
    for name in sorted(report["workloads"]):
        w = report["workloads"][name]
        ms_per_txn = 1e3 * (_workload_cost(report, name, False) or 0.0)
        lines.append(f"{name:12s} {w['wall_s']:8.3f} {ms_per_txn:8.3f} "
                     f"{w['events']:9d} "
                     f"{w['events_per_sec']:10,.0f} "
                     f"{w['sim_ns_per_wall_s']:12,.0f}")
    totals = report["totals"]
    ms_per_txn = 1e3 * (_total_cost(report, False) or 0.0)
    lines.append(f"{'TOTAL':12s} {totals['wall_s']:8.3f} "
                 f"{ms_per_txn:8.3f} {totals['events']:9d} "
                 f"{totals['events_per_sec']:10,.0f} "
                 f"{totals['sim_ns_per_wall_s']:12,.0f}")
    micro = report["irb_micro"]
    lines.append(
        f"irb micro ({micro['resident_entries']} resident, "
        f"{micro['ops']} ops): indexed "
        f"{micro['indexed_ops_per_sec']:,.0f} ops/s vs linear "
        f"{micro['linear_ops_per_sec']:,.0f} ops/s -> "
        f"{micro['speedup']:.1f}x")
    if baseline is not None:
        base_total = _total_cost(baseline, False)
        cur_total = _total_cost(report, False)
        if base_total and cur_total is not None:
            lines.append(
                f"vs baseline {baseline['meta']['date']}: total "
                f"host time/txn {cur_total / base_total:.2f}x (raw)")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:  # pragma: no cover
    """Allow ``python -m repro.harness.bench`` as a shortcut."""
    from repro.cli import main as cli_main
    return cli_main(["bench"] + list(argv or sys.argv[1:]))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
