"""Per-figure experiment drivers and the registry of figure names.

Every public driver regenerates one table or figure from the paper's
evaluation and returns a :class:`FigureResult` whose ``rendered`` text
carries the same rows/series the paper reports.  :data:`FIGURES` maps
each name ``repro figure`` accepts to its driver; the command renders
a list of names joined by one blank line, which is how
``results/experiments_full.txt`` is regenerated (see EXPERIMENTS.md).
The ``scale`` parameter trades fidelity for runtime (the committed
file uses 1.0; tests use smaller scales).

Every parameter sweep (fig9-fig14, the composition ablation) first
builds an *ordered* list of design-point specs, executes them through
:mod:`repro.harness.parallel` (``jobs`` worker processes — each point
is a sealed, seeded simulation), and then assembles rows **in spec
order**, so the rendered table is byte-identical at any job count.
"""

import dataclasses
from dataclasses import dataclass, field as dc_field
from typing import Callable, Dict, List, Optional, Tuple

from repro.bmo import build_pipeline
from repro.bmo.base import ExternalInput
from repro.common.config import DedupConfig, default_config
from repro.harness.parallel import ParallelExecutor, SweepTask
from repro.harness.report import Table, arithmetic_mean
from repro.harness.runner import (
    ExperimentResult,
    speedup_over,
)
from repro.janus.overhead import hardware_overhead_report
from repro.workloads import WorkloadParams
from repro.workloads.registry import SCALABLE_WORKLOADS, WORKLOADS

ALL_WORKLOADS = list(WORKLOADS)


@dataclass
class FigureResult:
    """Structured data + rendered text for one experiment."""

    name: str
    data: Dict = dc_field(default_factory=dict)
    rendered: str = ""

    def __str__(self) -> str:
        return self.rendered


def _params(scale: float, value_size: int = 64,
            dedup_ratio: float = 0.5) -> WorkloadParams:
    return WorkloadParams(
        n_items=32,
        value_size=value_size,
        n_transactions=max(4, int(24 * scale)),
        dedup_ratio=dedup_ratio,
    )


#: Worker entry point for every figure sweep (resolved in the worker).
_RUN_POINT = "repro.harness.runner:run_point"

#: ``(key, run_point kwargs)`` — the unit every sweep is built from.
PointSpec = Tuple[Tuple, Dict]


def _sweep_points(specs: List[PointSpec],
                  jobs: Optional[int] = None,
                  progress: Optional[Callable[[int, int, int], None]]
                  = None) -> Dict[Tuple, ExperimentResult]:
    """Run an ordered spec list; return ``key -> ExperimentResult``.

    A figure with missing points is useless, so a point that still
    fails after the executor's bounded retries raises (strict mode)
    rather than rendering a partial table.
    """
    tasks = [SweepTask(key=key, fn=_RUN_POINT, kwargs=kwargs)
             for key, kwargs in specs]
    executor = ParallelExecutor(jobs=jobs, progress=progress)
    return executor.map_values(tasks, strict=True)


# ---------------------------------------------------------------------------
# Table 1 — BMO catalogue
# ---------------------------------------------------------------------------

def table1_bmo_catalog() -> FigureResult:
    """The BMO catalogue with per-write extra latency (paper Table 1)."""
    cfg = default_config()
    lat = cfg.bmo_latencies
    rows = [
        ("Encryption", "security",
         f"{lat.counter_gen_ns + lat.aes_ns + lat.xor_ns:.0f} ns",
         "counter-mode (E1-E3)"),
        ("Integrity verification", "security",
         f"{cfg.integrity.height * lat.sha1_ns:.0f} ns",
         f"{cfg.integrity.height}-level Merkle tree"),
        ("Deduplication", "bandwidth",
         f"{lat.md5_ns + lat.dedup_lookup_ns:.0f} ns",
         "MD5 fingerprint + lookup"),
        ("ORAM", "security",
         "~1000 ns", "Path ORAM (O1-O3)"),
        ("Compression", "bandwidth",
         f"{lat.compression_ns:.0f} ns", "FPC/BDI class"),
        ("Error correction", "durability",
         f"{lat.ecc_ns:.0f} ns", "ECP class"),
        ("Wear-leveling", "durability",
         f"{lat.wear_leveling_ns:.0f} ns", "Start-Gap"),
    ]
    table = Table("Table 1: backend memory operations",
                  ["BMO", "type", "extra write latency", "mechanism"])
    for row in rows:
        table.add_row(*row)
    return FigureResult("table1", data={"rows": rows},
                        rendered=table.render())


# ---------------------------------------------------------------------------
# Fig. 3 — undo-log timeline (serialized / parallel / pre-executed)
# ---------------------------------------------------------------------------

def fig3_timeline() -> FigureResult:
    """Static schedules for one write's BMOs under the three designs."""
    cfg = default_config()
    pipeline = build_pipeline(cfg)
    units = cfg.janus.bmo_units
    serial = pipeline.graph.serial_schedule(pipeline.bmo_order)
    parallel = pipeline.graph.parallel_schedule(units=units)
    # Pre-execution: address- and data-dependent parts done early;
    # nothing remains at write time.
    pre_done = pipeline.graph.runnable_with(
        frozenset({ExternalInput.ADDR, ExternalInput.DATA}))
    remaining = pipeline.graph.parallel_schedule(units=units,
                                                 done=pre_done)
    lines = [
        "Fig. 3: BMO latency of one write on the critical path",
        f"(a) serialized : {serial.makespan:7.1f} ns",
        f"(b) parallelized: {parallel.makespan:7.1f} ns",
        f"(c) pre-executed: {remaining.makespan:7.1f} ns "
        "(inputs known early; work done off the critical path)",
        "",
        "parallel schedule:",
        parallel.render(),
    ]
    return FigureResult(
        "fig3",
        data={"serialized_ns": serial.makespan,
              "parallel_ns": parallel.makespan,
              "pre_executed_ns": remaining.makespan},
        rendered="\n".join(lines))


# ---------------------------------------------------------------------------
# Fig. 6 — dependency graph and classification
# ---------------------------------------------------------------------------

def fig6_dependency_graph() -> FigureResult:
    """Decomposition + external-dependency classification."""
    cfg = default_config()
    pipeline = build_pipeline(cfg)
    labels = pipeline.classification()
    table = Table("Fig. 6: sub-operation classification",
                  ["sub-op", "BMO", "latency (ns)", "deps", "external"])
    for name in pipeline.all_subops:
        op = pipeline.graph.subops[name]
        table.add_row(name, op.bmo, op.latency_ns,
                      ",".join(op.deps) or "-", labels[name])
    return FigureResult("fig6", data={"classification": labels},
                        rendered=table.render())


# ---------------------------------------------------------------------------
# Fig. 9 — multi-core speedups
# ---------------------------------------------------------------------------

def fig9_multicore(scale: float = 1.0,
                   core_counts=(1, 2, 4, 8),
                   workloads: Optional[List[str]] = None,
                   jobs: Optional[int] = None,
                   progress=None) -> FigureResult:
    """Speedup of parallelization and Janus over serialized."""
    workloads = workloads or ALL_WORKLOADS
    params = _params(scale)
    specs: List[PointSpec] = []
    for name in workloads:
        for cores in core_counts:
            for mode in ("serialized", "parallel", "janus"):
                specs.append(((name, cores, mode), dict(
                    workload=name, mode=mode, cores=cores,
                    params=params)))
    points = _sweep_points(specs, jobs=jobs, progress=progress)
    table = Table(
        "Fig. 9: speedup over the serialized design",
        ["workload", "cores", "parallelization", "pre-execution"])
    data: Dict = {}
    for name in workloads:
        for cores in core_counts:
            ser = points[(name, cores, "serialized")]
            par = points[(name, cores, "parallel")]
            jan = points[(name, cores, "janus")]
            s_par = speedup_over(ser, par)
            s_jan = speedup_over(ser, jan)
            data.setdefault(name, {})[cores] = (s_par, s_jan)
            table.add_row(name, cores, s_par, s_jan)
    for cores in core_counts:
        table.add_row(
            "avg", cores,
            arithmetic_mean([data[w][cores][0] for w in workloads]),
            arithmetic_mean([data[w][cores][1] for w in workloads]))
    return FigureResult("fig9", data=data, rendered=table.render())


# ---------------------------------------------------------------------------
# Fig. 10 — slowdown vs. non-blocking writeback
# ---------------------------------------------------------------------------

def fig10_ideal_comparison(scale: float = 1.0,
                           workloads: Optional[List[str]] = None,
                           jobs: Optional[int] = None,
                           progress=None) -> FigureResult:
    """Serialized and Janus slowdown over the ideal design, plus the
    fraction of writes whose BMOs were completely pre-executed."""
    workloads = workloads or ALL_WORKLOADS
    params = _params(scale)
    specs: List[PointSpec] = []
    for name in workloads:
        for mode in ("serialized", "janus", "ideal"):
            specs.append(((name, mode), dict(
                workload=name, mode=mode, params=params)))
    points = _sweep_points(specs, jobs=jobs, progress=progress)
    table = Table(
        "Fig. 10: slowdown over non-blocking writeback (ideal)",
        ["workload", "serialized", "janus", "fully pre-executed"])
    data: Dict = {}
    for name in workloads:
        ser = points[(name, "serialized")]
        jan = points[(name, "janus")]
        ideal = points[(name, "ideal")]
        slow_ser = ser.elapsed_ns / ideal.elapsed_ns
        slow_jan = jan.elapsed_ns / ideal.elapsed_ns
        full = (jan.stats.get("janus.fully_pre_executed", 0)
                / max(1, jan.stats.get("mc.writebacks", 1)))
        data[name] = {"serialized": slow_ser, "janus": slow_jan,
                      "fully_pre_executed": full}
        table.add_row(name, slow_ser, slow_jan, f"{full * 100:.1f}%")
    table.add_row(
        "avg",
        arithmetic_mean([d["serialized"] for d in data.values()]),
        arithmetic_mean([d["janus"] for d in data.values()]),
        f"{arithmetic_mean([d['fully_pre_executed'] for d in data.values()]) * 100:.1f}%")
    return FigureResult("fig10", data=data, rendered=table.render())


# ---------------------------------------------------------------------------
# Scheduling-mode comparison (coalesced / async-epoch extensions)
# ---------------------------------------------------------------------------

#: The four modes of the documented consistency contract
#: (``docs/scheduling-modes.md``); ``parallel``/``ideal`` are
#: oracle-only and stay out of the headline comparison.
CONTRACT_MODES = ("serialized", "coalesced", "async-epoch", "janus")


def modes_comparison(scale: float = 1.0,
                     jobs: Optional[int] = None,
                     progress=None) -> FigureResult:
    """Four-mode scheduling comparison across every workload.

    One row per workload: ns/transaction under each mode plus the
    speedup of each relaxed/pre-executing mode over the serialized
    baseline.  ``coalesced`` batches integrity-tree node charges
    across overlapping writebacks; ``async-epoch`` defers durability
    to epoch close (bounded by the staleness dial); ``janus`` is the
    paper's pre-execution design.
    """
    modes, workloads = CONTRACT_MODES, ALL_WORKLOADS
    params = _params(scale)
    specs: List[PointSpec] = []
    for name in workloads:
        for mode in modes:
            specs.append(((name, mode), dict(
                workload=name, mode=mode, params=params)))
    points = _sweep_points(specs, jobs=jobs, progress=progress)
    header = ["workload"]
    header += [f"{m} ns/txn" for m in modes]
    header += [f"{m} speedup" for m in modes if m != "serialized"]
    table = Table(
        "Scheduling modes: ns/transaction and speedup over serialized",
        header)
    data: Dict = {}
    txns = params.n_transactions
    for name in workloads:
        ser = points[(name, "serialized")]
        row: List = [name]
        entry: Dict = {}
        for mode in modes:
            res = points[(name, mode)]
            ns_per_txn = res.elapsed_ns / max(1, txns)
            entry[mode] = {"elapsed_ns": res.elapsed_ns,
                           "ns_per_txn": ns_per_txn}
            row.append(ns_per_txn)
        for mode in modes:
            if mode == "serialized":
                continue
            s = speedup_over(ser, points[(name, mode)])
            entry[mode]["speedup"] = s
            row.append(s)
        data[name] = entry
        table.add_row(*row)
    avg_row: List = ["avg"]
    for mode in modes:
        avg_row.append(arithmetic_mean(
            [data[w][mode]["ns_per_txn"] for w in workloads]))
    for mode in modes:
        if mode == "serialized":
            continue
        avg_row.append(arithmetic_mean(
            [data[w][mode]["speedup"] for w in workloads]))
    table.add_row(*avg_row)
    return FigureResult("modes", data=data, rendered=table.render())


# ---------------------------------------------------------------------------
# Sharded-controller scaling sweep (docs/sharding.md)
# ---------------------------------------------------------------------------

#: Every scheduling mode — the sharded topology must honour all six
#: per-shard, so the sweep covers the full contract, not just the
#: headline four.
ALL_MODES = ("serialized", "parallel", "janus", "ideal",
             "coalesced", "async-epoch")

#: Cores per point of the sharded sweep (see :func:`shards_sweep`).
SHARDS_CORES = 4


def shards_sweep(scale: float = 1.0,
                 shards: Tuple[int, ...] = (1, 2, 4),
                 jobs: Optional[int] = None,
                 progress=None) -> FigureResult:
    """Speedup vs. shard count across every workload and mode.

    One row per ``(workload, mode)``: ns/transaction at each shard
    count plus the speedup of each sharded topology over ``shards=1``
    *within the same mode*.  Every point runs with the invariant
    checker attached (``check_invariants=True``), so a rendered table
    doubles as a ``--check``-clean certificate for the sharded
    machine.

    Four cores per point: channel parallelism only matters once the
    write stream is wide enough to queue, and the flush-bound
    ``async-epoch`` mode is where per-shard channel groups pay off.
    The strict modes are BMO-bound (the shared pipeline is the
    critical path), so their rows are expected to stay flat — an
    honest negative result the table reports rather than hides.
    """
    modes, workloads, cores = ALL_MODES, ALL_WORKLOADS, SHARDS_CORES
    params = _params(scale)
    specs: List[PointSpec] = []
    for name in workloads:
        for mode in modes:
            for n_shards in shards:
                specs.append(((name, mode, n_shards), dict(
                    workload=name, mode=mode,
                    cores=cores, params=params, shards=n_shards,
                    check_invariants=True)))
    points = _sweep_points(specs, jobs=jobs, progress=progress)
    base = shards[0]
    header = ["workload", "mode"]
    header += [f"s={n} ns/txn" for n in shards]
    header += [f"s={n} speedup" for n in shards if n != base]
    table = Table(
        f"Sharded controllers: ns/transaction and speedup over "
        f"shards={base} ({cores} cores, invariants checked)",
        header)
    data: Dict = {}
    txns = params.n_transactions
    for name in workloads:
        for mode in modes:
            ref = points[(name, mode, base)]
            row: List = [name, mode]
            entry: Dict = {}
            for n_shards in shards:
                res = points[(name, mode, n_shards)]
                entry[n_shards] = {
                    "elapsed_ns": res.elapsed_ns,
                    "ns_per_txn": res.elapsed_ns / max(1, txns),
                }
                row.append(entry[n_shards]["ns_per_txn"])
            for n_shards in shards:
                if n_shards == base:
                    continue
                s = speedup_over(ref, points[(name, mode, n_shards)])
                entry[n_shards]["speedup"] = s
                row.append(s)
            data[(name, mode)] = entry
            table.add_row(*row)
    for mode in modes:
        avg_row: List = ["avg", mode]
        for n_shards in shards:
            avg_row.append(arithmetic_mean(
                [data[(w, mode)][n_shards]["ns_per_txn"]
                 for w in workloads]))
        for n_shards in shards:
            if n_shards == base:
                continue
            avg_row.append(arithmetic_mean(
                [data[(w, mode)][n_shards]["speedup"]
                 for w in workloads]))
        table.add_row(*avg_row)
    # JSON-friendly data keys ("workload/mode" instead of a tuple).
    flat = {f"{w}/{m}": {str(n): v for n, v in entry.items()}
            for (w, m), entry in data.items()}
    return FigureResult("shards", data=flat, rendered=table.render())


# ---------------------------------------------------------------------------
# Fig. 11 — manual vs. automated instrumentation
# ---------------------------------------------------------------------------

def fig11_compiler(scale: float = 1.0,
                   workloads: Optional[List[str]] = None,
                   jobs: Optional[int] = None,
                   progress=None) -> FigureResult:
    """Manual vs. compiler-pass instrumentation speedups.

    The profile-guided column is the §6 dynamic-analysis extension
    (not a paper bar; it shows how much of the static pass's gap
    runtime information recovers).
    """
    workloads = workloads or ALL_WORKLOADS
    params = _params(scale)
    variants = ("manual", "auto", "profile")
    specs: List[PointSpec] = []
    for name in workloads:
        specs.append(((name, "serialized"), dict(
            workload=name, mode="serialized", params=params)))
        for variant in variants:
            specs.append(((name, variant), dict(
                workload=name, mode="janus", variant=variant,
                params=params)))
    points = _sweep_points(specs, jobs=jobs, progress=progress)
    table = Table(
        "Fig. 11: Janus speedup, manual vs. automated instrumentation",
        ["workload", "manual", "auto", "profile-guided", "auto/manual"])
    data: Dict = {}
    for name in workloads:
        ser = points[(name, "serialized")]
        data[name] = {variant: speedup_over(ser, points[(name, variant)])
                      for variant in variants}
        row = data[name]
        table.add_row(name, row["manual"], row["auto"], row["profile"],
                      row["auto"] / row["manual"])
    means = {variant: arithmetic_mean([d[variant] for d in data.values()])
             for variant in variants}
    table.add_row("avg", means["manual"], means["auto"],
                  means["profile"], means["auto"] / means["manual"])
    return FigureResult("fig11", data=data, rendered=table.render())


# ---------------------------------------------------------------------------
# Fig. 12 — deduplication ratios and fingerprint algorithms
# ---------------------------------------------------------------------------

#: Fig. 12's dedup ratios and fingerprint algorithms (paper §5.2.4).
DEDUP_RATIOS = (0.25, 0.5, 0.75)
FINGERPRINTS = ("md5", "crc32")


def fig12_dedup(scale: float = 1.0,
                jobs: Optional[int] = None,
                progress=None) -> FigureResult:
    """Janus speedup under different dedup ratios and algorithms."""
    rows = [(name, algorithm, ratio) for name in ALL_WORKLOADS
            for algorithm in FINGERPRINTS for ratio in DEDUP_RATIOS]
    specs: List[PointSpec] = []
    for name, algorithm, ratio in rows:
        cfg = default_config()
        cfg = cfg.replace(dedup=DedupConfig(
            target_ratio=ratio, algorithm=algorithm))
        params = _params(scale, dedup_ratio=ratio)
        for mode in ("serialized", "janus"):
            specs.append(((name, algorithm, ratio, mode), dict(
                workload=name, mode=mode, params=params, config=cfg)))
    points = _sweep_points(specs, jobs=jobs, progress=progress)
    table = Table(
        "Fig. 12: Janus speedup vs. dedup ratio and fingerprint",
        ["workload", "algorithm", "ratio", "speedup"])
    data: Dict = {}
    for name, algorithm, ratio in rows:
        speedup = speedup_over(
            points[(name, algorithm, ratio, "serialized")],
            points[(name, algorithm, ratio, "janus")])
        data.setdefault(name, {})[(algorithm, ratio)] = speedup
        table.add_row(name, algorithm, ratio, speedup)
    return FigureResult("fig12", data=data, rendered=table.render())


# ---------------------------------------------------------------------------
# Fig. 13 — transaction size sweep
# ---------------------------------------------------------------------------

#: Fig. 13's transaction update sizes in bytes (paper §5.2.5).
UPDATE_SIZES = (64, 256, 1024, 4096, 8192)


def fig13_transaction_size(scale: float = 1.0,
                           jobs: Optional[int] = None,
                           progress=None) -> FigureResult:
    """Parallelization and pre-execution speedups vs. update size
    (the five scalable workloads; TATP/TPCC keep their semantics)."""
    specs: List[PointSpec] = []
    for name in SCALABLE_WORKLOADS:
        for size in UPDATE_SIZES:
            params = WorkloadParams(
                n_items=8, value_size=size,
                n_transactions=max(3, int(8 * scale)))
            for mode in ("serialized", "parallel", "janus"):
                specs.append(((name, size, mode), dict(
                    workload=name, mode=mode, params=params)))
    points = _sweep_points(specs, jobs=jobs, progress=progress)
    table = Table(
        "Fig. 13: speedup vs. transaction update size",
        ["workload", "size (B)", "parallelization", "pre-execution"])
    data: Dict = {}
    for name in SCALABLE_WORKLOADS:
        for size in UPDATE_SIZES:
            ser = points[(name, size, "serialized")]
            par = points[(name, size, "parallel")]
            jan = points[(name, size, "janus")]
            s_par = speedup_over(ser, par)
            s_jan = speedup_over(ser, jan)
            data.setdefault(name, {})[size] = (s_par, s_jan)
            table.add_row(name, size, s_par, s_jan)
    return FigureResult("fig13", data=data, rendered=table.render())


# ---------------------------------------------------------------------------
# Fig. 14 — BMO unit / buffer scaling
# ---------------------------------------------------------------------------

def _fig14_label_config(resource_scale):
    cfg = default_config()
    if resource_scale is None:
        janus_cfg = dataclasses.replace(
            cfg.janus, unlimited_resources=True)
        label = "unlimited"
    else:
        janus_cfg = dataclasses.replace(
            cfg.janus, resource_scale=resource_scale)
        label = f"{resource_scale}x"
    return label, cfg.replace(janus=janus_cfg)


def fig14_resources(scale: float = 1.0,
                    scales=(1, 2, 4, None),
                    value_size: int = 8192,
                    workloads: Optional[List[str]] = None,
                    jobs: Optional[int] = None,
                    progress=None) -> FigureResult:
    """Janus speedup with 1x/2x/4x/unlimited pre-execution resources
    at a fixed large transaction size.  The serialized baseline keeps
    the default hardware (the paper scales only Janus's resources)."""
    workloads = workloads or SCALABLE_WORKLOADS
    params = WorkloadParams(n_items=8, value_size=value_size,
                            n_transactions=max(3, int(6 * scale)))
    specs: List[PointSpec] = []
    for name in workloads:
        specs.append(((name, "serialized"), dict(
            workload=name, mode="serialized", params=params)))
        for resource_scale in scales:
            label, cfg = _fig14_label_config(resource_scale)
            specs.append(((name, label), dict(
                workload=name, mode="janus", params=params,
                config=cfg)))
    points = _sweep_points(specs, jobs=jobs, progress=progress)
    table = Table(
        "Fig. 14: Janus speedup vs. BMO units and buffer entries",
        ["workload", "resources", "speedup"])
    data: Dict = {}
    for name in workloads:
        baseline = points[(name, "serialized")]
        for resource_scale in scales:
            label, _cfg = _fig14_label_config(resource_scale)
            speedup = speedup_over(baseline, points[(name, label)])
            data.setdefault(name, {})[label] = speedup
            table.add_row(name, label, speedup)
    return FigureResult("fig14", data=data, rendered=table.render())


# ---------------------------------------------------------------------------
# Extra: BMO-composition sensitivity (which backend costs what)
# ---------------------------------------------------------------------------

#: The one workload the BMO-composition ablation runs.
COMPOSITION_WORKLOAD = "array_swap"


def bmo_composition(scale: float = 1.0,
                    jobs: Optional[int] = None,
                    progress=None) -> FigureResult:
    """Serialized cost and Janus recovery for growing BMO stacks.

    Not a paper figure — an ablation DESIGN.md calls out: it shows how
    each backend contributes to the write-path tax and how much of
    each contribution pre-execution wins back.
    """
    stacks = [
        ("encryption",),
        ("encryption", "integrity"),
        ("dedup", "encryption", "integrity"),
        ("dedup", "encryption", "integrity", "ecc"),
        ("wear_leveling", "dedup", "encryption", "integrity", "ecc"),
    ]
    params = _params(scale)
    specs: List[PointSpec] = []
    for stack in stacks:
        cfg = default_config(bmos=stack)
        for mode in ("serialized", "janus"):
            specs.append(((stack, mode), dict(
                workload=COMPOSITION_WORKLOAD, mode=mode,
                params=params, config=cfg)))
    points = _sweep_points(specs, jobs=jobs, progress=progress)
    table = Table(
        "BMO composition: serialized tax and Janus recovery",
        ["BMO stack", "serial BMO (ns)", "ns/txn serialized",
         "ns/txn janus", "janus speedup"])
    data: Dict = {}
    for stack in stacks:
        cfg = default_config(bmos=stack)
        ser = points[(stack, "serialized")]
        jan = points[(stack, "janus")]
        serial_ns = build_pipeline(cfg).serial_latency()
        speedup = speedup_over(ser, jan)
        data["+".join(stack)] = {
            "serial_bmo_ns": serial_ns,
            "serialized_ns_per_txn": ser.ns_per_transaction,
            "janus_ns_per_txn": jan.ns_per_transaction,
            "speedup": speedup,
        }
        table.add_row("+".join(stack), serial_ns,
                      ser.ns_per_transaction, jan.ns_per_transaction,
                      speedup)
    return FigureResult("bmo_composition", data=data,
                        rendered=table.render())


# ---------------------------------------------------------------------------
# §5.2.7 — hardware overhead
# ---------------------------------------------------------------------------

def overhead_analysis() -> FigureResult:
    """Storage and area overhead of the Janus hardware."""
    report = hardware_overhead_report()
    rendered = "Section 5.2.7: hardware overhead\n" + \
        "\n".join(report.lines())
    return FigureResult("overhead", data=dataclasses.asdict(report),
                        rendered=rendered)


# ---------------------------------------------------------------------------
# The registry ``repro figure`` reads
# ---------------------------------------------------------------------------

def _static(driver: Callable[[], FigureResult]
            ) -> Callable[..., FigureResult]:
    """A driver that simulates nothing, under the sweeps' calling
    convention: it has no points to scale or shard."""
    return lambda scale=1.0, jobs=None, progress=None: driver()


#: Every figure name ``repro figure`` accepts and its driver, each
#: called as ``driver(scale=S, jobs=N, progress=P)``.
FIGURES: Dict[str, Callable[..., FigureResult]] = {
    "table1": _static(table1_bmo_catalog),
    "fig3": _static(fig3_timeline),
    "fig6": _static(fig6_dependency_graph),
    "fig9": fig9_multicore,
    "fig10": fig10_ideal_comparison,
    "fig11": fig11_compiler,
    "fig12": fig12_dedup,
    "fig13": fig13_transaction_size,
    "fig14": fig14_resources,
    "composition": bmo_composition,
    "modes": modes_comparison,
    "shards": shards_sweep,
    "overhead": _static(overhead_analysis),
}
