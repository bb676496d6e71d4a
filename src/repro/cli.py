"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``figures``
    List the reproducible tables/figures.
``figure <name> [--scale S]``
    Regenerate one table/figure and print it (e.g. ``figure fig9``).
``run <workload> [point flags] [--shards N] [--trace T.json]
     [--stats S.json]``
    Simulate one design point and print timing + stats.  ``--trace``
    writes a Chrome trace-event (Perfetto) timeline of the run;
    ``--stats`` writes a full metrics snapshot.
``stats <a.json> [<b.json>]``
    Pretty-print one stats snapshot, or diff two (``b - a``).
``compare <workload> [...]``
    Run all four design points for a workload and print speedups.
``plan <workload> [--variant V]``
    Show the instrumentation plan (and the §6 window estimate).
``misuse <workload>``
    Run the workload under Janus and print the misuse report.
``scrub <workload> [point flags] [--crash-at T] [--faults K,K,...]
       [--seed S]``
    Run a workload on every core, pull the plug, recover, and print
    the recovery summary plus the :class:`ScrubReport` — optionally
    with seeded faults injected (see ``repro.faults.FAULT_KINDS``).
``crashtest [--quick] [--points N] [--workloads W,W] [--modes M,M]``
    The crash-point campaign: sweep seeded crash points per workload
    and mode, recover + scrub each, run the fault-class scenarios,
    write ``results/CRASHTEST_<date>.json``, and fail (exit 1) on any
    invariant violation (digest mismatch, commit gap, silent fault).
``soak [--quick] [--cycles N] [--workloads W,W] [--modes M,M]``
    The multi-cycle soak campaign: run -> crash -> recover ->
    invariant-check -> resume on the recovered image, N cycles per
    workload and mode, with per-cycle fault plans and media wear
    accumulating across cycles.  Writes ``results/SOAK_<date>.json``
    (byte-identical at any ``--jobs``) and fails (exit 1) on any
    violation: silent fault, broken recovery idempotence, digest
    mismatch, or lost committed work.
``fuzz [--cases N] [--seed S] [--quick] [--replay PATH]``
    Seeded stateful fuzzing (:mod:`repro.validate.fuzz`): random op
    sequences over the Janus API, IRB lockstep traces, and workload
    kernels, all run under the invariant checkers and differential
    oracles.  Failures are delta-debugged to minimal repros in
    ``results/FUZZ_<date>/``; ``--replay`` re-runs one repro file.
``profile <workload> [point flags] [--quick] [--out P.json]
        [--folded P.folded] [--top N]``
    Deterministic simulation profiler (:mod:`repro.obs.profile`):
    runs one design point with dispatch + span instrumentation and
    prints a ranked hotspot table.  ``--out`` writes the byte-stable
    report JSON; ``--folded`` writes speedscope-loadable folded
    stacks.
``chart <series.jsonl> [--metric M]``
    Plot one metric from a ``--timeseries`` JSONL file as an ASCII
    chart; with no ``--metric``, list the sampled metrics.

The point flags of ``run``, ``profile`` and ``scrub`` are one group
(``--txns --items --value-size --mode --variant --cores
--staleness-epochs --epoch-writes``), turned into the arguments of
:func:`repro.harness.crash_campaign.build`, the one builder of a
design point; ``compare`` and ``misuse`` take its workload and size
flags.  ``run`` and ``profile`` accept ``--timeseries N`` (snapshot
all metrics every N sim-ns into ``--timeseries-out``, byte-identical
across repeat runs) and — like ``scrub``, ``crashtest``, and
``fuzz`` — ``--log PATH`` (or ``$REPRO_LOG``) for a structured JSONL
run log (:mod:`repro.obs.log`).

The sweep commands (``figure``, ``crashtest``, ``soak``, ``fuzz``)
accept ``--jobs N`` to shard their independent simulation points
across worker processes (:mod:`repro.harness.parallel`); output is
byte-identical at any job count.  ``$REPRO_JOBS`` sets the default.
"""

import argparse
import json
import os
import sys

from repro.common.config import SchedulingConfig, ShardingError, \
    SystemConfig, default_config
from repro.harness import experiments
from repro.harness.report import RESULTS_DIR, ReportOverwriteError, \
    Table, dated_path, ensure_parent, write_json, write_report_text
from repro.harness.runner import run_point, speedup_over
from repro.workloads import WORKLOADS, WorkloadParams

def _static(fn):
    """Adapt a no-sweep figure driver to the (scale, jobs, progress)
    calling convention — it has no point set to shard."""
    return lambda scale, jobs, progress: fn()


FIGURES = {
    "table1": _static(experiments.table1_bmo_catalog),
    "fig3": _static(experiments.fig3_timeline),
    "fig6": _static(experiments.fig6_dependency_graph),
    "fig9": lambda scale, jobs, progress: experiments.fig9_multicore(
        scale=scale, jobs=jobs, progress=progress),
    "fig10": lambda scale, jobs, progress:
        experiments.fig10_ideal_comparison(
            scale=scale, jobs=jobs, progress=progress),
    "fig11": lambda scale, jobs, progress: experiments.fig11_compiler(
        scale=scale, jobs=jobs, progress=progress),
    "fig12": lambda scale, jobs, progress: experiments.fig12_dedup(
        scale=scale, jobs=jobs, progress=progress),
    "fig13": lambda scale, jobs, progress:
        experiments.fig13_transaction_size(
            scale=scale, jobs=jobs, progress=progress),
    "fig14": lambda scale, jobs, progress:
        experiments.fig14_resources(
            scale=scale, jobs=jobs, progress=progress),
    "modes": lambda scale, jobs, progress:
        experiments.modes_comparison(
            scale=scale, jobs=jobs, progress=progress),
    "shards": lambda scale, jobs, progress:
        experiments.shards_sweep(
            scale=scale, jobs=jobs, progress=progress),
    "overhead": _static(experiments.overhead_analysis),
    "composition": lambda scale, jobs, progress:
        experiments.bmo_composition(
            scale=scale, jobs=jobs, progress=progress),
}


def _add_jobs_arg(parser) -> None:
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes for independent simulation points "
             "(default: $REPRO_JOBS, then the CPU count; 1 = inline, "
             "no processes).  Output is byte-identical at any job "
             "count.")


def _add_log_arg(parser) -> None:
    parser.add_argument(
        "--log", metavar="PATH", default=None,
        help="write a structured JSONL run log (repro.obs.log); "
             "$REPRO_LOG sets the default")


def _shard_count(text: str) -> int:
    """argparse type: one ``--shards`` value, put through the
    config's own sharding check so a bad count stops at parse time."""
    count = int(text)
    try:
        default_config(shards=count)
    except ShardingError as error:
        raise argparse.ArgumentTypeError(str(error))
    return count


def _shard_counts(text: str) -> tuple:
    """argparse type: a comma-separated list of shard counts."""
    return tuple(_shard_count(n) for n in text.split(",") if n.strip())


def _add_shards_arg(parser) -> None:
    parser.add_argument(
        "--shards", type=_shard_count, default=1, metavar="N",
        help="memory-controller shards (power of two; docs/"
             "sharding.md).  1 is the classic single-controller "
             "machine, bit for bit")


def _add_campaign_args(parser, quick: str, stem: str) -> None:
    """The flags crashtest and soak share; :func:`_run_campaign`
    applies them.  ``stem`` names the dated default report."""
    parser.add_argument("--quick", action="store_true", help=quick)
    parser.add_argument("--workloads", default=None, metavar="W,W",
                        help="comma-separated subset (default all)")
    parser.add_argument("--modes", default=None, metavar="M,M",
                        help="comma-separated modes to sweep (default "
                             "serialized,janus; any of "
                             + ",".join(SystemConfig.MODES) + ")")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--dir", default=RESULTS_DIR, metavar="DIR",
                        help=f"report directory (default {RESULTS_DIR})")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help=f"report path (default "
                             f"DIR/{stem}_<date>.json)")
    parser.add_argument("--no-write", action="store_true",
                        help="do not write the report JSON")
    _add_shards_arg(parser)
    _add_jobs_arg(parser)
    _add_log_arg(parser)


def _add_timeseries_args(parser) -> None:
    parser.add_argument(
        "--timeseries", type=float, default=None, metavar="N",
        help="sample all metrics every N sim-ns into a "
             "byte-deterministic JSONL series (repro.obs.timeseries)")
    parser.add_argument(
        "--timeseries-out", metavar="PATH", default="timeseries.jsonl",
        help="where --timeseries writes its JSONL "
             "(default timeseries.jsonl; plot with `repro chart`)")


def _add_workload_args(parser) -> None:
    """The workload and its size: every command that runs one."""
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--txns", type=int, default=24)
    parser.add_argument("--items", type=int, default=32)
    parser.add_argument("--value-size", type=int, default=64)


def _add_point_args(parser) -> None:
    """The design-point flags ``run``, ``profile`` and ``scrub``
    share; :func:`_point_kwargs` turns them into builder arguments."""
    _add_workload_args(parser)
    parser.add_argument("--mode", default="janus",
                        choices=SystemConfig.MODES,
                        help="write-path scheduling mode; the per-mode "
                             "durability contract is "
                             "docs/scheduling-modes.md")
    parser.add_argument("--variant", default=None,
                        choices=("baseline", "manual", "auto"))
    parser.add_argument("--cores", type=int, default=1)
    parser.add_argument("--staleness-epochs", type=int, default=None,
                        metavar="N",
                        help="async-epoch only: max closed epochs "
                             "awaiting flush before writebacks stall "
                             "(default 2)")
    parser.add_argument("--epoch-writes", type=int, default=None,
                        metavar="N",
                        help="async-epoch only: buffered writes per "
                             "epoch (default 32)")


def _params(args) -> WorkloadParams:
    return WorkloadParams(n_items=args.items,
                          value_size=args.value_size,
                          n_transactions=args.txns)


def _point_kwargs(args) -> dict:
    """The :func:`_add_point_args` flags as keyword arguments of
    :func:`repro.harness.crash_campaign.build` (and ``run_point``)."""
    kwargs = dict(mode=args.mode, variant=args.variant,
                  cores=args.cores, params=_params(args))
    if args.staleness_epochs is not None or args.epoch_writes is not None:
        sched = SchedulingConfig()
        if args.staleness_epochs is not None:
            sched.staleness_epochs = args.staleness_epochs
        if args.epoch_writes is not None:
            sched.epoch_writes = args.epoch_writes
        kwargs["scheduling"] = sched
    return kwargs


def _progress_for(args, label):
    """A live progress callback when the sweep will actually fan out;
    ``None`` otherwise (inline runs stay silent on stderr)."""
    from repro.harness.parallel import progress_line, resolve_jobs
    if resolve_jobs(args.jobs) > 1:
        return progress_line(label)
    return None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Janus (ISCA'19) reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("figures", help="list reproducible figures")

    figure = sub.add_parser("figure", help="regenerate one figure")
    figure.add_argument("name", choices=sorted(FIGURES))
    figure.add_argument("--scale", type=float, default=0.5)
    figure.add_argument("--chart", action="store_true",
                        help="also render as bars (fig9/fig11)")
    figure.add_argument("--out", default=None, metavar="PATH",
                        help="also write the rendered figure to PATH "
                             "(parent directories are created; an "
                             "existing file is only overwritten when "
                             "it is a previous render of the same "
                             "figure)")
    figure.add_argument("--force", action="store_true",
                        help="overwrite --out even when the existing "
                             "file is not a previous render")
    figure.add_argument("--shards", default=None, metavar="N,N",
                        type=_shard_counts,
                        help="shard counts for the 'shards' figure "
                             "(comma-separated, default 1,2,4); "
                             "rejected for other figures")
    _add_jobs_arg(figure)

    run = sub.add_parser("run", help="simulate one design point")
    _add_point_args(run)
    _add_shards_arg(run)
    run.add_argument("--trace", metavar="PATH", default=None,
                     help="write a Perfetto-loadable Chrome trace-event"
                          " JSON timeline of the run")
    run.add_argument("--stats", metavar="PATH", default=None,
                     help="write the full metrics snapshot as JSON")
    run.add_argument("--digest", metavar="PATH", default=None,
                     help="after the run: crash, recover, and write "
                          "the recovered-structure digest as canonical "
                          "JSON (repro-digest-v1) — topology-blind, so "
                          "equivalent runs at any --shards width "
                          "produce identical bytes (docs/sharding.md)")
    run.add_argument("--check", action="store_true",
                     help="run the cross-layer invariant checkers "
                          "(repro.validate) after every BMO-pipeline "
                          "commit; exit 1 on any violation")
    run.add_argument("--prom", metavar="PATH", default=None,
                     help="write the final metrics snapshot in "
                          "Prometheus text exposition format")
    _add_timeseries_args(run)
    _add_log_arg(run)

    profile = sub.add_parser(
        "profile", help="deterministic simulation profiler")
    _add_point_args(profile)
    profile.add_argument("--quick", action="store_true",
                         help="CI-sized run (caps --txns at 8)")
    profile.add_argument("--out", metavar="PATH", default=None,
                         help="write the byte-stable profile report "
                              "JSON (repro-profile-v1)")
    profile.add_argument("--folded", metavar="PATH", default=None,
                         help="write folded stacks (speedscope / "
                              "flamegraph.pl format)")
    profile.add_argument("--top", type=int, default=12, metavar="N",
                         help="rows per hotspot table (default 12)")
    _add_timeseries_args(profile)
    _add_log_arg(profile)

    chart = sub.add_parser(
        "chart", help="ASCII-plot a --timeseries JSONL metric")
    chart.add_argument("series", help="JSONL file from --timeseries")
    chart.add_argument("--metric", default=None, metavar="M",
                       help="metric to plot (omit to list)")
    chart.add_argument("--width", type=int, default=60)
    chart.add_argument("--height", type=int, default=12)

    stats = sub.add_parser(
        "stats", help="pretty-print or diff stats snapshots")
    stats.add_argument("snapshot", help="stats JSON from `run --stats`")
    stats.add_argument("other", nargs="?", default=None,
                       help="second snapshot: print the diff "
                            "(other - snapshot)")

    compare = sub.add_parser("compare",
                             help="all four design points")
    _add_workload_args(compare)

    plan = sub.add_parser("plan", help="show instrumentation plan")
    plan.add_argument("workload", choices=sorted(WORKLOADS))
    plan.add_argument("--variant", default="auto",
                      choices=("manual", "auto"))

    misuse = sub.add_parser("misuse", help="misuse report for a run")
    _add_workload_args(misuse)
    misuse.add_argument("--variant", default="manual",
                        choices=("manual", "auto"))

    scrub = sub.add_parser(
        "scrub", help="crash, recover, and scrub one workload")
    _add_point_args(scrub)
    scrub.add_argument("--crash-at", type=float, default=None,
                       metavar="NS",
                       help="power-failure time in ns (default: 60%% "
                            "of the workload's full run)")
    scrub.add_argument("--faults", default=None, metavar="K,K",
                       help="comma-separated fault kinds to inject "
                            "(seeded plan; see repro.faults)")
    scrub.add_argument("--seed", type=int, default=7)
    _add_log_arg(scrub)

    crashtest = sub.add_parser(
        "crashtest", help="crash-point campaign + fault scenarios")
    _add_campaign_args(crashtest, "CI-sized: 2 workloads, 5 points",
                       "CRASHTEST")
    crashtest.add_argument("--points", type=int, default=None,
                           help="crash points per workload x mode "
                                "(default 20, or 5 with --quick)")
    crashtest.add_argument("--no-scenarios", action="store_true",
                           help="skip the fault-class scenarios")

    soak = sub.add_parser(
        "soak", help="multi-cycle crash/recover/resume soak campaign")
    _add_campaign_args(soak, "CI-sized: 2 workloads, 4 cycles", "SOAK")
    soak.add_argument("--cycles", type=int, default=None,
                      help="lifecycle cycles per workload x mode "
                           "(default 20, or 4 with --quick)")
    soak.add_argument("--no-oracle", action="store_true",
                      help="skip the per-crash-point idempotence "
                           "oracle (faster)")

    fuzz = sub.add_parser(
        "fuzz", help="seeded stateful fuzz under checkers + oracles")
    fuzz.add_argument("--cases", type=int, default=None, metavar="N",
                      help="cases to generate (default 60, or 12 "
                           "with --quick)")
    fuzz.add_argument("--seed", type=int, default=0)
    fuzz.add_argument("--max-ops", type=int, default=16, metavar="N",
                      help="max ops per generated api case")
    fuzz.add_argument("--quick", action="store_true",
                      help="CI-sized smoke campaign")
    fuzz.add_argument("--workloads", default=None, metavar="W,W",
                      help="workload kernels to mix in (default "
                           "array_swap,queue,hash_table; 'none' "
                           "disables)")
    fuzz.add_argument("--dir", default=None, metavar="DIR",
                      help="repro directory (default "
                           "results/FUZZ_<date>)")
    fuzz.add_argument("--no-write", action="store_true",
                      help="do not write repro/report files")
    fuzz.add_argument("--replay", default=None, metavar="PATH",
                      help="re-run a minimized repro file instead of "
                           "fuzzing")
    _add_shards_arg(fuzz)
    _add_jobs_arg(fuzz)
    _add_log_arg(fuzz)
    return parser


def cmd_figures(_args) -> int:
    for name in sorted(FIGURES):
        print(name)
    return 0


def cmd_figure(args) -> int:
    if args.shards is not None and args.name != "shards":
        print("--shards only applies to `repro figure shards`",
              file=sys.stderr)
        return 2
    if args.name == "shards" and args.shards is not None:
        result = experiments.shards_sweep(
            scale=args.scale, shards=args.shards, jobs=args.jobs,
            progress=_progress_for(args, "figure shards"))
    else:
        result = FIGURES[args.name](
            args.scale, args.jobs,
            _progress_for(args, f"figure {args.name}"))
    rendered = [result.rendered]
    print(result.rendered)
    if getattr(args, "chart", False):
        from repro.harness.plot import fig9_chart, fig11_chart
        chart = None
        if args.name == "fig9":
            chart = fig9_chart(result.data)
        elif args.name == "fig11":
            chart = fig11_chart(result.data)
        if chart is not None:
            print()
            print(chart)
            rendered.append("")
            rendered.append(chart)
    if args.out:
        try:
            write_report_text("\n".join(rendered), args.out,
                              force=args.force)
        except ReportOverwriteError as error:
            print(f"refusing: {error}", file=sys.stderr)
            return 2
        print(f"figure -> {args.out}")
    return 0


def _sampler(args):
    """The ``--timeseries`` sampler of a point command, or ``None``."""
    if not args.timeseries:
        return None
    from repro.obs import TimeSeriesSampler
    return TimeSeriesSampler(
        args.timeseries,
        meta={"workload": args.workload, "mode": args.mode,
              "cores": args.cores, "txns": args.txns})


def cmd_run(args) -> int:
    tracer = None
    if args.trace or args.timeseries:
        from repro.obs import Tracer
        tracer = Tracer(enabled=True)
    sampler = _sampler(args)
    try:
        result = run_point(args.workload, tracer=tracer,
                           sampler=sampler,
                           check_invariants=args.check,
                           shards=args.shards,
                           with_digest=args.digest is not None,
                           **_point_kwargs(args))
    except Exception as error:
        from repro.validate import InvariantViolation
        if not isinstance(error, InvariantViolation):
            raise
        print(f"INVARIANT VIOLATION [{error.layer}:{error.invariant}]"
              f" {error.detail}", file=sys.stderr)
        print(json.dumps(error.as_dict(), indent=2, sort_keys=True),
              file=sys.stderr)
        return 1
    print(f"{result.workload} mode={result.mode} "
          f"variant={result.variant} cores={result.cores}")
    if args.check:
        checks = result.stats.get("validate.checks", 0.0)
        print(f"  invariants: {checks:,.0f} checks, 0 violations")
    print(f"  elapsed {result.elapsed_ns:,.0f} ns for "
          f"{result.transactions} transactions "
          f"({result.ns_per_transaction:,.0f} ns/txn)")
    for key in sorted(result.stats):
        print(f"  {key:40s} {result.stats[key]:.2f}")
    if args.trace:
        from repro.obs import export_chrome_trace
        export_chrome_trace(tracer, path=ensure_parent(args.trace))
        print(f"  trace: {len(tracer)} events -> {args.trace} "
              f"(open in ui.perfetto.dev)")
    if args.stats:
        with open(ensure_parent(args.stats), "w") as handle:
            json.dump(result.snapshot, handle, indent=2, sort_keys=True)
        print(f"  stats snapshot -> {args.stats}")
    if args.digest:
        write_json({
            "schema": "repro-digest-v1",
            "workload": result.workload,
            "mode": result.mode,
            "variant": result.variant,
            "cores": result.cores,
            "transactions": result.transactions,
            "elapsed_ns": result.elapsed_ns,
            "digest": result.digest,
        }, args.digest)
        print(f"  recovered-structure digest -> {args.digest}")
    if sampler is not None:
        sampler.write_jsonl(args.timeseries_out)
        print(f"  timeseries: {len(sampler.samples)} samples every "
              f"{args.timeseries:,.0f} sim-ns -> {args.timeseries_out} "
              f"(plot with `repro chart`)")
    if args.prom:
        from repro.obs import prometheus_exposition
        with open(ensure_parent(args.prom), "w") as handle:
            handle.write(prometheus_exposition(result.snapshot))
        print(f"  prometheus exposition -> {args.prom}")
    return 0


def cmd_profile(args) -> int:
    from repro.obs import (
        SimProfiler,
        Tracer,
        profile_report,
        render_hotspots,
    )

    if args.quick:
        args.txns = min(args.txns, 8)
    tracer = Tracer(enabled=True)
    profiler = SimProfiler()
    sampler = _sampler(args)
    result = run_point(args.workload, tracer=tracer, profiler=profiler,
                       sampler=sampler, **_point_kwargs(args))
    report = profile_report(profiler, tracer, meta={
        "workload": result.workload, "mode": result.mode,
        "variant": result.variant, "cores": result.cores,
        "txns": args.txns, "elapsed_ns": result.elapsed_ns,
        "transactions": result.transactions})
    print(render_hotspots(report, profiler, top=args.top))
    if args.out:
        write_json(report, args.out)
        print(f"profile report -> {args.out}")
    if args.folded:
        with open(ensure_parent(args.folded), "w") as handle:
            handle.write(report["folded"])
        print(f"folded stacks -> {args.folded} "
              f"(load at speedscope.app)")
    if sampler is not None:
        sampler.write_jsonl(args.timeseries_out)
        print(f"timeseries -> {args.timeseries_out}")
    return 0


def cmd_chart(args) -> int:
    from repro.obs import timeseries as ts

    header, samples = ts.load_jsonl(args.series)
    if args.metric is None:
        meta = "  ".join(f"{k}={header[k]}" for k in sorted(header)
                         if k != "schema")
        print(f"{args.series}: {meta}")
        names = sorted({name for sample in samples
                        for name in sample["metrics"]})
        for name in names:
            print(f"  {name}")
        print("pick one with --metric")
        return 0
    print(ts.render_series(samples, args.metric,
                           width=args.width, height=args.height))
    return 0


def _render_snapshot(snap: dict) -> str:
    lines = []
    meta = snap.get("meta", {})
    if meta:
        lines.append("  ".join(f"{k}={meta[k]}" for k in sorted(meta)))
    for name in sorted(snap.get("counters", {})):
        lines.append(f"  {name:44s} {snap['counters'][name]}")
    for name in sorted(snap.get("histograms", {})):
        h = snap["histograms"][name]
        parts = [f"count={h.get('count', 0)}",
                 f"mean={h.get('mean', 0.0):.1f}"]
        if "p95" in h:
            parts.append(f"p95={h['p95']:.1f}")
        lines.append(f"  {name:44s} " + " ".join(parts))
    return "\n".join(lines)


def cmd_stats(args) -> int:
    from repro.obs import MetricsRegistry

    with open(args.snapshot) as handle:
        first = json.load(handle)
    if args.other is None:
        print(_render_snapshot(first))
        return 0
    with open(args.other) as handle:
        second = json.load(handle)
    delta = MetricsRegistry.delta(first, second)
    print(f"delta: {args.other} - {args.snapshot}")
    for name in sorted(delta["counters"]):
        diff = delta["counters"][name]
        if diff:
            print(f"  {name:44s} {diff:+d}")
    for name in sorted(delta["histograms"]):
        h = delta["histograms"][name]
        if h["count"]:
            print(f"  {name:44s} count={h['count']:+d} "
                  f"mean-of-new={h['mean']:.1f}")
    return 0


def cmd_compare(args) -> int:
    params = _params(args)
    serialized = run_point(args.workload, mode="serialized",
                           params=params)
    table = Table(f"{args.workload}: design-point comparison",
                  ["design", "ns/txn", "speedup vs serialized"])
    table.add_row("serialized", serialized.ns_per_transaction, 1.0)
    for mode, variant in (("parallel", None), ("coalesced", None),
                          ("async-epoch", None), ("janus", "manual"),
                          ("janus", "auto"), ("ideal", None)):
        result = run_point(args.workload, mode=mode, variant=variant,
                           params=params)
        label = mode if variant in (None, "manual") else f"{mode}-auto"
        if mode == "janus" and variant == "manual":
            label = "janus-manual"
        table.add_row(label, result.ns_per_transaction,
                      speedup_over(serialized, result))
    print(table.render())
    return 0


def cmd_plan(args) -> int:
    from repro.bmo import build_pipeline
    from repro.compiler.window import render_report
    from repro.workloads.registry import plan_for

    cls = WORKLOADS[args.workload]
    plan = plan_for(cls, args.variant)
    print(plan.describe())
    print()
    graph = build_pipeline(default_config()).graph
    print(render_report(cls.template(), plan, graph))
    return 0


def cmd_misuse(args) -> int:
    from repro.harness.crash_campaign import build
    from repro.janus.misuse import diagnose

    system, workloads = build(args.workload, "janus", _params(args),
                              variant=args.variant)
    system.run_programs([w.run() for w in workloads])
    print(diagnose(system).render())
    return 0


def cmd_scrub(args) -> int:
    from repro.common.errors import ReproError
    from repro.consistency import scrub as run_scrub
    from repro.faults import (
        DegradedModeManager,
        FaultInjector,
        FaultPlan,
    )
    from repro.harness.crash_campaign import build, recover_image

    injector = None
    if args.faults:
        kinds = tuple(k.strip() for k in args.faults.split(",")
                      if k.strip())
        injector = FaultInjector(FaultPlan.seeded(args.seed, kinds))

    point = _point_kwargs(args)
    crash_at = args.crash_at
    if crash_at is None:
        # Calibrate: a fault-free twin run fixes the time horizon.
        calib, twins = build(args.workload, seed=args.seed, **point)
        horizon = calib.run_programs([w.run() for w in twins])
        crash_at = max(1.0, 0.6 * horizon)

    system, workloads = build(args.workload, seed=args.seed,
                              injector=injector, **point)
    for workload in workloads:
        system.sim.process(workload.run(), name="stream")
    system.sim.run(until=crash_at)
    snapshot = system.crash()
    print(f"{args.workload} mode={args.mode}: power failure at "
          f"{crash_at:,.0f} ns")
    if injector is not None:
        for record in injector.injected:
            print(f"  injected: {record}")
    try:
        state = recover_image(snapshot, workloads)
        print(f"  recovery: {len(state.committed_txns)} committed, "
              f"{len(state.rolled_back)} rolled back, "
              f"{len(state.media_corrected)} media-corrected, "
              f"{len(set(state.torn_log_lines))} torn log lines")
    except ReproError as error:
        print(f"  recovery REJECTED: "
              f"{type(error).__name__}: {error}")
    report = run_scrub(
        system, degraded=DegradedModeManager(system, injector=injector))
    print(report.render())
    return 0 if report.clean else 1


def _names(text: str, known, what: str):
    """Parse a comma-separated ``--workloads``/``--modes`` value; on
    a name not in ``known``, print ``unknown <what>`` and return None."""
    names = tuple(name.strip() for name in text.split(",")
                  if name.strip())
    unknown = set(names) - set(known)
    if unknown:
        print(f"unknown {what}: {sorted(unknown)}", file=sys.stderr)
        return None
    return names


def _run_campaign(args, config, run, render_summary, stem: str) -> int:
    """The command tail crashtest and soak share: apply the shared
    flags to ``config``, run, print the summary, write the report."""
    config.shards = args.shards
    for flag, known in (("workloads", WORKLOADS),
                        ("modes", SystemConfig.MODES)):
        text = getattr(args, flag)
        if text:
            names = _names(text, known, flag)
            if names is None:
                return 2
            setattr(config, flag, names)
    report = run(config, jobs=args.jobs,
                 progress=_progress_for(args, args.command))
    print(render_summary(report))
    if not args.no_write:
        out = args.out if args.out is not None \
            else dated_path(args.dir, f"{stem}.json")
        write_json(report, out)
        print(f"report -> {out}")
    return 1 if report["violations"] else 0


def cmd_crashtest(args) -> int:
    from repro.harness import crash_campaign as cc

    config = cc.quick_config(seed=args.seed) if args.quick \
        else cc.CampaignConfig(seed=args.seed)
    if args.points is not None:
        config.points = args.points
    if args.no_scenarios:
        config.fault_scenarios = False
    return _run_campaign(args, config, cc.run_campaign,
                         cc.render_summary, "CRASHTEST")


def cmd_soak(args) -> int:
    from repro.harness import soak as sk

    config = sk.quick_config(seed=args.seed) if args.quick \
        else sk.SoakConfig(seed=args.seed)
    if args.cycles is not None:
        config.cycles = args.cycles
    if args.no_oracle:
        config.idempotence_oracle = False
    return _run_campaign(args, config, sk.run_soak, sk.render_summary,
                         "SOAK")


def cmd_fuzz(args) -> int:
    from repro.validate import fuzz as fz

    if args.replay:
        failure = fz.replay(args.replay)
        if failure is None:
            print(f"{args.replay}: no longer fails")
            return 0
        print(f"{args.replay}: still fails")
        print(json.dumps(failure, indent=2, sort_keys=True))
        return 1

    if args.workloads is None:
        workloads = fz.DEFAULT_WORKLOADS
    elif args.workloads.strip().lower() == "none":
        workloads = ()
    else:
        workloads = _names(args.workloads, WORKLOADS, "workloads")
        if workloads is None:
            return 2
    cases = args.cases if args.cases is not None \
        else (12 if args.quick else 60)
    report = fz.run_fuzz(
        cases=cases, seed=args.seed, max_ops=args.max_ops,
        jobs=args.jobs, workloads=workloads, out_dir=args.dir,
        write=not args.no_write, shards=args.shards,
        progress=_progress_for(args, "fuzz"))
    print(fz.render_report(report))
    if not args.no_write and report["failures"]:
        print(f"repros -> {report['dir']}")
    return 1 if report["failures"] else 0


COMMANDS = {
    "figures": cmd_figures,
    "figure": cmd_figure,
    "run": cmd_run,
    "profile": cmd_profile,
    "chart": cmd_chart,
    "stats": cmd_stats,
    "compare": cmd_compare,
    "plan": cmd_plan,
    "misuse": cmd_misuse,
    "scrub": cmd_scrub,
    "crashtest": cmd_crashtest,
    "soak": cmd_soak,
    "fuzz": cmd_fuzz,
}


def _run_id(args) -> str:
    """A deterministic run identifier for the structured log (never
    wall-clock-derived, so logs stay byte-reproducible)."""
    parts = [args.command]
    for attr in ("workload", "mode"):
        value = getattr(args, attr, None)
        if value:
            parts.append(str(value))
    seed = getattr(args, "seed", None)
    if seed is not None:
        parts.append(f"s{seed}")
    return "-".join(parts)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    log_path = getattr(args, "log", None) or os.environ.get("REPRO_LOG")
    if not log_path:
        return COMMANDS[args.command](args)

    from repro.obs import log as runlog
    runlog.configure(path=log_path, run_id=_run_id(args),
                     seed=getattr(args, "seed", None))
    runlog.event("cli", "start", command=args.command)
    try:
        status = COMMANDS[args.command](args)
        runlog.event("cli", "exit", status=status)
        return status
    finally:
        runlog.close()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
