"""Host cost per simulated transaction, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload janus-strict --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with every tracer off.
``--trace 1`` alternates untraced rounds with rounds under a
``cProfile`` hook and reports the per-layer metrics instead.  The
workloads, metrics and the layer-to-metric map are described in
``perfbench/README.md``.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import math
import os
import re
import resource
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Tail percentiles, highest first: ``op_ms_tail`` steps down this
#: ladder from the workload's own percentile until at least
#: ``MIN_BEYOND`` samples lie beyond it.
LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def _import_simulator():
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.exit(f"perfbench: no simulator sources under {SRC}")
    sys.path.insert(0, SRC)
    global cells, hostprobe, layers
    import cells
    import hostprobe
    import layers


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("janus-strict", "serialized-strict",
                                 "relaxed-sharded", "crash-recover"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="timed host seconds to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every cell (self-test size)")
    return parser.parse_args(argv)


# -- end-to-end ---------------------------------------------------------------
def tail(samples, pct):
    """(value, percentile, samples beyond) by nearest rank, stepping
    down the ladder until ``MIN_BEYOND`` samples lie beyond."""
    ordered = sorted(samples)
    n = len(ordered)
    for candidate in (p for p in LADDER if p <= pct):
        rank = max(1, math.ceil(candidate / 100.0 * n))
        if n - rank >= MIN_BEYOND or candidate == LADDER[-1]:
            return ordered[rank - 1], candidate, n - rank
    raise ValueError("empty ladder")


def host_scale(rnd) -> float:
    """Factor from this round's host seconds to reference-host seconds.

    Every round simulates the same thing, so rounds differ only in
    how fast the host ran meanwhile.  On a shared host that speed
    moves in phases of seconds to minutes (perfbench/README.md records
    them); the probe run around each round measures it.
    """
    return hostprobe.REFERENCE_S / rnd.probe_s


def end_to_end(spec, rounds):
    scales = [host_scale(r) for r in rounds]
    samples = [s * k for r, k in zip(rounds, scales) for s in r.samples]
    value, pct, beyond = tail(samples, spec.tail_pct)
    first = rounds[0]
    metrics = {
        "ops_per_s": (statistics.median(r.ops / (r.timed_s * k)
                                        for r, k in zip(rounds, scales)),
                      "op/s"),
        "op_ms_p50": (statistics.median(samples) * 1e3, "ms"),
        "op_ms_tail": (value * 1e3, "ms"),
        "setup_s": (statistics.median(r.setup_s * k
                                      for r, k in zip(rounds, scales)),
                    "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                        .ru_maxrss / 1024.0, "MB"),
        "sim_ns_per_txn": (first.sim_ns / first.txns, "sim-ns"),
    }
    notes = {
        "op_ms_tail.percentile": (pct, "%"),
        "op_ms_tail.beyond": (beyond, "samples"),
        "op_samples": (len(samples), "samples"),
        "rounds": (len(rounds), "count"),
        "host_slowdown": (statistics.median(1 / k for k in scales),
                          "x reference"),
    }
    return metrics, notes


# -- per layer ----------------------------------------------------------------
def _scoped(counts, base, key):
    """Sum ``key`` over every shard of scope ``base`` (``wq``, ``wq0``,
    ``wq1``, ...)."""
    pattern = re.compile(rf"{base}\d*\.{re.escape(key)}")
    return sum(v for k, v in counts.items() if pattern.fullmatch(k))


def _ratio(num, den):
    return num / den if den else 0.0


def _mean(values):
    return statistics.fmean(values) if values else 0.0


def per_layer(spec, rounds, profile, spans, crash_run):
    untraced = [r for r in rounds if not r.traced]
    traced = [r for r in rounds if r.traced]
    traced_ops = sum(r.ops for r in traced)
    if spec.kind == "crash":
        counts = crash_run["counts"]
        events, txns = crash_run["events"], crash_run["txns"]
        host_ns_per_event = _ratio(crash_run["host_s"] * 1e9, events)
    else:
        counts, events, txns = (untraced[0].counts, untraced[0].events,
                                untraced[0].txns)
        host_ns_per_event = _ratio(
            sum(r.timed_s for r in untraced) * 1e9,
            sum(r.events for r in untraced))

    def scoped(base, key):
        return _scoped(counts, base, key)

    def hist_mean(base, key):
        return _ratio(scoped(base, key + ".sum"),
                      scoped(base, key + ".count"))

    attribution = profile.attribute()
    metrics = {}
    for layer in layers.LAYERS:
        metrics[f"{layer}.self_us_per_op"] = (
            _ratio(attribution["self_s"][layer] * 1e6, traced_ops),
            "us/op")
    metrics["trace.total_us_per_op"] = (
        sum(v for v, _ in metrics.values()), "us/op")
    metrics["trace.overhead_ratio"] = (
        _ratio(_mean([r.timed_s for r in traced]),
               _mean([r.timed_s for r in untraced])), "traced/untraced")
    subops = scoped("bmo", "subops_executed")
    node_updates = scoped("sched", "coalesced_node_updates") \
        + scoped("sched", "charged_node_updates")
    hits, misses = scoped("irb", "hits"), scoped("irb", "misses")
    full = scoped("janus", "fully_pre_executed")
    partial = scoped("janus", "partially_pre_executed")
    setup_spans = spans.durations("make_workload", phase="setup",
                                  traced=False)
    metrics.update({
        "sim.events_per_txn": (_ratio(events, txns), "events/txn"),
        "sim.host_ns_per_event": (host_ns_per_event, "ns"),
        "bmo.subops_per_txn": (_ratio(subops, txns), "subops/txn"),
        "bmo.stale_rerun_frac": (
            _ratio(scoped("bmo", "stale_subops_rerun"), subops),
            "ratio"),
        "bmo.coalesced_update_frac": (
            _ratio(scoped("sched", "coalesced_node_updates"),
                   node_updates), "ratio"),
        "bmo.epochs_flushed_per_txn": (
            _ratio(scoped("sched", "epochs_flushed"), txns),
            "epochs/txn"),
        "bmo.staleness_stalls": (scoped("sched", "staleness_stalls"),
                                 "count"),
        "crypto.calls_per_op": (
            _ratio(attribution["calls"]["crypto"], traced_ops),
            "calls/op"),
        "janus.irb_hit_ratio": (_ratio(hits, hits + misses), "ratio"),
        "janus.fully_pre_executed_frac": (
            _ratio(full, full + partial), "ratio"),
        "janus.subops_pre_executed_per_txn": (
            _ratio(scoped("janus", "subops_pre_executed"), txns),
            "subops/txn"),
        "janus.ops_dropped_full": (scoped("janus", "ops_dropped_full"),
                                   "count"),
        "mem.nvm_writes_per_txn": (_ratio(scoped("nvm", "writes"), txns),
                                   "writes/txn"),
        "mem.wq_residency_ns_mean": (hist_mean("wq", "residency_ns"),
                                     "sim-ns"),
        "mem.wq_full_stall_ns_mean": (hist_mean("wq", "full_stall_ns"),
                                      "sim-ns"),
        "core.critical_write_ns_mean": (
            hist_mean("mc", "critical_write_ns"), "sim-ns"),
        "core.sfence_stall_ns_mean": (
            hist_mean("core", "sfence_stall_ns"), "sim-ns"),
        "core.dedup_cancelled_frac": (
            _ratio(scoped("mc", "writes_cancelled_by_dedup"),
                   scoped("mc", "writebacks")), "ratio"),
        "consistency.recover_ms_per_point": (
            _mean(spans.durations("recover", traced=False)) * 1e3, "ms"),
        "consistency.scrub_ms_per_point": (
            _mean(spans.durations("scrub", traced=False)) * 1e3, "ms"),
        "consistency.rolled_back_per_point": (
            _mean([n for r in untraced for n in r.rolled_back]), "txns"),
        "workloads.setup_ms_per_cell": (
            _ratio(sum(setup_spans) * 1e3,
                   len(spec.cells) * len(untraced)), "ms"),
    })
    return metrics


def shares_sum(metrics) -> bool:
    total = metrics["trace.total_us_per_op"][0]
    parts = sum(metrics[f"{layer}.self_us_per_op"][0]
                for layer in layers.LAYERS)
    return math.isclose(parts, total, rel_tol=1e-9, abs_tol=1e-9)


# -- driver -------------------------------------------------------------------
def measure(args, refs=None):
    """Run one benchmark invocation; returns (result, notes)."""
    spec = cells.SPECS[args.workload]
    if args.tiny:
        spec = spec.tiny()
    spans = layers.Spans(enabled=bool(args.trace))
    api = cells.Api(spans)
    profile = layers.LayerProfile() if args.trace else None
    spans.attrs.update(phase="reference", round=-1, traced=False)
    if refs is None:
        refs = cells.references(api, spec, args.seed)
    crash_run = None
    if args.trace and spec.kind == "crash":
        crash_run = cells.crash_counts(api, spec, args.seed)
    rounds = cells.run_rounds(api, spec, args.seed, refs, args.seconds,
                              trace=bool(args.trace), profile=profile)
    deterministic = all(r.signature == rounds[0].signature
                        for r in rounds)
    if args.trace:
        metrics = per_layer(spec, rounds, profile, spans, crash_run)
        notes = {"trace.shares_sum_ok": (shares_sum(metrics), "bool")}
        consistent = shares_sum(metrics)
        spans.write(os.path.join(
            HERE, "out", f"spans-{args.workload}-seed{args.seed}.json"),
            meta={"workload": args.workload, "seed": args.seed})
    else:
        metrics, notes = end_to_end(spec, rounds)
        consistent = True
    attempted = sum(r.ops for r in rounds)
    failed = sum(r.failed for r in rounds)
    notes["failed_frac"] = (failed / attempted, "ratio")
    if not deterministic:
        print("perfbench: simulated results differ between rounds",
              file=sys.stderr)
    result = {
        "correct": failed == 0 and deterministic and consistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return result, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    _import_simulator()
    result, notes = measure(args)
    for name, entry in result["metrics"].items():
        print(f"{name:40s} {entry['value']:>16.6g} {entry['unit']}")
    for name, (value, unit) in notes.items():
        print(f"{name:40s} {value:>16.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
