"""Record the committed host-cost trajectory, or gate a change against it.

Run from anywhere; paths resolve against the repository root::

    python3 benchmarks/perf/record.py            # write BENCH_<date>.json
    python3 benchmarks/perf/record.py --compare  # exit 1 on a regression
    python3 benchmarks/perf/record.py --ab REV   # write AB_<date>.json

Every run is the benchmark that ``BENCHMARK.json`` declares: its
``command`` for each of its ``workloads``, at ``--seed 1`` for
``run_seconds``.  Recording runs each workload three times at
``--trace 0`` (the end-to-end metrics) and three times at ``--trace
1`` (the per-layer metrics), keeps each setting's per-metric median,
and writes both entries to ``benchmarks/perf/BENCH_<date>.json``
(``repro-bench-v2``).  ``--compare`` runs ``--trace 0`` only, writes
nothing, and checks each run against the newest v2 file here: a run
must be ``correct``, fail no more ops than the baseline run did, and
leave every end-to-end metric within its ``bound`` of the baseline,
relative and in its ``better`` direction.

``--ab REV [--pairs N] [--workloads W,...]`` compares REV with the
working tree in alternating ``--trace 0`` pairs: REV's tree is
extracted with ``git archive`` into a temporary directory, and each
pair runs the command once on each side, REV first on even pairs and
the working tree first on odd ones, so that a drift of the host's
speed does not favour one side.  It writes every run, each side's
per-metric median and quartiles and the working tree's wins to
``benchmarks/perf/AB_<date>.json``, and prints one verdict per
metric: ``better`` when the working tree wins at least nine pairs in
ten and its median beats REV's by more than REV's interquartile
range, ``worse`` when the same holds the other way, and ``noise``
otherwise; no metric of a workload reads ``better`` when the working
tree's runs fail more operations than REV's.

Standard library only; nothing here imports the simulator.
"""

import argparse
import datetime
import glob
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SCHEMA = "repro-bench-v2"
SEED = 1
#: ``--trace 0`` runs per workload in a recording; one run per cell
#: made a baseline that later runs at the same code missed by up to
#: 25%.
TRACE0_RUNS = 3
#: ``--trace 1`` runs per workload in a recording; with one traced run
#: per cell, one workload's non-crypto layers read 17-26% above a run
#: of the same cell an hour earlier.
TRACE1_RUNS = 3


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def parse_output(stdout: str) -> dict:
    """One run's JSON last line, plus the table's ``host_slowdown``
    (``None`` when the run printed none: perfbench prints it only at
    ``--trace 0``)."""
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["host_slowdown"] = None
    for line in lines[:-1]:
        fields = line.split()
        if fields and fields[0] == "host_slowdown":
            result["host_slowdown"] = float(fields[1])
    return result


def run(spec: dict, workload: str, trace: int, root: str = ROOT) -> dict:
    """One run of the benchmark command in the checkout at ``root``."""
    command = spec["command"] + [
        "--workload", workload, "--seed", str(SEED),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(command, cwd=root, stdout=subprocess.PIPE,
                          text=True, check=True)
    return parse_output(proc.stdout)


def git_head():
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          stdout=subprocess.PIPE, text=True)
    return proc.stdout.strip() or None


def median_run(results: list) -> dict:
    """One entry from several runs of the same command: every metric,
    ``host_slowdown`` and ``attempted`` at their median, ``correct``
    only if every run was, and the most ``failed`` ops of any run.
    ``host_slowdown`` stays ``None`` when no run printed one."""
    median = statistics.median
    slowdowns = [r["host_slowdown"] for r in results
                 if r["host_slowdown"] is not None]
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": median(r["attempted"] for r in results),
        "failed": max(r["failed"] for r in results),
        "host_slowdown": median(slowdowns) if slowdowns else None,
        "metrics": {
            key: {"value": median(r["metrics"][key]["value"]
                                  for r in results),
                  "unit": entry["unit"]}
            for key, entry in results[0]["metrics"].items()},
    }


def record(spec: dict) -> dict:
    workloads = {}
    for workload in spec["workloads"]:
        name = workload["name"]
        runs = {0: [], 1: []}
        for trace in [0] * TRACE0_RUNS + [1] * TRACE1_RUNS:
            result = run(spec, name, trace)
            runs[trace].append(result)
            print(f"{name} --trace {trace}: correct {result['correct']}, "
                  f"failed {result['failed']} of {result['attempted']}, "
                  f"host_slowdown {result['host_slowdown']}", flush=True)
        workloads[name] = {"trace0": median_run(runs[0]),
                           "trace1": median_run(runs[1])}
    return {
        "schema": SCHEMA,
        "meta": {
            "date": datetime.date.today().isoformat(),
            "git_head": git_head(),
            "python": platform.python_version(),
            "seed": SEED,
            "run_seconds": spec["run_seconds"],
            "trace0_runs": TRACE0_RUNS,
            "trace1_runs": TRACE1_RUNS,
        },
        "workloads": workloads,
    }


def bench_path(date: str, directory: str = HERE,
               prefix: str = "BENCH") -> str:
    """Where a recording made on ``date`` goes: ``BENCH_<date>.json``,
    or ``BENCH_<date>_<n>.json`` if that day already has one, so that
    a second recording never overwrites a committed one and still
    sorts after it.  An A/B comparison goes to ``AB_<date>.json`` the
    same way."""
    path = os.path.join(directory, f"{prefix}_{date}.json")
    n = 2
    while os.path.exists(path):
        path = os.path.join(directory, f"{prefix}_{date}_{n}.json")
        n += 1
    return path


def newest_baseline(directory: str = HERE):
    """(path, report) of the newest ``BENCH_*.json`` whose schema is
    v2, or ``(None, None)``.  ``BENCH_<ISO date>`` names sort by date;
    v1 files are history and never a baseline."""
    for path in sorted(glob.glob(os.path.join(directory, "BENCH_*.json")),
                       reverse=True):
        with open(path) as handle:
            report = json.load(handle)
        if report.get("schema") == SCHEMA:
            return path, report
    return None, None


def worse_by(better: str, base: float, value: float) -> float:
    """Relative change of ``value`` from ``base``, positive when worse."""
    change = (value - base) / base
    return -change if better == "higher" else change


def gate(spec: dict, baseline: dict, runs: dict) -> list:
    """``(ok, line)`` for every check of ``runs`` (workload -> one
    ``--trace 0`` result) against ``baseline``."""
    checks = []
    for workload in spec["workloads"]:
        name = workload["name"]
        cur = runs[name]
        base = baseline["workloads"].get(name)
        if base is None:
            checks.append((False, f"{name}: not in the baseline"))
            continue
        base = base["trace0"]
        checks.append((cur["correct"],
                       f"{name}: correct {cur['correct']}"))
        checks.append((cur["failed"] <= base["failed"],
                       f"{name}: failed {cur['failed']} of "
                       f"{cur['attempted']} ops, baseline "
                       f"{base['failed']}"))
        for metric in spec["end_to_end"]:
            key = metric["name"]
            was = base["metrics"][key]["value"]
            now = cur["metrics"][key]["value"]
            worse = worse_by(metric["better"], was, now)
            checks.append((worse <= metric["bound"],
                           f"{name}: {key} {now:.6g} vs {was:.6g} "
                           f"{metric['unit']} ({worse:+.1%} worse, bound "
                           f"{metric['bound']:.0%})"))
    return checks


def compare(spec: dict) -> int:
    path, baseline = newest_baseline()
    if baseline is None:
        sys.exit(f"record.py: no {SCHEMA} file in {HERE}")
    print(f"baseline {os.path.relpath(path, ROOT)} "
          f"(git {baseline['meta']['git_head']})", flush=True)
    runs = {w["name"]: run(spec, w["name"], 0)
            for w in spec["workloads"]}
    checks = gate(spec, baseline, runs)
    for ok, line in checks:
        print(f"{'ok  ' if ok else 'FAIL'} {line}")
    return 0 if all(ok for ok, _ in checks) else 1


# -- paired A/B runs ------------------------------------------------------
def checkout(rev: str, dest: str) -> str:
    """Extract the tree of commit ``rev`` into ``dest`` with local git
    only; return the commit's full hash."""
    commit = subprocess.run(
        ["git", "rev-parse", "--verify", rev + "^{commit}"], cwd=ROOT,
        stdout=subprocess.PIPE, text=True, check=True).stdout.strip()
    archive = subprocess.Popen(["git", "archive", commit], cwd=ROOT,
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout,
                   check=True)
    archive.stdout.close()
    if archive.wait():
        raise subprocess.CalledProcessError(archive.returncode,
                                            "git archive")
    return commit


def pair_order(pair: int) -> tuple:
    """The sides of pair ``pair`` in the order they run: REV first on
    even pairs, the working tree first on odd ones."""
    return ("rev", "tree") if pair % 2 == 0 else ("tree", "rev")


def quartiles(values: list) -> dict:
    """Median and quartiles (``statistics.quantiles``' default
    method); a single value is its own quartiles."""
    if len(values) < 2:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def compare_sides(metrics: list, rev_runs: list, tree_runs: list) -> dict:
    """Per-metric statistics of paired runs: ``rev_runs[i]`` and
    ``tree_runs[i]`` are pair ``i``.  ``metrics`` are the spec's
    metric entries (``name``, ``unit``, ``better``); one a run does
    not report is skipped.  When the tree's runs fail more operations
    than REV's, no metric reads ``better``: a gain does not count
    then."""
    pairs = len(rev_runs)
    # Nine wins in ten pairs, as a count for any number of pairs.
    needed = math.ceil(0.9 * pairs)
    more_failed = (sum(r["failed"] for r in tree_runs)
                   > sum(r["failed"] for r in rev_runs))
    out = {}
    for metric in metrics:
        key = metric["name"]
        if key not in rev_runs[0]["metrics"]:
            continue
        sign = 1 if metric["better"] == "higher" else -1
        rev = [r["metrics"][key]["value"] for r in rev_runs]
        tree = [r["metrics"][key]["value"] for r in tree_runs]
        wins = sum(1 for a, b in zip(rev, tree) if sign * (b - a) > 0)
        losses = sum(1 for a, b in zip(rev, tree) if sign * (b - a) < 0)
        rev_q, tree_q = quartiles(rev), quartiles(tree)
        gain = sign * (tree_q["median"] - rev_q["median"])
        if wins >= needed and gain > rev_q["iqr"] and not more_failed:
            verdict = "better"
        elif losses >= needed and -gain > rev_q["iqr"]:
            verdict = "worse"
        else:
            verdict = "noise"
        out[key] = {"unit": metric["unit"], "better": metric["better"],
                    "rev": rev_q, "tree": tree_q, "wins": wins,
                    "losses": losses, "pairs": pairs, "verdict": verdict}
    return out


def verdict_line(workload: str, key: str, entry: dict) -> str:
    rev, tree = entry["rev"]["median"], entry["tree"]["median"]
    change = f" ({(tree - rev) / rev:+.1%})" if rev else ""
    return (f"{workload}: {key} {rev:.6g} -> {tree:.6g} {entry['unit']}"
            f"{change}, rev IQR {entry['rev']['iqr']:.3g}, tree wins "
            f"{entry['wins']} of {entry['pairs']}: {entry['verdict']}")


def ab(spec: dict, rev: str, pairs: int, workloads: list) -> dict:
    """Run the alternating pairs and return the ``AB_*.json`` report."""
    report = {"schema": "repro-ab-v1", "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="repro-ab-") as rev_root:
        commit = checkout(rev, rev_root)
        roots = {"rev": rev_root, "tree": ROOT}
        for workload in workloads:
            runs = {"rev": [], "tree": []}
            for pair in range(pairs):
                for side in pair_order(pair):
                    result = run(spec, workload, 0, roots[side])
                    runs[side].append(result)
                    print(f"{workload} pair {pair} {side}: "
                          f"correct {result['correct']}, failed "
                          f"{result['failed']} of {result['attempted']}",
                          flush=True)
            stats = compare_sides(spec["end_to_end"], runs["rev"],
                                  runs["tree"])
            report["workloads"][workload] = {
                "correct": all(r["correct"] for side in runs.values()
                               for r in side),
                "failed": {side: sum(r["failed"] for r in side_runs)
                           for side, side_runs in runs.items()},
                "metrics": stats, "runs": runs}
            for key, entry in stats.items():
                print(verdict_line(workload, key, entry), flush=True)
    report["meta"] = {
        "date": datetime.date.today().isoformat(),
        "rev": commit, "tree": git_head(),
        "python": platform.python_version(), "seed": SEED,
        "run_seconds": spec["run_seconds"], "trace": 0,
        "pairs": pairs,
    }
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--compare", action="store_true",
                        help="gate a --trace 0 run against the newest "
                             f"{SCHEMA} file; write nothing")
    parser.add_argument("--ab", metavar="REV",
                        help="compare commit REV with the working tree "
                             "in alternating pairs; write AB_<date>.json")
    parser.add_argument("--pairs", type=int, default=10,
                        help="pairs per workload with --ab (default 10)")
    parser.add_argument("--workloads", metavar="W,...",
                        help="comma-separated workloads for --ab "
                             "(default: every workload of the benchmark)")
    args = parser.parse_args(argv)
    spec = load_spec()
    if args.compare:
        return compare(spec)
    if args.ab:
        workloads = (args.workloads.split(",") if args.workloads
                     else [w["name"] for w in spec["workloads"]])
        report = ab(spec, args.ab, args.pairs, workloads)
        path = bench_path(report["meta"]["date"], prefix="AB")
        with open(path, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {os.path.relpath(path, ROOT)}")
        return 0 if all(w["correct"]
                        for w in report["workloads"].values()) else 1
    report = record(spec)
    if not all(result["correct"]
               for runs in report["workloads"].values()
               for result in runs.values()):
        print("record.py: a run is not correct; nothing written")
        return 1
    path = bench_path(report["meta"]["date"])
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {os.path.relpath(path, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
