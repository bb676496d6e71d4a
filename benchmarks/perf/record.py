"""Record the committed host-cost trajectory, or gate a change against it.

Run from anywhere; paths resolve against the repository root::

    python3 benchmarks/perf/record.py            # write BENCH_<date>.json
    python3 benchmarks/perf/record.py --compare  # exit 1 on a regression

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

Standard library only; nothing here imports the simulator.
"""

import argparse
import datetime
import glob
import json
import os
import platform
import statistics
import subprocess
import sys

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


def run(spec: dict, workload: str, trace: int) -> dict:
    command = spec["command"] + [
        "--workload", workload, "--seed", str(SEED),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
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


def bench_path(date: str, directory: str = HERE) -> str:
    """Where a recording made on ``date`` goes: ``BENCH_<date>.json``,
    or ``BENCH_<date>_<n>.json`` if that day already has one, so that
    a second recording never overwrites a committed one and still
    sorts after it."""
    path = os.path.join(directory, f"BENCH_{date}.json")
    n = 2
    while os.path.exists(path):
        path = os.path.join(directory, f"BENCH_{date}_{n}.json")
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--compare", action="store_true",
                        help="gate a --trace 0 run against the newest "
                             f"{SCHEMA} file; write nothing")
    args = parser.parse_args(argv)
    spec = load_spec()
    if args.compare:
        return compare(spec)
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
