"""Self-test of the host-cost benchmark.

Run from the repository root::

    python3 -m pytest -q perfbench/test_perfbench.py

Every workload runs at its tiny size for a fraction of a second.
"""

import json
import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

import run

run._import_simulator()
import cells  # noqa: E402  (needs the simulator sources on sys.path)
import layers  # noqa: E402

WORKLOADS = tuple(cells.SPECS)
#: Units of metrics that are host times; every other metric is a
#: simulated quantity or a count and must repeat exactly.
HOST_UNITS = {"us/op", "ns", "ms", "s", "op/s", "MB", "traced/untraced"}

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
    CONTRACT = json.load(handle)


def measure(workload, trace, refs=None, seed=3):
    args = SimpleNamespace(workload=workload, seed=seed, seconds=0.2,
                           trace=trace, tiny=True)
    return run.measure(args, refs=refs)[0]


def _declared(section):
    return {m["name"]: m["unit"] for m in CONTRACT[section]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_is_correct_and_emits_every_metric(workload):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result = measure(workload, trace)
        assert result["correct"], result
        assert result["failed"] == 0 and result["attempted"] >= 1
        emitted = {name: entry["unit"]
                   for name, entry in result["metrics"].items()}
        assert emitted == _declared(section)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_simulated_results_repeat_exactly(workload):
    for trace in (0, 1):
        first, second = measure(workload, trace), measure(workload, trace)
        exact = {name: entry["value"]
                 for name, entry in first["metrics"].items()
                 if entry["unit"] not in HOST_UNITS}
        assert exact, "no simulated metric to compare"
        assert exact == {name: second["metrics"][name]["value"]
                         for name in exact}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_reference_counts_as_failed(workload):
    spec = cells.SPECS[workload].tiny()
    api = cells.Api(layers.Spans(enabled=False))
    refs = cells.references(api, spec, 3)
    cell = spec.cells[0]
    if spec.kind == "crash":
        refs[cell] = {k: "0" * 64 for k in refs[cell]}
    else:
        refs[cell] = "0" * 64
    result = measure(workload, 0, refs=refs)
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]


def test_cli_prints_result_last():
    out = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"),
         "--workload", "relaxed-sharded", "--seed", "5", "--seconds",
         "0.2", "--trace", "0", "--tiny"],
        capture_output=True, text=True, cwd=run.ROOT, timeout=180)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert "failed_frac" in out.stdout


def test_fails_without_simulator_sources(tmp_path):
    for path in CONTRACT["paths"]:
        shutil.copytree(os.path.join(run.ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__",
                                                      "out"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run(
        CONTRACT["command"] + ["--workload", "janus-strict", "--seed",
                               "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=180)
    assert out.returncode != 0
    assert out.stdout == ""
