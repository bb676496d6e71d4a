"""``benchmarks/perf/record.py``: the trajectory recorder and perf gate.

The recorder is a standalone script (standard library only), so it is
loaded by path.  These tests pin its pure parts: the parser for one
perfbench run, the baseline picker, and the gate's rules.
"""

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "perf_record", REPO_ROOT / "benchmarks" / "perf" / "record.py")
record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(record)

SPEC = {
    "workloads": [{"name": "w"}],
    "end_to_end": [
        {"name": "ops_per_s", "unit": "op/s", "better": "higher",
         "bound": 0.25},
        {"name": "op_ms_p50", "unit": "ms", "better": "lower",
         "bound": 0.25},
    ],
}

CANNED_STDOUT = """\
ops_per_s                                         588.258 op/s
op_ms_p50                                          1.7424 ms
op_ms_tail.percentile                                  50 %
host_slowdown                                    0.917499 x reference
failed_frac                                             0 ratio
{"correct": true, "attempted": 588, "failed": 0, "metrics": \
{"ops_per_s": {"value": 588.25, "unit": "op/s"}, \
"op_ms_p50": {"value": 1.74, "unit": "ms"}}}
"""


def traced_stdout(ops_per_s):
    """A ``--trace 1`` run's output: the canned run without its
    ``host_slowdown`` line, at ``ops_per_s``."""
    lines = [line for line in CANNED_STDOUT.splitlines()
             if not line.startswith("host_slowdown")]
    return "\n".join(lines).replace("588.25", str(ops_per_s))


def run_result(ops_per_s=100.0, op_ms_p50=10.0, correct=True, failed=0):
    return {"correct": correct, "attempted": 50, "failed": failed,
            "host_slowdown": 1.0,
            "metrics": {"ops_per_s": {"value": ops_per_s, "unit": "op/s"},
                        "op_ms_p50": {"value": op_ms_p50, "unit": "ms"}}}


def baseline(**kwargs):
    return {"schema": record.SCHEMA,
            "workloads": {"w": {"trace0": run_result(**kwargs)}}}


def failures(current):
    checks = record.gate(SPEC, baseline(), {"w": current})
    return [line for ok, line in checks if not ok]


class TestParseOutput:
    def test_reads_json_last_line_and_host_slowdown(self):
        result = record.parse_output(CANNED_STDOUT)
        assert result["correct"] is True
        assert (result["attempted"], result["failed"]) == (588, 0)
        assert result["metrics"]["ops_per_s"]["value"] == 588.25
        assert result["host_slowdown"] == pytest.approx(0.917499)

    def test_traced_run_has_no_host_slowdown(self):
        traced = record.parse_output(traced_stdout(588.25))
        assert traced["host_slowdown"] is None
        assert traced["metrics"]["ops_per_s"]["value"] == 588.25


class TestGateRule:
    def test_higher_is_better_bound(self):
        # ops_per_s 100 at baseline, bound 25%.
        assert failures(run_result(ops_per_s=76.0)) == []
        assert failures(run_result(ops_per_s=1000.0)) == []
        [line] = failures(run_result(ops_per_s=74.0))
        assert "ops_per_s" in line and "+26.0% worse" in line

    def test_lower_is_better_bound(self):
        # op_ms_p50 10 ms at baseline, bound 25%.
        assert failures(run_result(op_ms_p50=12.4)) == []
        assert failures(run_result(op_ms_p50=1.0)) == []
        [line] = failures(run_result(op_ms_p50=12.6))
        assert "op_ms_p50" in line and "+26.0% worse" in line

    def test_incorrect_run_fails(self):
        [line] = failures(run_result(correct=False))
        assert line == "w: correct False"

    def test_more_failed_ops_than_baseline_fails(self):
        [line] = failures(run_result(failed=1))
        assert line.startswith("w: failed 1 of 50 ops")

    def test_every_check_prints_a_line(self):
        checks = record.gate(SPEC, baseline(), {"w": run_result()})
        # correct, failed ops, one per end-to-end metric
        assert len(checks) == 2 + len(SPEC["end_to_end"])
        assert all(ok for ok, _ in checks)

    def test_workload_missing_from_baseline_fails(self):
        spec = dict(SPEC, workloads=[{"name": "w"}, {"name": "new"}])
        checks = record.gate(spec, baseline(),
                             {"w": run_result(), "new": run_result()})
        assert (False, "new: not in the baseline") in checks


class TestMedianOfRuns:
    def test_each_metric_is_its_median_and_failures_are_kept(self):
        runs = [run_result(ops_per_s=90.0, op_ms_p50=30.0),
                run_result(ops_per_s=120.0, op_ms_p50=10.0, failed=2),
                run_result(ops_per_s=100.0, op_ms_p50=20.0,
                           correct=False)]
        runs[1]["attempted"], runs[2]["attempted"] = 70, 60
        runs[0]["host_slowdown"], runs[1]["host_slowdown"] = 0.8, 1.3
        entry = record.median_run(runs)
        assert entry["metrics"] == {
            "ops_per_s": {"value": 100.0, "unit": "op/s"},
            "op_ms_p50": {"value": 20.0, "unit": "ms"}}
        assert entry["host_slowdown"] == 1.0
        assert entry["attempted"] == 60
        assert entry["failed"] == 2
        assert entry["correct"] is False
        assert set(entry) == set(runs[0])

    def test_traced_runs_keep_no_host_slowdown(self):
        runs = [record.parse_output(traced_stdout(v))
                for v in (300.0, 100.0, 200.0)]
        entry = record.median_run(runs)
        assert entry["host_slowdown"] is None
        assert entry["metrics"]["ops_per_s"]["value"] == 200.0

    def test_recording_keeps_the_median_of_three_runs_per_setting(
            self, monkeypatch):
        calls = []

        def fake_run(spec, workload, trace):
            calls.append((workload, trace))
            ops = (300.0, 100.0, 200.0)[(len(calls) - 1) % 3]
            stdout = CANNED_STDOUT.replace("588.25", str(ops)) \
                if trace == 0 else traced_stdout(ops + 1000)
            return record.parse_output(stdout)

        monkeypatch.setattr(record, "run", fake_run)
        monkeypatch.setattr(record, "git_head", lambda: "0" * 40)
        report = record.record(dict(SPEC, run_seconds=20))
        assert calls == [("w", 0)] * 3 + [("w", 1)] * 3
        assert report["meta"]["trace0_runs"] == 3
        assert report["meta"]["trace1_runs"] == 3
        entry = report["workloads"]["w"]
        assert entry["trace0"]["metrics"]["ops_per_s"]["value"] == 200.0
        assert entry["trace0"]["host_slowdown"] == pytest.approx(0.917499)
        assert entry["trace1"]["metrics"]["ops_per_s"]["value"] == 1200.0
        assert entry["trace1"]["host_slowdown"] is None

    def test_median_entry_is_gated_like_one_run(self):
        runs = [run_result(ops_per_s=v) for v in (10.0, 100.0, 1000.0)]
        assert failures(record.median_run(runs)) == []
        assert record.median_run(runs[:1]) == runs[0]


class TestBaselinePicker:
    def test_newest_v2_file_wins_and_v1_files_are_skipped(self, tmp_path):
        files = {"BENCH_2026-01-01.json": record.SCHEMA,
                 "BENCH_2026-02-01.json": record.SCHEMA,
                 "BENCH_2026-03-01.json": "repro-bench-v1"}
        for name, schema in files.items():
            (tmp_path / name).write_text(json.dumps({"schema": schema}))
        path, report = record.newest_baseline(str(tmp_path))
        assert Path(path).name == "BENCH_2026-02-01.json"
        assert report["schema"] == record.SCHEMA

    def test_second_recording_of_a_day_sorts_after_the_first(
            self, tmp_path):
        first = Path(record.bench_path("2026-10-18", str(tmp_path)))
        assert first.name == "BENCH_2026-10-18.json"
        first.write_text(json.dumps({"schema": record.SCHEMA, "n": 1}))
        second = Path(record.bench_path("2026-10-18", str(tmp_path)))
        assert second.name == "BENCH_2026-10-18_2.json"
        second.write_text(json.dumps({"schema": record.SCHEMA, "n": 2}))
        (tmp_path / "BENCH_2026-10-17.json").write_text(
            json.dumps({"schema": record.SCHEMA, "n": 0}))
        path, report = record.newest_baseline(str(tmp_path))
        assert Path(path) == second and report["n"] == 2

    def test_only_v1_files_means_no_baseline(self, tmp_path):
        (tmp_path / "BENCH_2026-01-01.json").write_text(
            json.dumps({"schema": "repro-bench-v1"}))
        assert record.newest_baseline(str(tmp_path)) == (None, None)

    def test_committed_trajectory_has_a_complete_v2_baseline(self):
        """The gate's baseline covers every benchmark workload with a
        correct run at both trace settings."""
        spec = record.load_spec()
        path, report = record.newest_baseline()
        assert path is not None
        meta = report["meta"]
        assert meta["seed"] == record.SEED
        assert meta["run_seconds"] == spec["run_seconds"]
        assert meta["git_head"] and meta["python"]
        assert meta["trace0_runs"] == record.TRACE0_RUNS
        for workload in spec["workloads"]:
            runs = report["workloads"][workload["name"]]
            assert set(runs) == {"trace0", "trace1"}
            for result in runs.values():
                assert result["correct"] and result["failed"] == 0
            assert runs["trace0"]["host_slowdown"] > 0
            assert {m["name"] for m in spec["end_to_end"]} \
                <= set(runs["trace0"]["metrics"])
            assert {m["name"] for m in spec["per_layer"]} \
                <= set(runs["trace1"]["metrics"])


def ab_runs(values, key="ops_per_s"):
    """Canned runs whose ``key`` takes ``values`` in turn."""
    runs = []
    for value in values:
        result = run_result()
        result["metrics"][key]["value"] = value
        runs.append(result)
    return runs


AB_METRICS = SPEC["end_to_end"]


class TestAbPairs:
    def test_order_flips_every_pair(self):
        assert [record.pair_order(i) for i in range(4)] == [
            ("rev", "tree"), ("tree", "rev"),
            ("rev", "tree"), ("tree", "rev")]

    def test_quartiles(self):
        assert record.quartiles([7.0]) == {
            "median": 7.0, "q1": 7.0, "q3": 7.0, "iqr": 0.0}
        q = record.quartiles([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
        assert (q["q1"], q["median"], q["q3"]) == (2.0, 4.0, 6.0)
        assert q["iqr"] == 4.0

    def test_nine_wins_in_ten_and_a_gap_beyond_the_iqr_is_better(self):
        rev = [100.0 + i for i in range(10)]       # IQR about 5.5
        tree = [110.0 + i for i in range(10)]
        tree[3] = 90.0                            # one lost pair
        stats = record.compare_sides(AB_METRICS, ab_runs(rev),
                                     ab_runs(tree))
        entry = stats["ops_per_s"]
        assert (entry["wins"], entry["losses"], entry["pairs"]) == (9, 1, 10)
        assert entry["rev"]["median"] == 104.5
        assert entry["verdict"] == "better"

    def test_eight_wins_in_ten_is_noise(self):
        rev = [100.0 + i for i in range(10)]
        tree = [120.0 + i for i in range(10)]
        tree[3] = tree[4] = 90.0
        entry = record.compare_sides(AB_METRICS, ab_runs(rev),
                                     ab_runs(tree))["ops_per_s"]
        assert entry["wins"] == 8 and entry["verdict"] == "noise"

    def test_a_gap_inside_the_iqr_is_noise(self):
        rev = [100.0, 140.0] * 5                   # IQR 40
        tree = [v + 1.0 for v in rev]
        entry = record.compare_sides(AB_METRICS, ab_runs(rev),
                                     ab_runs(tree))["ops_per_s"]
        assert entry["wins"] == 10 and entry["verdict"] == "noise"

    def test_lower_is_better_metrics_win_by_falling(self):
        rev = ab_runs([10.0] * 10, "op_ms_p50")
        tree = ab_runs([8.0] * 10, "op_ms_p50")
        stats = record.compare_sides(AB_METRICS, rev, tree)
        assert stats["op_ms_p50"]["verdict"] == "better"
        stats = record.compare_sides(AB_METRICS, tree, rev)
        assert stats["op_ms_p50"]["losses"] == 10
        assert stats["op_ms_p50"]["verdict"] == "worse"
        # Equal values are neither a win nor a loss.
        assert stats["ops_per_s"]["wins"] == stats["ops_per_s"]["losses"] \
            == 0
        assert stats["ops_per_s"]["verdict"] == "noise"

    def test_no_gain_counts_when_the_tree_fails_more_ops(self):
        rev = ab_runs([100.0] * 10)
        tree = ab_runs([150.0] * 10)
        tree[7]["failed"] = 1
        entry = record.compare_sides(AB_METRICS, rev, tree)["ops_per_s"]
        assert entry["wins"] == 10 and entry["verdict"] == "noise"
        # A loss still reads worse, and equal failures keep the gain.
        entry = record.compare_sides(AB_METRICS, tree, rev)["ops_per_s"]
        assert entry["verdict"] == "worse"
        rev[2]["failed"] = 1
        entry = record.compare_sides(AB_METRICS, rev, tree)["ops_per_s"]
        assert entry["verdict"] == "better"

    def test_metrics_a_run_does_not_report_are_skipped(self):
        metrics = AB_METRICS + [{"name": "sim.self_us_per_op",
                                 "unit": "us/op", "better": "lower"}]
        stats = record.compare_sides(metrics, ab_runs([1.0]),
                                     ab_runs([2.0]))
        assert set(stats) == {"ops_per_s", "op_ms_p50"}

    def test_ab_alternates_the_sides_and_reports_every_run(
            self, monkeypatch, capsys):
        calls = []

        def fake_run(spec, workload, trace, root):
            calls.append((workload, root))
            assert trace == 0
            ops = 200.0 if root == record.ROOT else 100.0
            return record.parse_output(
                CANNED_STDOUT.replace("588.25", str(ops + len(calls))))

        monkeypatch.setattr(record, "run", fake_run)
        monkeypatch.setattr(record, "checkout", lambda rev, dest: "f" * 40)
        monkeypatch.setattr(record, "git_head", lambda: "0" * 40)
        spec = dict(SPEC, run_seconds=20)
        report = record.ab(spec, "HEAD~1", 3, ["w"])
        sides = ["tree" if root == record.ROOT else "rev"
                 for _, root in calls]
        assert sides == ["rev", "tree", "tree", "rev", "rev", "tree"]
        assert report["meta"]["rev"] == "f" * 40
        assert report["meta"]["pairs"] == 3
        entry = report["workloads"]["w"]
        assert entry["correct"] is True
        assert [len(entry["runs"][s]) for s in ("rev", "tree")] == [3, 3]
        assert entry["metrics"]["ops_per_s"]["wins"] == 3
        assert entry["metrics"]["ops_per_s"]["verdict"] == "better"
        out = capsys.readouterr().out.splitlines()
        assert "w: ops_per_s" in out[-2] and out[-2].endswith(": better")

    def test_ab_files_sort_by_day_and_are_never_a_baseline(self, tmp_path):
        first = Path(record.bench_path("2026-10-20", str(tmp_path), "AB"))
        assert first.name == "AB_2026-10-20.json"
        first.write_text(json.dumps({"schema": "repro-ab-v1"}))
        second = Path(record.bench_path("2026-10-20", str(tmp_path), "AB"))
        assert second.name == "AB_2026-10-20_2.json"
        assert record.newest_baseline(str(tmp_path)) == (None, None)
