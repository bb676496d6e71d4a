"""Tests for the command-line interface."""

import re

import pytest

from repro.cli import FIGURES, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_figures_lists_everything(capsys):
    code, out = run_cli(capsys, "figures")
    assert code == 0
    for name in FIGURES:
        assert name in out


def test_figure_static(capsys):
    code, out = run_cli(capsys, "figure", "table1")
    assert code == 0
    assert "backend memory operations" in out


def test_figure_overhead(capsys):
    code, out = run_cli(capsys, "figure", "overhead")
    assert code == 0
    assert "IRB" in out


def test_figure_out_writes_then_rerenders_in_place(capsys, tmp_path):
    path = tmp_path / "table1.txt"
    code, _ = run_cli(capsys, "figure", "table1", "--out", str(path))
    assert code == 0
    first = path.read_text()
    assert "backend memory operations" in first
    # Refreshing a previously rendered report in place is fine: the
    # first line identifies it as our own output.
    code, _ = run_cli(capsys, "figure", "table1", "--out", str(path))
    assert code == 0
    assert path.read_text() == first


def test_figure_out_refuses_to_clobber_foreign_file(capsys, tmp_path):
    path = tmp_path / "notes.txt"
    path.write_text("my precious notes\n")
    code = main(["figure", "table1", "--out", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert "refusing" in captured.err
    assert "--force" in captured.err
    assert path.read_text() == "my precious notes\n"  # untouched


def test_figure_out_force_overwrites(capsys, tmp_path):
    path = tmp_path / "notes.txt"
    path.write_text("my precious notes\n")
    code, _ = run_cli(capsys, "figure", "table1", "--out", str(path),
                      "--force")
    assert code == 0
    content = path.read_text()
    assert "my precious notes" not in content
    assert "backend memory operations" in content


def test_figure_out_refuses_directory_target(capsys, tmp_path):
    code = main(["figure", "table1", "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert "refusing" in captured.err


def test_run_command(capsys):
    code, out = run_cli(capsys, "run", "array_swap", "--txns", "4",
                        "--mode", "janus")
    assert code == 0
    assert "ns/txn" in out and "janus" in out


def test_compare_command_orders_designs(capsys):
    code, out = run_cli(capsys, "compare", "queue", "--txns", "6")
    assert code == 0
    for label in ("serialized", "parallel", "janus-manual", "ideal"):
        assert label in out


def test_plan_command(capsys):
    code, out = run_cli(capsys, "plan", "array_swap")
    assert code == 0
    assert "PRE_ADDR" in out
    assert "window estimate" in out


def test_misuse_command(capsys):
    code, out = run_cli(capsys, "misuse", "array_swap", "--txns", "4")
    assert code == 0
    assert "misuse report" in out


def test_scrub_command_clean_crash(capsys):
    code, out = run_cli(capsys, "scrub", "array_swap", "--txns", "6",
                        "--items", "8", "--crash-at", "6000")
    assert code == 0
    assert "power failure" in out
    assert "recovery:" in out and "committed" in out
    assert "image clean" in out


def test_scrub_command_with_faults_never_silent(capsys):
    code, out = run_cli(capsys, "scrub", "queue", "--txns", "6",
                        "--items", "8", "--crash-at", "6000",
                        "--faults", "meta_merkle")
    assert "injected:" in out
    # An injected metadata fault must surface somewhere: a rejected
    # recovery or an unclean scrub (exit 1) — never a clean exit with
    # no evidence.
    assert code == 1
    assert "MERKLE FAILURE" in out or "REJECTED" in out


def test_crashtest_quick_passes_and_writes(capsys, tmp_path):
    out_path = tmp_path / "CRASHTEST_ci.json"
    code, out = run_cli(capsys, "crashtest", "--quick",
                        "--points", "2", "--out", str(out_path))
    assert code == 0
    assert "crash points" in out
    assert "fault scenarios" in out
    assert out_path.exists()


def test_crashtest_subset_no_write(capsys):
    code, out = run_cli(capsys, "crashtest", "--workloads",
                        "array_swap", "--modes", "janus", "--points",
                        "1", "--no-scenarios", "--no-write")
    assert code == 0
    assert "report ->" not in out


def exit_status(argv):
    """``main``'s return code, or argparse's exit code when a flag's
    type check stops the parse."""
    try:
        return main(argv)
    except SystemExit as stop:
        return stop.code


@pytest.mark.parametrize("argv, message", [
    (["crashtest", "--workloads", "nope"], "unknown workloads: ['nope']"),
    (["crashtest", "--modes", "bogus"], "unknown modes: ['bogus']"),
    (["soak", "--modes", "bogus"], "unknown modes: ['bogus']"),
    (["crashtest", "--shards", "3"], "invalid sharding config"),
    (["soak", "--shards", "3"], "invalid sharding config"),
    (["fuzz", "--shards", "3"], "invalid sharding config"),
    (["run", "queue", "--shards", "3"], "invalid sharding config"),
    (["figure", "shards", "--scale", "0.05", "--shards", "1,3"],
     "invalid sharding config"),
    (["run", "queue", "--jobs", "2"], "unrecognized arguments: --jobs"),
    (["profile", "queue", "--jobs", "2"],
     "unrecognized arguments: --jobs"),
], ids=["crashtest-workloads", "crashtest-modes", "soak-modes",
        "crashtest-shards", "soak-shards", "fuzz-shards", "run-shards",
        "figure-shards", "run-jobs", "profile-jobs"])
def test_bad_flags_exit_2_before_running(capsys, argv, message):
    campaign = ["--quick", "--no-write"] \
        if argv[0] in ("crashtest", "soak", "fuzz") else []
    assert exit_status(argv + campaign) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


def test_unknown_workload_rejected():
    with pytest.raises(SystemExit):
        main(["run", "not-a-workload"])


def test_unknown_figure_rejected():
    with pytest.raises(SystemExit):
        main(["figure", "fig99"])


def test_profile_emits_ranked_hotspots_and_artifacts(capsys, tmp_path):
    out_json = tmp_path / "profile.json"
    folded = tmp_path / "profile.folded"
    code, out = run_cli(capsys, "profile", "queue", "--mode", "janus",
                        "--quick", "--out", str(out_json),
                        "--folded", str(folded))
    assert code == 0
    assert "repro profile" in out
    assert "self sim-ns" in out
    import json as _json
    report = _json.loads(out_json.read_text())
    assert report["schema"] == "repro-profile-v1"
    assert report["components"]
    # Every folded line is "frames... <integer weight>".
    for line in folded.read_text().splitlines():
        stack, _sep, weight = line.rpartition(" ")
        assert ";" in stack and int(weight) > 0


def test_profile_report_byte_identical_across_runs(capsys, tmp_path):
    outs = []
    for name in ("a", "b"):
        path = tmp_path / f"{name}.json"
        code, _out = run_cli(capsys, "profile", "queue", "--mode",
                             "janus", "--quick", "--out", str(path))
        assert code == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_timeseries_byte_identical_across_runs(capsys, tmp_path):
    outs = []
    for name in ("a", "b"):
        path = tmp_path / f"{name}.jsonl"
        code, _out = run_cli(capsys, "run", "queue", "--mode", "janus",
                             "--txns", "4", "--timeseries", "500",
                             "--timeseries-out", str(path))
        assert code == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def sim_ns(out):
    """The simulated ns a ``run`` or ``profile`` report prints."""
    match = re.search(r"(?:elapsed |\()([\d,]+) (?:ns|sim-ns)", out)
    return int(match.group(1).replace(",", ""))


def test_profile_applies_the_staleness_dials_like_run(capsys):
    dials = ("--mode", "async-epoch", "--staleness-epochs", "1",
             "--epoch-writes", "4")
    code, profiled = run_cli(capsys, "profile", "queue", "--quick",
                             *dials)
    assert code == 0
    code, ran = run_cli(capsys, "run", "queue", "--txns", "8", *dials)
    assert code == 0
    code, undialled = run_cli(capsys, "run", "queue", "--txns", "8",
                              "--mode", "async-epoch")
    assert code == 0
    assert sim_ns(profiled) == sim_ns(ran)
    assert sim_ns(ran) != sim_ns(undialled)


def test_scrub_recovers_every_cores_undo_log(capsys):
    def committed(cores):
        code, out = run_cli(capsys, "scrub", "queue", "--mode", "janus",
                            "--txns", "6", "--cores", cores)
        assert code == 0
        return int(re.search(r"recovery: (\d+) committed", out)
                   .group(1))

    assert committed("2") > committed("1")


def test_chart_lists_and_plots(capsys, tmp_path):
    ts = tmp_path / "ts.jsonl"
    run_cli(capsys, "run", "queue", "--mode", "janus", "--txns", "4",
            "--timeseries", "300", "--timeseries-out", str(ts))
    code, out = run_cli(capsys, "chart", str(ts))
    assert code == 0
    assert "wq.accepted" in out and "--metric" in out
    code, out = run_cli(capsys, "chart", str(ts),
                        "--metric", "wq.accepted")
    assert code == 0
    assert "wq.accepted" in out and "sim-ns" in out


def test_run_prom_exposition(capsys, tmp_path):
    prom = tmp_path / "metrics.prom"
    code, _out = run_cli(capsys, "run", "queue", "--txns", "4",
                         "--prom", str(prom))
    assert code == 0
    text = prom.read_text()
    assert "# TYPE repro_wq_accepted counter" in text
    assert "_sum" in text


def test_run_digest_artifact_is_topology_blind(capsys, tmp_path):
    """--digest crashes+recovers after the run and writes canonical
    JSON; serialized runs produce identical bytes at any --shards
    width (docs/sharding.md) — the CI sharded-smoke `cmp`."""
    import json as jsonlib

    unsharded = tmp_path / "d1.json"
    sharded = tmp_path / "d2.json"
    code, out = run_cli(capsys, "run", "queue", "--txns", "4",
                        "--mode", "serialized", "--digest",
                        str(unsharded))
    assert code == 0
    assert "recovered-structure digest" in out
    code, _out = run_cli(capsys, "run", "queue", "--txns", "4",
                         "--mode", "serialized", "--shards", "2",
                         "--digest", str(sharded))
    assert code == 0
    assert unsharded.read_bytes() == sharded.read_bytes()
    payload = jsonlib.loads(unsharded.read_text())
    assert payload["schema"] == "repro-digest-v1"
    assert len(payload["digest"]) == 64
    assert payload["transactions"] == 4
