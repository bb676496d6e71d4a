"""Chrome trace-event (Perfetto) exporter: schema and CLI tests."""

import json

from repro.cli import main
from repro.common.config import default_config
from repro.core import NvmSystem
from repro.obs import Tracer, export_chrome_trace, to_chrome_trace
from repro.workloads import WorkloadParams, make_workload


def traced_janus_run(n_txns=6):
    tracer = Tracer()
    system = NvmSystem(default_config(mode="janus"), tracer=tracer)
    workload = make_workload(
        "hash_table", system, system.cores[0],
        WorkloadParams(n_items=16, value_size=64, n_transactions=n_txns),
        variant="manual")
    system.run_programs([workload.run()])
    return tracer


class TestSchema:
    def test_envelope_and_required_fields(self):
        tracer = traced_janus_run()
        doc = to_chrome_trace(tracer.events)
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        events = doc["traceEvents"]
        assert events
        for event in events:
            assert {"name", "ph", "pid", "tid"} <= set(event)
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)
            if event["ph"] == "X":
                assert isinstance(event["ts"], float)
                assert isinstance(event["dur"], float)
                assert event["dur"] >= 0.0

    def test_ns_to_us_conversion(self):
        tracer = Tracer()
        tracer.complete("x", "c", ("p", "t"), start_ns=2000.0,
                        dur_ns=500.0)
        doc = to_chrome_trace(tracer.events)
        span = [e for e in doc["traceEvents"] if e["ph"] == "X"][0]
        assert span["ts"] == 2.0 and span["dur"] == 0.5

    def test_track_metadata_records(self):
        tracer = traced_janus_run()
        doc = to_chrome_trace(tracer.events)
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        processes = {e["args"]["name"] for e in meta
                     if e["name"] == "process_name"}
        threads = {e["args"]["name"] for e in meta
                   if e["name"] == "thread_name"}
        assert {"bmo", "write-path"} <= processes
        assert "irb" in threads and "core0" in threads

    def test_stable_track_ids(self):
        tracer = Tracer()
        for i in range(3):
            tracer.complete("x", "c", ("p", "t"), float(i), 1.0)
        doc = to_chrome_trace(tracer.events)
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len({(e["pid"], e["tid"]) for e in spans}) == 1

    def test_bmo_suboperations_overlap_on_distinct_tracks(self):
        """The Fig. 3 property: concurrent sub-ops of one write are
        visible as overlapping spans on different timeline rows."""
        tracer = traced_janus_run()
        doc = to_chrome_trace(tracer.events)
        bmo = sorted((e for e in doc["traceEvents"]
                      if e["ph"] == "X" and e["cat"] == "bmo"),
                     key=lambda e: e["ts"])
        assert len({e["tid"] for e in bmo}) > 1
        overlaps = any(
            a["tid"] != b["tid"]
            and a["ts"] < b["ts"] + b["dur"]
            and b["ts"] < a["ts"] + a["dur"]
            for i, a in enumerate(bmo) for b in bmo[i + 1:i + 12])
        assert overlaps

    def test_export_writes_valid_json(self, tmp_path):
        tracer = traced_janus_run()
        path = tmp_path / "trace.json"
        text = export_chrome_trace(tracer, str(path))
        assert json.loads(path.read_text()) == json.loads(text)


class TestCli:
    def run_cli(self, capsys, *argv):
        code = main(list(argv))
        return code, capsys.readouterr().out

    def test_run_with_trace_and_stats(self, capsys, tmp_path):
        tpath = tmp_path / "t.json"
        spath = tmp_path / "s.json"
        code, out = self.run_cli(
            capsys, "run", "hash_table", "--mode", "janus",
            "--txns", "6", "--trace", str(tpath), "--stats", str(spath))
        assert code == 0
        assert "perfetto" in out
        trace = json.loads(tpath.read_text())
        assert trace["traceEvents"]
        snap = json.loads(spath.read_text())
        assert snap["schema"] == "repro-stats-v1"
        assert snap["counters"]["irb.hits"] >= 0
        assert snap["counters"]["irb.misses"] >= 0
        assert "wq.occupancy" in snap["histograms"]
        assert any(k.startswith("bmo.subop.")
                   for k in snap["histograms"])
        assert snap["meta"]["workload"] == "hash_table"

    def test_stats_subcommand_single(self, capsys, tmp_path):
        spath = tmp_path / "s.json"
        self.run_cli(capsys, "run", "queue", "--txns", "4",
                     "--stats", str(spath))
        code, out = self.run_cli(capsys, "stats", str(spath))
        assert code == 0
        assert "mc.writebacks" in out

    def test_stats_subcommand_diff(self, capsys, tmp_path):
        a = tmp_path / "serialized.json"
        b = tmp_path / "janus.json"
        self.run_cli(capsys, "run", "queue", "--txns", "4",
                     "--mode", "serialized", "--stats", str(a))
        self.run_cli(capsys, "run", "queue", "--txns", "4",
                     "--mode", "janus", "--stats", str(b))
        code, out = self.run_cli(capsys, "stats", str(a), str(b))
        assert code == 0
        assert "delta:" in out
        # Janus-only counters appear as pure additions.
        assert "irb.hits" in out or "janus.requests" in out


class TestObsV2Events:
    """PR 6: fault/violation instants and time-series counter tracks
    land in the Chrome trace alongside the spans."""

    def test_timeseries_counter_tracks_in_trace(self, capsys, tmp_path):
        tpath = tmp_path / "t.json"
        code = main(["run", "hash_table", "--mode", "janus",
                     "--txns", "6", "--trace", str(tpath),
                     "--timeseries", "500",
                     "--timeseries-out", str(tmp_path / "ts.jsonl")])
        capsys.readouterr()
        assert code == 0
        doc = json.loads(tpath.read_text())
        counters = [e for e in doc["traceEvents"] if e["ph"] == "C"]
        names = {e["name"] for e in counters}
        assert any(n.startswith("ts:") for n in names)
        assert "ts:wq.accepted" in names
        # Counter samples carry the sampled value for Perfetto's
        # counter-track rendering.
        sample = [e for e in counters
                  if e["name"] == "ts:wq.accepted"][-1]
        assert "wq.accepted" in sample["args"]

    def test_violation_instant_round_trips(self):
        tracer = Tracer()
        tracer.instant("violation:wq-duplicate", "validate",
                       ("validate", "mem"), ts_ns=120.0,
                       args={"invariant": "wq-duplicate"})
        doc = to_chrome_trace(tracer.events)
        instants = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        assert instants[0]["name"] == "violation:wq-duplicate"
        assert instants[0]["s"] == "t"
        assert instants[0]["args"]["invariant"] == "wq-duplicate"
