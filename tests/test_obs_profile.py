"""Tests for the deterministic simulation profiler (repro.obs.profile)."""

import json

from repro.harness.runner import run_point
from repro.obs.profile import (
    SimProfiler,
    classify_callback,
    component_rows,
    fold_spans,
    folded_stacks_text,
    normalize_event_name,
    profile_report,
    render_hotspots,
)
from repro.obs.tracer import Tracer
from repro.sim import Simulator
from repro.workloads import WorkloadParams


class TestNormalization:
    def test_strips_call_arguments(self):
        assert normalize_event_name("timeout(15.0)") == "timeout"

    def test_drops_numeric_tokens(self):
        assert normalize_event_name("clwb:0x180") == "clwb"
        assert normalize_event_name("line:128") == "line"

    def test_strips_trailing_instance_digits(self):
        assert normalize_event_name("program0") == "program"
        assert normalize_event_name("core3") == "core"

    def test_keeps_meaningful_tokens(self):
        assert normalize_event_name("subop:aes") == "subop:aes"

    def test_all_digit_token_survives_as_itself(self):
        # rstrip of a pure-numeric token must not produce "".
        assert normalize_event_name("x:") == "x"

    def test_classify_timeout_and_process(self):
        """A sleep resumes its process directly, so the timeout is
        classified under the process; an event keys by its name."""
        sim = Simulator()
        event = sim.event("bmo-subops")
        assert classify_callback(event._dispatch) == "event:bmo-subops"

        def gen():
            yield sim.delay(1.0)

        proc = sim.process(gen(), name="program0")
        assert classify_callback(proc._step) == "process:program"
        sim.profile = SimProfiler()
        sim.run()
        assert {row["key"]: row["count"]
                for row in sim.profile.rows()} == {"process:program": 2}


class TestSimProfiler:
    def test_counts_every_dispatch(self):
        sim = Simulator()
        sim.profile = SimProfiler()

        def gen():
            for _ in range(5):
                yield sim.delay(1.0)

        sim.process(gen(), name="worker1")
        sim.run()
        assert sim.profile.total_events == sim.events
        counts = {row["key"]: row["count"]
                  for row in sim.profile.rows()}
        # The initial step and 5 delay resumes are bound to the
        # process; classified under one stable key.
        assert counts == {"process:worker": 6}

    def test_rows_ranked_by_count_then_key(self):
        profiler = SimProfiler()
        profiler.dispatch = {"b": [3, 0], "a": [3, 0], "c": [9, 0]}
        assert [r["key"] for r in profiler.rows()] == ["c", "a", "b"]

    def test_wall_ns_accumulates(self):
        sim = Simulator()
        ticks = iter(range(0, 1000, 10))
        sim.profile = SimProfiler(clock=lambda: next(ticks))
        sim._schedule(1.0, lambda: None)
        sim.run()
        assert sim.profile.total_wall_ns > 0


def _span(name, track, ts, dur):
    return {"name": name, "cat": "t", "ph": "X", "ts": ts,
            "dur": dur, "track": track}


class TestFoldSpans:
    def test_containment_nests(self):
        events = [
            _span("outer", ("p", "t"), 0.0, 100.0),
            _span("inner", ("p", "t"), 10.0, 30.0),
        ]
        folded, frames = fold_spans(events)
        assert folded["p;t;outer"] == 70.0
        assert folded["p;t;outer;inner"] == 30.0
        assert frames[("p", "t", "outer")] == [1, 100.0, 70.0]

    def test_overlap_is_sibling_not_child(self):
        # Two concurrent spans that merely overlap must not nest.
        events = [
            _span("a", ("p", "t"), 0.0, 50.0),
            _span("b", ("p", "t"), 30.0, 50.0),
        ]
        folded, _frames = fold_spans(events)
        assert folded["p;t;a"] == 50.0
        assert folded["p;t;b"] == 50.0
        assert "p;t;a;b" not in folded

    def test_tracks_are_independent(self):
        events = [
            _span("x", ("p1", "t"), 0.0, 10.0),
            _span("x", ("p2", "t"), 0.0, 10.0),
        ]
        folded, frames = fold_spans(events)
        assert folded == {"p1;t;x": 10.0, "p2;t;x": 10.0}
        assert len(frames) == 2

    def test_non_span_events_ignored(self):
        events = [
            {"name": "i", "ph": "i", "ts": 1.0, "track": ("p", "t")},
            {"name": "c", "ph": "C", "ts": 1.0, "track": ("p", "t"),
             "args": {"v": 1}},
        ]
        folded, frames = fold_spans(events)
        assert folded == {} and frames == {}

    def test_folded_text_format(self):
        text = folded_stacks_text({"p;t;a": 10.4, "p;t;a;b": 5.6,
                                   "p;t;zero": 0.2})
        lines = text.splitlines()
        # One "stack weight" pair per line, integer weights, sorted,
        # zero-rounding paths dropped — the flamegraph.pl contract.
        assert lines == ["p;t;a 10", "p;t;a;b 6"]
        for line in lines:
            stack, _sep, weight = line.rpartition(" ")
            assert stack and int(weight) > 0

    def test_component_rows_ranked_by_self(self):
        rows = component_rows({
            ("p", "t", "cold"): [1, 5.0, 5.0],
            ("p", "t", "hot"): [2, 50.0, 40.0],
        })
        assert [r["name"] for r in rows] == ["hot", "cold"]
        assert rows[0]["count"] == 2


class TestProfileReport:
    def _run(self):
        tracer = Tracer()
        profiler = SimProfiler()
        result = run_point(
            "queue", mode="janus", profiler=profiler, tracer=tracer,
            params=WorkloadParams(n_transactions=4))
        return profile_report(profiler, tracer, meta={
            "workload": "queue", "mode": "janus",
            "elapsed_ns": result.elapsed_ns}), profiler

    def test_report_is_deterministic_and_wall_free(self):
        first, _ = self._run()
        second, _ = self._run()
        assert json.dumps(first, sort_keys=True) == \
            json.dumps(second, sort_keys=True)
        assert "wall" not in json.dumps(first)

    def test_report_shape(self):
        report, profiler = self._run()
        assert report["schema"] == "repro-profile-v1"
        assert report["meta"]["dispatched_events"] == \
            profiler.total_events
        assert report["dispatch"][0]["count"] >= \
            report["dispatch"][-1]["count"]
        assert report["components"], "janus run must produce spans"
        top = report["components"][0]
        assert top["self_ns"] <= top["cum_ns"]
        assert report["folded"].splitlines()

    def test_render_hotspots_table(self):
        report, profiler = self._run()
        table = render_hotspots(report, profiler, top=5)
        assert "repro profile" in table
        assert "self sim-ns" in table
        assert "wall-clock is host-measured" in table
