"""Tests for structured run logging (repro.obs.log)."""

import json

import pytest

from repro.obs import log as runlog
from repro.obs.log import RunLog


@pytest.fixture(autouse=True)
def _clean_global_log():
    yield
    runlog.close()


class TestRunLog:
    def test_envelope_and_field_order(self):
        log = RunLog(run_id="r1", seed=7)
        log.event("faults", "injected", sim_ns=120.0, kind="bit_flip",
                  addr=0x40)
        log.event("harness", "done")
        records = log.records()
        assert records[0] == {
            "seq": 0, "component": "faults", "event": "injected",
            "level": "info", "run_id": "r1", "seed": 7,
            "sim_ns": 120.0, "kind": "bit_flip", "addr": 0x40,
        }
        assert records[1]["seq"] == 1
        assert "sim_ns" not in records[1]

    def test_none_fields_are_dropped(self):
        log = RunLog()
        log.event("c", "e", detail=None, kept=1)
        record = log.records()[0]
        assert "detail" not in record and record["kept"] == 1

    def test_min_level_filters(self):
        log = RunLog(min_level="warn")
        log.event("c", "quiet", level="debug")
        log.event("c", "loud", level="error")
        events = [r["event"] for r in log.records()]
        assert events == ["loud"]
        # seq numbers only advance for emitted records, so the log
        # stream stays dense.
        assert log.records()[0]["seq"] == 0

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError):
            RunLog(min_level="verbose")

    def test_lines_are_sorted_key_json(self):
        log = RunLog()
        log.event("c", "e", zebra=1, alpha=2)
        line = log.text().splitlines()[0]
        assert line == json.dumps(json.loads(line), sort_keys=True)

    def test_path_log_writes_jsonl(self, tmp_path):
        path = tmp_path / "deep" / "run.jsonl"
        log = RunLog(path=str(path))
        log.event("c", "e")
        log.close()
        assert json.loads(path.read_text())["event"] == "e"

    def test_text_unavailable_for_file_logs(self, tmp_path):
        log = RunLog(path=str(tmp_path / "run.jsonl"))
        with pytest.raises(ValueError):
            log.text()
        log.close()


class TestModuleLevelApi:
    def test_event_is_noop_when_unconfigured(self):
        runlog.close()
        runlog.event("c", "e", payload=1)  # must not raise
        assert runlog.current() is None

    def test_configure_install_and_close(self, tmp_path):
        path = tmp_path / "run.jsonl"
        log = runlog.configure(path=str(path), run_id="x", seed=3)
        assert runlog.current() is log
        runlog.event("c", "e")
        runlog.close()
        assert runlog.current() is None
        record = json.loads(path.read_text())
        assert record["run_id"] == "x" and record["seed"] == 3

    def test_configure_replaces_and_closes_previous(self, tmp_path):
        first = runlog.configure(path=str(tmp_path / "a.jsonl"))
        runlog.configure(path=str(tmp_path / "b.jsonl"))
        assert runlog.current() is not first
        # first was closed by the second configure
        assert first._stream.closed


class TestWiring:
    def test_run_point_logs_start_and_done(self):
        from repro.harness.runner import run_point
        from repro.workloads import WorkloadParams

        log = runlog.configure(run_id="t", seed=0)
        run_point("queue", mode="janus",
                  params=WorkloadParams(n_transactions=2))
        events = [(r["component"], r["event"]) for r in log.records()]
        assert ("harness.runner", "run_point.start") in events
        assert ("harness.runner", "run_point.done") in events
        done = [r for r in log.records()
                if r["event"] == "run_point.done"][0]
        assert done["sim_ns"] > 0 and done["transactions"] == 2

    def test_fault_injection_logged_with_sim_time(self):
        from repro.common.config import default_config
        from repro.core import NvmSystem
        from repro.faults import FaultInjector, FaultPlan
        from repro.workloads import WorkloadParams, make_workload

        log = runlog.configure(run_id="f", seed=11)
        injector = FaultInjector(
            FaultPlan.seeded(11, ("media_write_flip",)))
        system = NvmSystem(default_config(mode="serialized", seed=11),
                           injector=injector)
        workload = make_workload(
            "queue", system, system.cores[0],
            WorkloadParams(n_transactions=4), variant="baseline")
        system.run_programs([workload.run()])
        injected = [r for r in log.records()
                    if (r["component"], r["event"]) ==
                    ("faults", "injected")]
        assert injected, "seeded plan should fire at least once"
        assert injected[0]["level"] == "warn"
        assert injected[0]["kind"] == "media_write_flip"
        assert "sim_ns" in injected[0]

    def test_invariant_violation_logged_and_traced(self):
        from repro.common.config import default_config
        from repro.core import NvmSystem
        from repro.obs.tracer import Tracer
        from repro.validate import InvariantViolation
        from repro.validate.invariants import InvariantChecker

        log = runlog.configure(run_id="v", seed=0)
        tracer = Tracer()
        system = NvmSystem(default_config(mode="janus"), tracer=tracer)
        checker = InvariantChecker(system)

        def boom(_wq):
            raise InvariantViolation("wq-duplicate", "mem", "dup 0x40")

        checker.check_write_queue = boom
        with pytest.raises(InvariantViolation):
            checker.check_all(full=False)
        records = [r for r in log.records()
                   if r["event"] == "invariant_violation"]
        assert records and records[0]["invariant"] == "wq-duplicate"
        assert records[0]["level"] == "error"
        instants = [e for e in tracer.events
                    if e["ph"] == "i" and
                    e["name"].startswith("violation:")]
        assert instants and instants[0]["cat"] == "validate"
        assert instants[0]["args"]["layer"] == "mem"

    def test_parallel_failures_logged(self):
        from repro.harness.parallel import ParallelExecutor, SweepTask

        log = runlog.configure(run_id="p", seed=0)
        executor = ParallelExecutor(jobs=1, retries=1)
        results = executor.map([SweepTask(
            key=("bad",), fn="repro.harness.parallel:resolve_callable",
            args=("not-a-dotted-path",))])
        assert not results[0].ok
        events = [r["event"] for r in log.records()]
        assert "task_retry" in events
        assert "task_failed" in events

    def test_cli_log_flag_writes_byte_identical_logs(self, tmp_path):
        from repro.cli import main

        paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        for path in paths:
            status = main(["run", "queue", "--mode", "janus",
                           "--txns", "2", "--log", str(path)])
            assert status == 0
        first, second = [p.read_text() for p in paths]
        assert first == second
        records = [json.loads(line)
                   for line in first.splitlines() if line]
        assert records[0]["event"] == "start"
        assert records[0]["run_id"] == "run-queue-janus"
        assert records[-1]["event"] == "exit"
        assert records[-1]["status"] == 0
