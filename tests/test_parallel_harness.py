"""The parallel sweep executor: determinism, retries, failures.

The executor's contract is that sharding a sweep across worker
processes changes *nothing* but wall-clock:

1. figure sweeps, campaign reports and the run log are byte-identical
   at any job count (each is assembled in task-submission order);
2. a raising task, a wedged worker and a dead worker are retried up
   to the bounded budget and then recorded as a failed
   :class:`TaskResult` — the sweep itself never sinks;
3. ``jobs=1`` never spawns a process (inline path, same code route);
4. a map reuses at most ``jobs`` workers and joins every one of them
   before it returns or raises.

Worker functions used by the process path live at module scope so
they pickle by reference.
"""

import json
import multiprocessing
import os
import time

import pytest

from repro.harness import parallel
from repro.harness.crash_campaign import CampaignConfig, run_campaign
from repro.harness.experiments import fig9_multicore
from repro.harness.parallel import (
    ENV_JOBS,
    ParallelExecutor,
    SweepTask,
    TaskResult,
    resolve_jobs,
    run_task,
)
from repro.obs import log as runlog


# -- worker functions (module scope: they pickle by reference) ------------
def _double(x):
    return 2 * x


def _boom(x):
    raise ValueError(f"boom {x}")


def _sleepy(seconds, value):
    time.sleep(seconds)
    return value


def _flaky(marker_path, fail_times, value):
    """Fail the first ``fail_times`` calls (counted via a marker file
    so the count survives process boundaries), then succeed."""
    with open(marker_path, "a") as handle:
        handle.write("x\n")
    with open(marker_path) as handle:
        calls = len(handle.readlines())
    if calls <= fail_times:
        raise RuntimeError(f"flaky failure #{calls}")
    return value


def _slow_once(marker_path, sleep_s, value):
    """Sleep long on the first call only (marker file counts attempts
    across process boundaries), then return instantly."""
    with open(marker_path, "a") as handle:
        handle.write("x\n")
    with open(marker_path) as handle:
        calls = len(handle.readlines())
    if calls == 1:
        time.sleep(sleep_s)
    return value


def _pid(_x):
    return os.getpid()


def _die(code):
    os._exit(code)


def _logged(seconds, value):
    """Emit a run-log record inside the task, after a sleep."""
    time.sleep(seconds)
    runlog.event("test", "task", value=value)
    return value


def _tasks(n, fn=_double):
    return [SweepTask(key=("t", i), fn=fn, args=(i,)) for i in range(n)]


@pytest.fixture
def run_log():
    """An in-memory run log; ``run_log(event)`` lists the records of
    that event the executor emitted."""
    log = runlog.configure()
    yield lambda event: [r for r in log.records() if r["event"] == event]
    runlog.close()


# -- resolution -----------------------------------------------------------
class TestResolveJobs:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv(ENV_JOBS, "7")
        assert resolve_jobs(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(ENV_JOBS, "5")
        assert resolve_jobs() == 5

    def test_bad_env_ignored(self, monkeypatch):
        monkeypatch.setenv(ENV_JOBS, "many")
        assert resolve_jobs() >= 1

    def test_floor_is_one(self):
        assert resolve_jobs(0) == 1
        assert resolve_jobs(-4) == 1


# -- determinism: sweeps are byte-identical at any job count --------------
class TestByteIdenticalMerge:
    def test_fig9_jobs1_vs_jobs4(self):
        kwargs = dict(scale=0.5, core_counts=(1, 2),
                      workloads=["array_swap", "queue"])
        serial = fig9_multicore(jobs=1, **kwargs)
        sharded = fig9_multicore(jobs=4, **kwargs)
        assert serial.rendered == sharded.rendered
        assert serial.data == sharded.data

    def test_campaign_slice_jobs1_vs_jobs4(self):
        config = CampaignConfig(workloads=("array_swap",), points=6,
                                n_transactions=6,
                                fault_scenarios=False)
        serial = run_campaign(config, jobs=1)
        sharded = run_campaign(config, jobs=4)
        text = lambda r: json.dumps(r, indent=2, sort_keys=True)  # noqa: E731
        assert text(serial) == text(sharded)
        assert serial["summary"]["violations"] == 0

    def test_results_in_submission_order(self):
        # Completion order is reversed (later tasks sleep less), but
        # the merged result list must follow submission order.
        delays = [0.20, 0.12, 0.05, 0.01]
        tasks = [SweepTask(key=("d", i), fn=_sleepy, args=(delay, i))
                 for i, delay in enumerate(delays)]
        results = ParallelExecutor(jobs=4).map(tasks)
        assert [r.key for r in results] == [("d", i)
                                            for i in range(len(delays))]
        assert [r.value for r in results] == list(range(len(delays)))


# -- failure handling: retry, then record without sinking -----------------
class TestFailureHandling:
    @pytest.mark.parametrize("jobs", [1, 3])
    def test_raising_task_retried_then_recorded(self, jobs, run_log):
        executor = ParallelExecutor(jobs=jobs)
        tasks = _tasks(3) + [SweepTask(key=("bad",), fn=_boom, args=(9,))]
        results = executor.map(tasks)
        assert len(results) == 4
        by_key = {r.key: r for r in results}
        bad = by_key[("bad",)]
        assert not bad.ok
        assert "boom 9" in bad.error
        assert bad.attempts == 2  # one retry -> two attempts
        for i in range(3):  # the sweep itself did not sink
            assert by_key[("t", i)].ok
            assert by_key[("t", i)].value == 2 * i
        assert [r["key"] for r in run_log("task_retry")] == [["bad"]]
        assert [r["key"] for r in run_log("task_failed")] == [["bad"]]

    @pytest.mark.parametrize("jobs", [1, 3])
    def test_flaky_task_recovers_on_retry(self, jobs, tmp_path):
        marker = tmp_path / f"flaky-{jobs}.marker"
        task = SweepTask(key=("f",), fn=_flaky,
                         args=(str(marker), 1, "ok"))
        results = ParallelExecutor(jobs=jobs).map([task] + _tasks(2))
        flaky = {r.key: r for r in results}[("f",)]
        assert flaky.ok and flaky.value == "ok"
        assert flaky.attempts == 2

    def test_timed_out_worker_terminated_and_recorded(self, run_log):
        executor = ParallelExecutor(jobs=2, timeout_s=0.25)
        tasks = [SweepTask(key=("slow",), fn=_sleepy,
                           args=(30.0, None))] + _tasks(2)
        start = time.perf_counter()
        results = executor.map(tasks)
        assert time.perf_counter() - start < 10.0  # terminated, not joined
        slow = {r.key: r for r in results}[("slow",)]
        assert not slow.ok
        assert slow.error.startswith("TaskTimeout")
        assert slow.attempts == 2
        assert len(run_log("task_timeout")) == 2  # both attempts
        for r in results:
            if r.key != ("slow",):
                assert r.ok

    def test_timeout_once_then_retry_matches_inline_output(self,
                                                           tmp_path,
                                                           run_log):
        """Retry/timeout interplay: a task whose first attempt times
        out and is killed, but whose retry succeeds, must yield the
        same merged results as the inline (jobs=1) run — the timeout
        machinery may cost wall-clock, never output."""
        marker = tmp_path / "slow-once.marker"
        executor = ParallelExecutor(jobs=2, timeout_s=1.0)
        tasks = _tasks(3) + [SweepTask(key=("slow",), fn=_slow_once,
                                       args=(str(marker), 30.0, "v"))]
        results = executor.map(tasks)
        slow = {r.key: r for r in results}[("slow",)]
        assert slow.ok and slow.value == "v"
        assert slow.attempts == 2  # first attempt was killed
        assert len(run_log("task_timeout")) == 1
        assert len(run_log("task_retry")) == 1
        assert run_log("task_failed") == []

        # Inline reference: pre-seed the marker so the single inline
        # call takes the fast path (jobs=1 ignores timeout_s).
        inline_marker = tmp_path / "inline.marker"
        inline_marker.write_text("x\n")
        inline_tasks = _tasks(3) + [SweepTask(
            key=("slow",), fn=_slow_once,
            args=(str(inline_marker), 30.0, "v"))]
        inline = ParallelExecutor(jobs=1).map(inline_tasks)
        assert [r.key for r in inline] == [r.key for r in results]
        assert [r.value for r in inline] == [r.value for r in results]
        assert [r.ok for r in inline] == [r.ok for r in results]

    def test_map_values_strict_raises_with_context(self):
        executor = ParallelExecutor(jobs=1)
        with pytest.raises(RuntimeError, match="boom 0"):
            executor.map_values(_tasks(2, fn=_boom))

    def test_dead_worker_replaced_then_recorded(self, run_log):
        results = ParallelExecutor(jobs=2).map(
            _tasks(3) + [SweepTask(key=("dead",), fn=_die, args=(3,))])
        dead = {r.key: r for r in results}[("dead",)]
        assert not dead.ok and dead.attempts == 2
        assert dead.error == \
            "WorkerDied: exit code 3 before sending a result"
        assert [r.value for r in results[:3]] == [0, 2, 4]
        assert [r["key"] for r in run_log("task_retry")] == [["dead"]]


# -- worker reuse and lifecycle -------------------------------------------
def _map_normal():
    assert len(ParallelExecutor(jobs=2).map(_tasks(6))) == 6


def _map_strict_failure():
    with pytest.raises(RuntimeError, match="boom"):
        ParallelExecutor(jobs=2).map_values(
            _tasks(3) + _tasks(1, fn=_boom))


def _map_timeout():
    results = ParallelExecutor(jobs=2, timeout_s=0.2).map(
        [SweepTask(key=("slow",), fn=_sleepy, args=(30.0, None))]
        + _tasks(2))
    assert results[0].error.startswith("TaskTimeout")


def _map_worker_death():
    results = ParallelExecutor(jobs=2).map(
        [SweepTask(key=("dead",), fn=_die, args=(1,))] + _tasks(2))
    assert results[0].error.startswith("WorkerDied")


class TestWorkerLifecycle:
    def test_workers_are_reused(self):
        results = ParallelExecutor(jobs=2).map(_tasks(20, fn=_pid))
        pids = {r.value for r in results}
        assert len(pids) <= 2 and os.getpid() not in pids

    @pytest.mark.parametrize("jobs,n,expected", [(2, 20, 2), (8, 3, 3)])
    def test_workers_started(self, monkeypatch, jobs, n, expected):
        started = []

        class Counted(parallel._Worker):
            def __init__(self, ctx):
                super().__init__(ctx)
                started.append(self)

        monkeypatch.setattr(parallel, "_Worker", Counted)
        ParallelExecutor(jobs=jobs).map(_tasks(n))
        assert len(started) == expected

    @pytest.mark.parametrize("scenario", [
        _map_normal, _map_strict_failure, _map_timeout,
        _map_worker_death], ids=lambda f: f.__name__[5:])
    def test_no_worker_outlives_the_map(self, scenario):
        scenario()
        assert multiprocessing.active_children() == []


# -- the run log: captured in workers, written in submission order --------
class TestRunLogAcrossJobs:
    def test_task_records_written_in_submission_order(self, tmp_path):
        # Later tasks finish first; their records must not jump ahead.
        tasks = [SweepTask(key=("d", i), fn=_logged, args=(delay, i))
                 for i, delay in enumerate([0.2, 0.1, 0.0, 0.0])]
        texts = []
        for jobs in (1, 2):
            path = tmp_path / f"jobs{jobs}.jsonl"
            runlog.configure(path=str(path), run_id="t", seed=0)
            try:
                runlog.event("test", "before")
                ParallelExecutor(jobs=jobs).map(tasks)
                runlog.event("test", "after")
            finally:
                runlog.close()
            texts.append(path.read_text())
        assert texts[0] == texts[1]
        records = [json.loads(line) for line in texts[0].splitlines()]
        assert [r.get("value") for r in records] == [None, 0, 1, 2, 3,
                                                     None]
        assert [r["seq"] for r in records] == list(range(6))

    def test_campaign_slice_log_jobs1_vs_jobs2(self, tmp_path):
        config = CampaignConfig(workloads=("array_swap",), points=3,
                                n_transactions=6)
        texts = []
        for jobs in (1, 2):
            path = tmp_path / f"crash{jobs}.jsonl"
            runlog.configure(path=str(path), run_id="crashtest", seed=7)
            try:
                run_campaign(config, jobs=jobs)
            finally:
                runlog.close()
            texts.append(path.read_bytes())
        assert texts[0] == texts[1]
        events = [json.loads(line)["event"]
                  for line in texts[0].decode().splitlines()]
        # Records emitted inside the fault-scenario tasks are kept.
        assert "injected" in events


# -- inline path ----------------------------------------------------------
class TestInlinePath:
    def test_jobs1_never_spawns(self, monkeypatch):
        def _no_processes(self, tasks, ctx):
            raise AssertionError("jobs=1 must not take the process path")

        monkeypatch.setattr(ParallelExecutor, "_map_processes",
                            _no_processes)
        results = ParallelExecutor(jobs=1).map(_tasks(3))
        assert [r.value for r in results] == [0, 2, 4]

    def test_single_task_runs_inline_even_with_many_jobs(self,
                                                         monkeypatch):
        monkeypatch.setattr(
            ParallelExecutor, "_map_processes",
            lambda self, tasks, ctx: pytest.fail("spawned for 1 task"))
        results = ParallelExecutor(jobs=8).map(_tasks(1))
        assert results[0].ok and results[0].value == 0

    def test_empty_task_list(self):
        assert ParallelExecutor(jobs=4).map([]) == []


class TestRunTask:
    def test_run_task_never_raises(self):
        result = run_task(SweepTask(key=("x",), fn=_boom, args=(1,)))
        assert isinstance(result, TaskResult)
        assert not result.ok and "ValueError" in result.error
        assert "boom 1" in result.traceback
