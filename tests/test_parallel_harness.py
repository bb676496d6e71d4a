"""The parallel sweep executor: determinism, retries, failures.

The executor's contract is that sharding a sweep across worker
processes changes *nothing* but wall-clock:

1. figure sweeps and campaign reports are byte-identical at any job
   count (the merged output is assembled in task-submission order);
2. a raising or wedged worker is retried up to the bounded budget and
   then recorded as a failed :class:`TaskResult` — the sweep itself
   never sinks;
3. ``jobs=1`` never spawns a process (inline path, same code route).

Worker functions used by the process path live at module scope so a
forked child can resolve them by dotted path via ``sys.modules``.
"""

import json
import time

import pytest

from repro.harness.crash_campaign import CampaignConfig, run_campaign
from repro.harness.experiments import fig9_multicore
from repro.harness.parallel import (
    ENV_JOBS,
    ParallelExecutor,
    SweepTask,
    TaskResult,
    resolve_callable,
    resolve_jobs,
    run_task,
)
from repro.obs import log as runlog

_HERE = __name__  # dotted module path for worker-resolvable fns


# -- worker functions (must be importable from a forked child) ------------
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


def _tasks(n, fn="_double"):
    return [SweepTask(key=("t", i), fn=f"{_HERE}:{fn}", args=(i,))
            for i in range(n)]


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

    def test_resolve_callable_rejects_plain_dotted(self):
        with pytest.raises(ValueError):
            resolve_callable("repro.harness.parallel.run_task")


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
        tasks = [SweepTask(key=("d", i), fn=f"{_HERE}:_sleepy",
                           args=(delay, i))
                 for i, delay in enumerate(delays)]
        results = ParallelExecutor(jobs=4).map(tasks)
        assert [r.key for r in results] == [("d", i)
                                            for i in range(len(delays))]
        assert [r.value for r in results] == list(range(len(delays)))


# -- failure handling: retry, then record without sinking -----------------
class TestFailureHandling:
    @pytest.mark.parametrize("jobs", [1, 3])
    def test_raising_task_retried_then_recorded(self, jobs, run_log):
        executor = ParallelExecutor(jobs=jobs, retries=1)
        tasks = _tasks(3) + [SweepTask(key=("bad",),
                                       fn=f"{_HERE}:_boom", args=(9,))]
        results = executor.map(tasks)
        assert len(results) == 4
        by_key = {r.key: r for r in results}
        bad = by_key[("bad",)]
        assert not bad.ok
        assert "boom 9" in bad.error
        assert bad.attempts == 2  # retries=1 -> two attempts
        for i in range(3):  # the sweep itself did not sink
            assert by_key[("t", i)].ok
            assert by_key[("t", i)].value == 2 * i
        assert [r["key"] for r in run_log("task_retry")] == [["bad"]]
        assert [r["key"] for r in run_log("task_failed")] == [["bad"]]

    @pytest.mark.parametrize("jobs", [1, 3])
    def test_flaky_task_recovers_on_retry(self, jobs, tmp_path):
        marker = tmp_path / f"flaky-{jobs}.marker"
        task = SweepTask(key=("f",), fn=f"{_HERE}:_flaky",
                         args=(str(marker), 1, "ok"))
        results = ParallelExecutor(jobs=jobs, retries=1).map([task] +
                                                             _tasks(2))
        flaky = {r.key: r for r in results}[("f",)]
        assert flaky.ok and flaky.value == "ok"
        assert flaky.attempts == 2

    def test_timed_out_worker_terminated_and_recorded(self, run_log):
        executor = ParallelExecutor(jobs=2, timeout_s=0.25, retries=1)
        tasks = [SweepTask(key=("slow",), fn=f"{_HERE}:_sleepy",
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
        executor = ParallelExecutor(jobs=2, timeout_s=1.0, retries=1)
        tasks = _tasks(3) + [SweepTask(key=("slow",),
                                       fn=f"{_HERE}:_slow_once",
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
            key=("slow",), fn=f"{_HERE}:_slow_once",
            args=(str(inline_marker), 30.0, "v"))]
        inline = ParallelExecutor(jobs=1).map(inline_tasks)
        assert [r.key for r in inline] == [r.key for r in results]
        assert [r.value for r in inline] == [r.value for r in results]
        assert [r.ok for r in inline] == [r.ok for r in results]

    def test_map_values_strict_raises_with_context(self):
        executor = ParallelExecutor(jobs=1, retries=0)
        with pytest.raises(RuntimeError, match="boom 0"):
            executor.map_values(_tasks(2, fn="_boom"))

    def test_map_values_non_strict_drops_failures(self):
        executor = ParallelExecutor(jobs=1, retries=0)
        values = executor.map_values(
            _tasks(2) + _tasks(1, fn="_boom"), strict=False)
        assert values == {("t", 0): 0, ("t", 1): 2}


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
        result = run_task(SweepTask(key=("x",), fn=f"{_HERE}:_boom",
                                    args=(1,)))
        assert isinstance(result, TaskResult)
        assert not result.ok and "ValueError" in result.error
        assert "boom 1" in result.traceback
