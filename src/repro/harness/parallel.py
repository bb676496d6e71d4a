"""Parallel sweep executor: shard independent simulation points.

Every figure sweep and the crash, soak and fuzz campaigns run
*sealed* simulation points: a point is fully determined by its
arguments (workload, mode, seed, config), shares no state with its
neighbours, and produces a picklable result.  This module is the one
backend that runs such point sets — inline in this process, or
sharded across worker processes — while guaranteeing that the merged
output is **byte-identical regardless of the worker count**:

* a :class:`SweepTask` names its workload as a ``module:callable``
  dotted path plus picklable args, so a fresh worker process can
  re-resolve and run it (:func:`run_task` is the pure entry point);
* :class:`ParallelExecutor` runs one short-lived process per task
  (up to ``jobs`` concurrently), giving real per-task timeouts —
  a wedged point is terminated, retried up to ``retries`` times
  (the bounded-retry idiom of
  :class:`repro.faults.DegradedModeManager`), and finally recorded
  as a failed :class:`TaskResult` without sinking the sweep;
* results are merged **in task-submission order**, never completion
  order, so ``results/CRASHTEST_*.json`` and the figure tables stay
  byte-identical to a serial run;
* retries, timeouts and final failures are events in the run log
  (:mod:`repro.obs.log`: ``task_retry`` / ``task_timeout`` /
  ``task_failed``), and each :class:`TaskResult` carries its attempts.

Worker count resolution (:func:`resolve_jobs`): an explicit ``jobs``
argument wins, then the ``REPRO_JOBS`` environment variable, then
``os.cpu_count()``.  ``jobs=1`` (or an unavailable ``multiprocessing``)
never spawns a process — the sweep runs inline, including the
retries, so the two paths differ only in wall-clock.
"""

import os
import time
import traceback
from dataclasses import dataclass, field
from importlib import import_module
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs import log as runlog

#: Environment variable consulted when no explicit ``jobs`` is given.
ENV_JOBS = "REPRO_JOBS"
#: Default bounded-retry budget per task (attempts = retries + 1).
DEFAULT_RETRIES = 1
#: Seconds between liveness polls of the worker set.
_POLL_S = 0.02


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Worker count: explicit ``jobs`` > ``$REPRO_JOBS`` > cpu count."""
    if jobs is not None:
        return max(1, int(jobs))
    env = os.environ.get(ENV_JOBS)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return os.cpu_count() or 1


def _mp_context():
    """A usable multiprocessing context, or ``None``.

    Prefers ``fork`` (cheap on Linux; inherits ``sys.path`` and loaded
    modules) and falls back to ``spawn``.  Platforms without working
    multiprocessing primitives yield ``None`` → inline execution.
    """
    try:
        import multiprocessing as mp
        methods = mp.get_all_start_methods()
        if "fork" in methods:
            return mp.get_context("fork")
        if methods:
            return mp.get_context(methods[0])
    except (ImportError, OSError, ValueError):
        pass
    return None


def resolve_callable(path: str) -> Callable:
    """``pkg.module:attr`` (or dotted ``attr.sub``) → the callable."""
    module_name, sep, attr = path.partition(":")
    if not sep:
        raise ValueError(
            f"task fn {path!r} must be 'module:callable'")
    target = import_module(module_name)
    for part in attr.split("."):
        target = getattr(target, part)
    return target


@dataclass(frozen=True)
class SweepTask:
    """One sealed simulation point.

    ``key`` identifies the point in the merged result set (tuples sort
    and compare well); ``fn`` is a ``module:callable`` path resolved
    *inside the worker*, so the task itself stays picklable no matter
    what the callable is.  ``args``/``kwargs`` must be picklable.
    """

    key: Tuple
    fn: str
    args: Tuple = ()
    kwargs: Dict = field(default_factory=dict)


@dataclass
class TaskResult:
    """Outcome of one task, success or not — sweeps never raise."""

    key: Tuple
    ok: bool
    value: object = None
    error: str = ""
    traceback: str = ""
    #: Attempts consumed (1 = first try succeeded).
    attempts: int = 1


def run_task(task: SweepTask) -> TaskResult:
    """Pure worker entry point: resolve, run, classify.

    Runs in the worker process (or inline).  Never raises: failures
    come back as ``ok=False`` with the error and traceback rendered to
    strings (exception objects themselves may not be picklable).
    """
    try:
        value = resolve_callable(task.fn)(*task.args, **task.kwargs)
        return TaskResult(key=task.key, ok=True, value=value)
    except BaseException as error:  # noqa: BLE001 — report, don't sink
        return TaskResult(
            key=task.key, ok=False,
            error=f"{type(error).__name__}: {error}",
            traceback=traceback.format_exc())


def _worker_main(conn, task: SweepTask) -> None:
    """Child process body: run one task, ship the result, exit."""
    try:
        result = run_task(task)
        try:
            conn.send(result)
        except Exception:
            # The *value* may fail to pickle even though the task ran;
            # resend as an explicit failure so the parent can retry or
            # record it instead of seeing a silent dead worker.
            conn.send(TaskResult(
                key=task.key, ok=False,
                error="ResultPickleError: task result was not "
                      "picklable", traceback=traceback.format_exc()))
    finally:
        conn.close()


class ParallelExecutor:
    """Run a task list across worker processes; merge deterministically.

    ``map`` returns one :class:`TaskResult` per task **in submission
    order**.  ``jobs=1`` (or no usable multiprocessing) executes
    inline in this process; ``timeout_s`` then cannot preempt a wedged
    task and is ignored (cooperative execution has no kill switch).
    """

    def __init__(self, jobs: Optional[int] = None,
                 timeout_s: Optional[float] = None,
                 retries: int = DEFAULT_RETRIES,
                 progress: Optional[Callable[[int, int, int], None]]
                 = None):
        self.jobs = resolve_jobs(jobs)
        self.timeout_s = timeout_s
        self.retries = max(0, retries)
        self.progress = progress

    # -- bookkeeping shared by both paths --------------------------------
    def _record(self, result: TaskResult) -> None:
        if not result.ok:
            runlog.event("harness.parallel", "task_failed",
                         level="error", key=list(result.key),
                         error=result.error, attempts=result.attempts)

    def _report(self, done: int, total: int, failed: int) -> None:
        if self.progress is not None:
            self.progress(done, total, failed)

    # -- public API -------------------------------------------------------
    def map(self, tasks: Sequence[SweepTask]) -> List[TaskResult]:
        tasks = list(tasks)
        if not tasks:
            return []
        if self.jobs <= 1 or len(tasks) == 1:
            return self._map_inline(tasks)
        ctx = _mp_context()
        if ctx is None:
            return self._map_inline(tasks)
        return self._map_processes(tasks, ctx)

    def map_values(self, tasks: Sequence[SweepTask],
                   strict: bool = True) -> Dict[Tuple, object]:
        """``key -> value`` for every task; raise on failure if strict."""
        results = self.map(tasks)
        if strict:
            failed = [r for r in results if not r.ok]
            if failed:
                first = failed[0]
                raise RuntimeError(
                    f"{len(failed)}/{len(results)} sweep tasks failed; "
                    f"first: {first.key} {first.error}\n"
                    f"{first.traceback}")
        return {r.key: r.value for r in results if r.ok}

    # -- inline path ------------------------------------------------------
    def _map_inline(self, tasks: List[SweepTask]) -> List[TaskResult]:
        results: List[TaskResult] = []
        failed = 0
        for task in tasks:
            result = run_task(task)
            attempts = 1
            while not result.ok and attempts <= self.retries:
                runlog.event("harness.parallel", "task_retry",
                             level="warn", key=list(task.key),
                             attempt=attempts, error=result.error)
                result = run_task(task)
                attempts += 1
            result.attempts = attempts
            self._record(result)
            failed += 0 if result.ok else 1
            results.append(result)
            self._report(len(results), len(tasks), failed)
        return results

    # -- process path -----------------------------------------------------
    def _map_processes(self, tasks: List[SweepTask],
                       ctx) -> List[TaskResult]:
        results: List[Optional[TaskResult]] = [None] * len(tasks)
        pending = list(range(len(tasks)))  # popped front-first
        attempts = [0] * len(tasks)
        running: Dict[int, Tuple] = {}  # index -> (proc, conn, t0)
        done = failed = 0

        def launch(index: int) -> None:
            parent_conn, child_conn = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_worker_main,
                               args=(child_conn, tasks[index]),
                               daemon=True)
            proc.start()
            child_conn.close()
            attempts[index] += 1
            running[index] = (proc, parent_conn, time.perf_counter())

        def finish(index: int, result: TaskResult) -> None:
            nonlocal done, failed
            proc, conn, _t0 = running.pop(index)
            conn.close()
            proc.join()
            result.attempts = attempts[index]
            results[index] = result
            self._record(result)
            done += 1
            failed += 0 if result.ok else 1
            self._report(done, len(tasks), failed)

        def retry_or_fail(index: int, error: str, tb: str = "") -> None:
            if attempts[index] <= self.retries:
                proc, conn, _t0 = running.pop(index)
                conn.close()
                proc.join()
                runlog.event("harness.parallel", "task_retry",
                             level="warn",
                             key=list(tasks[index].key),
                             attempt=attempts[index], error=error)
                pending.insert(0, index)
            else:
                finish(index, TaskResult(
                    key=tasks[index].key, ok=False, error=error,
                    traceback=tb))

        while pending or running:
            while pending and len(running) < self.jobs:
                launch(pending.pop(0))
            time.sleep(0 if any(
                conn.poll() for _p, conn, _t in running.values())
                else _POLL_S)
            for index in list(running):
                proc, conn, t0 = running[index]
                if conn.poll():
                    try:
                        result = conn.recv()
                    except (EOFError, OSError):
                        retry_or_fail(
                            index,
                            "WorkerDied: result pipe closed before a "
                            "result arrived")
                        continue
                    if not result.ok \
                            and attempts[index] <= self.retries:
                        retry_or_fail(index, result.error,
                                      result.traceback)
                    else:
                        finish(index, result)
                    continue
                if self.timeout_s is not None \
                        and time.perf_counter() - t0 > self.timeout_s:
                    runlog.event("harness.parallel", "task_timeout",
                                 level="warn",
                                 key=list(tasks[index].key),
                                 timeout_s=self.timeout_s,
                                 attempt=attempts[index])
                    proc.terminate()
                    retry_or_fail(
                        index,
                        f"TaskTimeout: exceeded {self.timeout_s:g}s "
                        f"(attempt {attempts[index]})")
                elif not proc.is_alive():
                    # Died without sending (segfault, os._exit, kill).
                    retry_or_fail(
                        index,
                        f"WorkerDied: exit code {proc.exitcode} "
                        "before sending a result")
        return [r for r in results if r is not None]


def progress_line(label: str, stream=None) -> Callable[[int, int, int],
                                                       None]:
    """A CLI progress callback: live ``\\r`` line on a tty, sparse
    milestone lines otherwise (so CI logs stay readable)."""
    import sys
    stream = stream if stream is not None else sys.stderr
    is_tty = bool(getattr(stream, "isatty", lambda: False)())
    last_milestone = [-1]

    def report(done: int, total: int, failed: int) -> None:
        tail = f", {failed} failed" if failed else ""
        if is_tty:
            end = "\n" if done == total else ""
            print(f"\r{label}: {done}/{total}{tail}", end=end,
                  file=stream, flush=True)
            return
        milestone = (4 * done) // max(1, total)
        if milestone != last_milestone[0] or done == total:
            last_milestone[0] = milestone
            print(f"{label}: {done}/{total}{tail}", file=stream,
                  flush=True)

    return report
