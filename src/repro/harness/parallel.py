"""Parallel sweep executor: shard independent simulation points.

Every figure sweep and the crash, soak and fuzz campaigns run
*sealed* simulation points: a point is fully determined by its
arguments (workload, mode, seed, config), shares no state with its
neighbours, and produces a picklable result.  This module is the one
backend that runs such point sets, inline or across worker
processes, with output **byte-identical at any worker count**:

* a :class:`SweepTask` carries its callable (module-level, so it
  pickles by reference) and picklable args; :func:`run_task` runs it;
* :meth:`ParallelExecutor.map` forks up to ``jobs`` long-lived
  workers and feeds each one task at a time.  A task past
  ``timeout_s`` has its worker terminated, a dead worker is reaped,
  and either is replaced; a failed task is retried :data:`RETRIES`
  times (the bounded-retry idiom of
  :class:`repro.faults.DegradedModeManager`), then recorded as a
  failed :class:`TaskResult` without sinking the sweep;
* results, and the run-log records each worker captures for its
  task (:func:`repro.obs.log.capture`), are merged in task-submission
  order, so reports, figure tables and (when no task is retried) the
  ``--log`` file match a serial run byte for byte;
* retries, timeouts and final failures are ``task_retry`` /
  ``task_timeout`` / ``task_failed`` run-log events, and each
  :class:`TaskResult` carries its attempts.

Worker count (:func:`resolve_jobs`): an explicit ``jobs`` wins, then
``$REPRO_JOBS``, then ``os.cpu_count()``.  ``jobs=1``, a one-task map
or a platform without ``fork`` runs inline, retries included, so the
two paths differ only in wall-clock.
"""

import math
import os
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs import log as runlog

#: Environment variable consulted when no explicit ``jobs`` is given.
ENV_JOBS = "REPRO_JOBS"
#: Retries of a failed task (attempts = RETRIES + 1).
RETRIES = 1


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
    """The ``fork`` multiprocessing context, or ``None`` (→ inline).

    Workers must inherit this process: its loaded modules, a test's
    monkeypatches, and the run log they capture for the parent.
    """
    try:
        import multiprocessing as mp
        if "fork" in mp.get_all_start_methods():
            return mp.get_context("fork")
    except (ImportError, OSError, ValueError):
        pass
    return None


@dataclass(frozen=True)
class SweepTask:
    """One sealed simulation point.

    ``key`` identifies the point in the merged result set (tuples sort
    and compare well); ``fn`` is a module-level callable, sent to a
    worker by reference.  ``args``/``kwargs`` must be picklable.
    """

    key: Tuple
    fn: Callable
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
    """Pure worker entry point: run, classify.

    Runs in a worker process (or inline).  Never raises: failures
    come back as ``ok=False`` with the error and traceback rendered to
    strings (exception objects themselves may not be picklable).
    """
    try:
        value = task.fn(*task.args, **task.kwargs)
        return TaskResult(key=task.key, ok=True, value=value)
    except BaseException as error:  # noqa: BLE001 — report, don't sink
        return TaskResult(
            key=task.key, ok=False,
            error=f"{type(error).__name__}: {error}",
            traceback=traceback.format_exc())


def _worker_loop(conn) -> None:
    """Worker process body: answer each task ``conn`` sends with
    ``(result, run-log records)`` until it sends ``None``."""
    kept = runlog.capture()
    for task in iter(conn.recv, None):
        result = run_task(task)
        try:
            conn.send((result, kept))
        except Exception:
            # The *value* may fail to pickle even though the task ran;
            # resend as an explicit failure so the parent can retry or
            # record it instead of seeing a silent dead worker.
            conn.send((TaskResult(
                key=task.key, ok=False,
                error="ResultPickleError: task result was not "
                      "picklable", traceback=traceback.format_exc()),
                kept))
        kept.clear()


class _Worker:
    """One long-lived worker process and the task it is running."""

    def __init__(self, ctx):
        if runlog.current() is not None:
            runlog.current().flush()  # or the child inherits its buffer
        self.conn, child = ctx.Pipe()
        self.proc = ctx.Process(target=_worker_loop, args=(child,),
                                daemon=True)
        self.proc.start()
        child.close()
        self.index: Optional[int] = None  # task in flight
        self.deadline = math.inf

    def stop(self) -> None:
        """Let an idle worker exit, terminate a busy one; reap it."""
        if self.index is None:
            try:
                self.conn.send(None)
            except OSError:
                pass  # it died while idle
        else:
            self.proc.terminate()
        self.proc.join()
        self.conn.close()


class ParallelExecutor:
    """Run a task list across worker processes; merge deterministically.

    ``map`` returns one :class:`TaskResult` per task **in submission
    order**.  ``jobs=1`` (or no ``fork``) executes inline in this
    process; ``timeout_s`` then cannot preempt a wedged
    task and is ignored (cooperative execution has no kill switch).
    """

    def __init__(self, jobs: Optional[int] = None,
                 timeout_s: Optional[float] = None,
                 progress: Optional[Callable[[int, int, int], None]]
                 = None):
        self.jobs = resolve_jobs(jobs)
        self.timeout_s = timeout_s
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
        ctx = _mp_context() if self.jobs > 1 and len(tasks) > 1 else None
        if ctx is None:
            return self._map_inline(tasks)
        return self._map_processes(tasks, ctx)

    def map_values(self, tasks: Sequence[SweepTask]) -> Dict[Tuple, object]:
        """``key -> value`` for every task; raise if any failed."""
        results = self.map(tasks)
        failed = [r for r in results if not r.ok]
        if failed:
            first = failed[0]
            raise RuntimeError(
                f"{len(failed)}/{len(results)} sweep tasks failed; "
                f"first: {first.key} {first.error}\n"
                f"{first.traceback}")
        return {r.key: r.value for r in results}

    # -- inline path ------------------------------------------------------
    def _map_inline(self, tasks: List[SweepTask]) -> List[TaskResult]:
        results: List[TaskResult] = []
        failed = 0
        for task in tasks:
            result = run_task(task)
            attempts = 1
            while not result.ok and attempts <= RETRIES:
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
        from multiprocessing.connection import wait

        total = len(tasks)
        limit = math.inf if self.timeout_s is None else self.timeout_s
        results: List[Optional[TaskResult]] = [None] * total
        records: List[List] = [[] for _ in tasks]  # captured events
        attempts = [0] * total
        pending = deque(range(total))
        workers: List[_Worker] = []
        done = failed = written = 0

        def finish(index: int, result: TaskResult) -> None:
            nonlocal done, failed, written
            result.attempts = attempts[index]
            results[index] = result
            done += 1
            failed += 0 if result.ok else 1
            self._report(done, total, failed)
            # Log the finished prefix as the inline path would have.
            while written < total and results[written] is not None:
                for args, fields in records[written]:
                    runlog.event(*args, **fields)
                self._record(results[written])
                written += 1

        def retry_or_fail(index: int, error: str, tb: str = "") -> None:
            if attempts[index] <= RETRIES:
                runlog.event("harness.parallel", "task_retry",
                             level="warn", key=list(tasks[index].key),
                             attempt=attempts[index], error=error)
                pending.appendleft(index)
            else:
                finish(index, TaskResult(key=tasks[index].key, ok=False,
                                         error=error, traceback=tb))

        def drop(worker: _Worker, error: str) -> None:
            workers.remove(worker)
            worker.stop()
            retry_or_fail(worker.index, error)

        try:
            while written < total:
                while len(workers) < self.jobs and len(pending) > sum(
                        w.index is None for w in workers):
                    workers.append(_Worker(ctx))
                for worker in workers:
                    if worker.index is None and pending:
                        worker.index = index = pending.popleft()
                        attempts[index] += 1
                        worker.deadline = time.perf_counter() + limit
                        worker.conn.send(tasks[index])
                busy = [w for w in workers if w.index is not None]
                deadline = min(w.deadline for w in busy)
                ready = set(wait(
                    [w.conn for w in busy] + [w.proc.sentinel for w in busy],
                    None if deadline == math.inf
                    else max(0.0, deadline - time.perf_counter())))
                now = time.perf_counter()
                for worker in busy:
                    index = worker.index
                    if worker.conn in ready or worker.proc.sentinel in ready:
                        try:
                            result, task_records = worker.conn.recv()
                        except (EOFError, OSError):
                            worker.proc.join()  # died without sending
                            drop(worker, "WorkerDied: exit code "
                                 f"{worker.proc.exitcode} before "
                                 "sending a result")
                            continue
                        worker.index = None
                        records[index] += task_records
                        if not result.ok and attempts[index] <= RETRIES:
                            retry_or_fail(index, result.error,
                                          result.traceback)
                        else:
                            finish(index, result)
                    elif now > worker.deadline:
                        runlog.event("harness.parallel", "task_timeout",
                                     level="warn",
                                     key=list(tasks[index].key),
                                     timeout_s=self.timeout_s,
                                     attempt=attempts[index])
                        drop(worker, f"TaskTimeout: exceeded "
                             f"{self.timeout_s:g}s (attempt "
                             f"{attempts[index]})")
        finally:
            for worker in workers:
                worker.stop()
        return results


def progress_line(label: str) -> Callable[[int, int, int], None]:
    """A CLI progress callback on stderr: live ``\\r`` line on a tty,
    sparse milestone lines otherwise (so CI logs stay readable)."""
    import sys
    stream = sys.stderr
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
