"""Experiment harness: run design points, compute speedups, and
regenerate every table and figure of the paper's evaluation.

The per-figure drivers in :mod:`repro.harness.experiments` return
structured results *and* render the same rows/series the paper
reports.  ``repro figure`` is the one way to run them: its
:data:`~repro.harness.experiments.FIGURES` registry maps each figure
name to its driver, and one command regenerates the committed
``results/experiments_full.txt`` byte for byte (EXPERIMENTS.md).
"""

from repro.harness.parallel import (
    ParallelExecutor,
    SweepTask,
    TaskResult,
    resolve_jobs,
)
from repro.harness.report import Table
from repro.harness.runner import ExperimentResult, run_point, speedup_over

__all__ = [
    "ExperimentResult",
    "ParallelExecutor",
    "SweepTask",
    "Table",
    "TaskResult",
    "resolve_jobs",
    "run_point",
    "speedup_over",
]
