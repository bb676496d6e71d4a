"""Correctness backstop: invariant checkers, differential oracles,
and the seeded stateful fuzz harness (``repro run --check`` /
``repro fuzz``).  See ``docs/validation.md``.
"""

from repro.validate.invariants import InvariantChecker, InvariantViolation
from repro.validate.oracles import (
    OracleMismatch,
    check_recovery_idempotent,
    diff_images,
    run_write_program,
)

__all__ = [
    "InvariantChecker",
    "InvariantViolation",
    "OracleMismatch",
    "check_recovery_idempotent",
    "diff_images",
    "run_write_program",
]
