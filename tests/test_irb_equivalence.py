"""Property test: the indexed IRB behaves identically to the
linear-scan reference under randomized operation sequences.

The lockstep pair itself lives in ``tests/irb_reference.py``
(:class:`IrbLockstep`); these tests run the seeded random traces and
pin down the lockstep's own failure reporting.
"""

import pytest

from repro.common.rng import DeterministicRng
from repro.janus.irb import IrbEntry
from repro.validate.oracles import OracleMismatch
from tests.irb_reference import (
    LINES,
    PAYLOADS,
    IrbLockstep,
    run_random_irb_trace,
)


@pytest.mark.parametrize("seed", range(6))
def test_indexed_irb_equivalent_to_linear_reference(seed):
    rng = DeterministicRng(0).stream(f"irb-equivalence:{seed}")
    run_random_irb_trace(rng)


@pytest.mark.parametrize("seed", range(6))
def test_indexed_irb_equivalent_merge_heavy(seed):
    """Tiny key space and many address-less entries → frequent merges,
    including data-only entries gaining addresses — the bucket-reorder
    sequence behind the match_write most-recent-wins regression."""
    rng = DeterministicRng(0).stream(f"irb-equivalence-merge:{seed}")
    run_random_irb_trace(rng, lines=LINES[:4], pre_ids=3, txns=1,
                         addr_p=0.55)


def test_equivalence_streams_are_deterministic():
    """The named streams replay identically — a failure above is
    reproducible from its seed."""
    one = DeterministicRng(0).stream("irb-equivalence:0").random()
    two = DeterministicRng(0).stream("irb-equivalence:0").random()
    assert one == two


def test_lockstep_basic_ops_agree():
    pair = IrbLockstep()
    entry = IrbEntry(pre_id=0, thread_id=0, transaction_id=0,
                     line_addr=LINES[0], data=PAYLOADS[0], data_seq=0)
    assert pair.insert(entry) is not None
    assert pair.match(0, LINES[0], PAYLOADS[0]) is not None
    assert len(pair.indexed) == len(pair.linear) == 1
    pair.consume_nth(0)
    assert len(pair.indexed) == 0
    assert pair.invalidate_line(LINES[0]) == 0


def test_lockstep_reports_divergence_with_op_context():
    """A deliberate one-sided mutation is caught on the next verify,
    tagged with the step and both canonical states."""
    pair = IrbLockstep()
    pair.insert(IrbEntry(pre_id=0, thread_id=0, transaction_id=0,
                         line_addr=LINES[1], data=PAYLOADS[1],
                         data_seq=0))
    pair.linear.invalidate_line(LINES[1])  # indexed side keeps it
    with pytest.raises(OracleMismatch) as excinfo:
        pair.verify("tamper")
    assert "tamper" in str(excinfo.value)
    assert dict(excinfo.value.diff)["indexed"] != \
        dict(excinfo.value.diff)["linear"]
