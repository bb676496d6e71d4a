"""The seeded stateful fuzz harness (``repro fuzz``).

Covers the deterministic contract (same seed + any job count →
byte-identical reports and repro files), the delta-debugging reducer,
replayability of written repros, and the acceptance-criterion planted
bug: the IRB merge mutation must be found by fuzzing with a minimized
repro of at most 20 ops.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.janus.irb import IntermediateResultBuffer
from repro.validate.fuzz import (
    FuzzCase,
    failure_key,
    generate_cases,
    reduce_case,
    run_case,
    run_fuzz,
)
from repro.validate.fuzz import replay as replay_repro


def buggy_merge(self, existing, incoming):
    """Planted mutation: the entry gains its address but is never
    re-filed into the address indexes (see
    tests/test_validate_invariants.py)."""
    existing.ctx.merge_from(incoming.ctx)
    if existing.line_addr is None and incoming.line_addr is not None:
        existing.line_addr = incoming.line_addr
    if existing.data is None:
        existing.data = incoming.data
    existing.complete = False


@pytest.fixture
def planted_merge_bug(monkeypatch):
    """Plant the merge bug; the executor's forked workers inherit it."""
    monkeypatch.setattr(IntermediateResultBuffer, "_merge", buggy_merge)


def _tree(directory):
    return {p.name: p.read_bytes()
            for p in sorted(Path(directory).glob("*.json"))}


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------
def test_generated_cases_are_seed_deterministic():
    one = [c.to_dict() for c in generate_cases(9, 20)]
    two = [c.to_dict() for c in generate_cases(9, 20)]
    assert one == two
    other = [c.to_dict() for c in generate_cases(10, 20)]
    assert one != other


def test_case_round_trips_through_json():
    case = generate_cases(4, 8)[0]
    round_trip = FuzzCase.from_dict(
        json.loads(json.dumps(case.to_dict())))
    assert round_trip == case


def test_clean_campaign_finds_nothing():
    report = run_fuzz(cases=8, seed=1, jobs=1, write=False)
    assert report["failures"] == 0
    assert report["cases"] == 8


def test_report_identical_across_job_counts():
    inline = run_fuzz(cases=8, seed=2, jobs=1, write=False)
    sharded = run_fuzz(cases=8, seed=2, jobs=2, write=False)
    assert json.dumps(inline, sort_keys=True) == \
        json.dumps(sharded, sort_keys=True)


def test_repro_files_byte_identical_across_job_counts(
        planted_merge_bug, tmp_path):
    """The acceptance contract for --jobs: same seed, same minimized
    repro bytes, whether inline or sharded over worker processes."""
    dir_inline, dir_sharded = tmp_path / "inline", tmp_path / "sharded"
    run_fuzz(cases=10, seed=3, jobs=1, workloads=(),
             out_dir=str(dir_inline))
    run_fuzz(cases=10, seed=3, jobs=2, workloads=(),
             out_dir=str(dir_sharded))
    inline, sharded = _tree(dir_inline), _tree(dir_sharded)
    assert "fuzz_report.json" in inline
    assert any(name.startswith("repro_") for name in inline)
    assert inline == sharded


# ---------------------------------------------------------------------------
# the planted bug: found, minimized, replayable
# ---------------------------------------------------------------------------
def test_fuzz_finds_planted_bug_with_minimal_repro(planted_merge_bug):
    report = run_fuzz(cases=10, seed=3, jobs=1, workloads=(),
                      write=False)
    assert report["failures"] > 0
    reduced = [entry for entry in report["repros"]
               if "reduced" in entry]
    assert reduced, "no api failure was reduced"
    for entry in reduced:
        assert entry["failure"]["invariant"] == "irb-bijection"
        assert len(entry["reduced"]["ops"]) <= 20
        assert len(entry["reduced"]["ops"]) <= \
            len(entry["case"]["ops"])


def test_reducer_minimizes_to_the_triggering_op(planted_merge_bug):
    case = FuzzCase(
        kind="api", seed=5,
        ops=[("store", 0, 1), ("compute", 300), ("split", 1, 2),
             ("hinted", 2, 3), ("store", 3, 4)],
        params={"n_lines": 4, "threads": 2})
    failure = run_case(case)
    assert failure is not None and failure["class"] == "invariant"
    reduced, runs = reduce_case(case, failure)
    assert runs > 0
    assert len(reduced.ops) == 1 and reduced.ops[0][0] == "split"
    # The reduced case still fails the same way.
    assert failure_key(run_case(reduced)) == failure_key(failure)


def test_written_repro_replays_and_heals(monkeypatch, tmp_path):
    monkeypatch.setattr(IntermediateResultBuffer, "_merge", buggy_merge)
    report = run_fuzz(cases=10, seed=3, jobs=1, workloads=(),
                      out_dir=str(tmp_path))
    repro_files = [p for p in sorted(tmp_path.glob("repro_*.json"))
                   if "reduced" in json.loads(p.read_text())]
    assert repro_files
    target = repro_files[0]
    failure = replay_repro(str(target))
    assert failure is not None and failure["class"] == "invariant"
    monkeypatch.undo()  # fixed code: the repro no longer fails
    assert replay_repro(str(target)) is None


def test_failure_key_distinguishes_classes():
    invariant = {"class": "invariant", "invariant": "irb-bijection"}
    oracle = {"class": "oracle", "detail": "diverged"}
    error = {"class": "exception", "type": "KeyError"}
    keys = {failure_key(f) for f in (invariant, oracle, error)}
    assert len(keys) == 3
    assert failure_key(invariant) == failure_key(dict(invariant))


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
def test_cli_fuzz_quick_smoke(capsys):
    assert main(["fuzz", "--quick", "--no-write", "--jobs", "1"]) == 0
    out = capsys.readouterr().out
    assert "fuzz:" in out and "0 failure(s)" in out


def test_cli_fuzz_rejects_unknown_workload(capsys):
    assert main(["fuzz", "--workloads", "nope", "--no-write"]) == 2


def test_cli_fuzz_replay_reports_healthy_repro(tmp_path, capsys):
    case = FuzzCase(kind="api", seed=5, ops=[("store", 0, 1)],
                    params={"n_lines": 4})
    path = tmp_path / "repro_000.json"
    path.write_text(json.dumps({"case": case.to_dict()}))
    assert main(["fuzz", "--replay", str(path)]) == 0
    assert "no longer fails" in capsys.readouterr().out
