"""Lockstep test: the callback write path against the generator write
path it replaced.

``tests/writepath_reference.py`` keeps the old write path verbatim:
one ``clwb`` process per written line, ``accept-data``/``accept-meta``
processes joined by an ``AllOf``, a ``wq-drain`` process per entry,
and generator steps for the serialized block, the Janus write service
and each policy.  The production write path runs the same steps as
simulator callbacks, each in the same-instant batch slot of the
process step it replaced.  Both sides run on the same kernel, so the
dispatch count must match too, and "exactly" includes the order of
everything that happens within one instant: it decides unit and
channel grants, write-queue slots and commits racing each other.
"""

import dataclasses

import pytest

from repro.common.config import MemoryConfig, SchedulingConfig, \
    default_config
from repro.harness.crash_campaign import build, recover_image
from repro.obs.tracer import Tracer
from repro.workloads import WORKLOADS, WorkloadParams
from tests.writepath_reference import install

MODES = ("serialized", "parallel", "janus", "ideal", "coalesced",
         "async-epoch")
#: Tracer spans the write path emits or shapes.
SPANS = {"write", "transfer", "bmo", "persist", "serialized-bmos",
         "inflight-wait", "wq-residency"}


def run_cell(workload, mode, cores=1, shards=1, params=None,
             config=None, boom=None, **overrides):
    """Run one design point to completion, crash it and recover it.

    ``boom=(subop, n)`` makes the ``n``th execution of that sub-op
    raise; the run's error is then part of the result."""
    tracer = Tracer()
    system, workloads = build(
        workload, mode, params or WorkloadParams(n_transactions=2,
                                                 n_items=8),
        cores=cores, shards=shards, config=config, tracer=tracer,
        **overrides)
    if boom is not None:
        name, nth = boom
        graph = system.pipeline.graph
        op = graph.subops[name]
        calls = []

        def run(ctx, _run=op.run):
            calls.append(system.sim.now)
            if len(calls) == nth:
                raise RuntimeError(f"{name} #{nth} at {system.sim.now}")
            if _run is not None:
                _run(ctx)

        graph.subops[name] = dataclasses.replace(op, run=run)
    try:
        elapsed = system.run_programs([w.run() for w in workloads])
        error = None
    except Exception as err:
        elapsed, error = system.sim.now, f"{type(err).__name__}: {err}"
    snapshot = system.crash()
    digest = None
    if error is None:
        try:
            state = recover_image(snapshot, workloads)
            digest = [w.logical_digest(state.read) for w in workloads]
        except Exception as err:
            digest = f"{type(err).__name__}: {err}"
    integrity = system.pipeline.by_name.get("integrity")
    return {
        "elapsed": elapsed,
        "error": error,
        "events": system.sim.events,
        "snapshot": system.metrics.snapshot(),
        "digest": digest,
        "root": integrity.tree.root if integrity is not None else None,
        "spans": [(e["name"], e["ts"], e["dur"], e.get("args"))
                  for e in tracer.events
                  if e.get("ph") == "X" and e["name"] in SPANS],
    }


def assert_lockstep(monkeypatch, *args, **kwargs):
    with monkeypatch.context() as patch:
        install(patch)
        expected = run_cell(*args, **kwargs)
    got = run_cell(*args, **kwargs)
    for key in expected:
        assert got[key] == expected[key], (key, args, kwargs)
    return got


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("mode", MODES)
def test_matrix_matches_reference(monkeypatch, workload, mode):
    for cores, shards in ((1, 1), (2, 2)):
        got = assert_lockstep(monkeypatch, workload, mode, cores=cores,
                              shards=shards)
        assert got["error"] is None and got["spans"]


def test_full_write_queue_matches_reference(monkeypatch):
    """Eight cores waiting for every metadata line fill the write
    queue: acceptances wait for drains to hand slots over."""
    got = assert_lockstep(
        monkeypatch, "tpcc", "janus", cores=8,
        params=WorkloadParams(n_transactions=24, n_items=32),
        selective_metadata_atomicity=False)
    stalls = got["snapshot"]["histograms"]["wq.full_stall_ns"]["count"]
    assert stalls == 596


@pytest.mark.parametrize("mode", ("serialized", "coalesced"))
def test_tiny_write_queue_matches_reference(monkeypatch, mode):
    config = default_config(memory=MemoryConfig(write_queue_entries=4))
    got = assert_lockstep(monkeypatch, "btree", mode, cores=2,
                          config=config)
    assert got["snapshot"]["histograms"]["wq.full_stall_ns"]["count"]


def test_sharded_small_epochs_match_reference(monkeypatch):
    got = assert_lockstep(
        monkeypatch, "hash_table", "async-epoch", cores=2, shards=4,
        params=WorkloadParams(n_transactions=12, n_items=8),
        scheduling=SchedulingConfig(epoch_writes=4))
    flushed = sum(value for name, value
                  in got["snapshot"]["counters"].items()
                  if name.endswith("epochs_flushed"))
    assert flushed > 4


@pytest.mark.parametrize("mode,variant,boom", [
    ("serialized", None, ("E3", 5)),
    ("coalesced", None, ("I4", 7)),
    ("janus", "baseline", ("D2", 4)),
])
def test_raising_subop_matches_reference(monkeypatch, mode, variant,
                                         boom):
    """A sub-op error fails its write's completion, so the next sfence
    raises at the same ns, with the same state behind it."""
    got = assert_lockstep(monkeypatch, "queue", mode, cores=2,
                          variant=variant, boom=boom)
    assert got["error"].startswith("RuntimeError: ")


def test_failed_background_write_stops_the_run():
    """No program waits on an ideal-mode write's background BMOs and
    persist, nor on the async-epoch flusher, so a sub-op or commit
    error there stops the run with that error instead of surfacing as
    a lost write at recovery.  The reference's ``ideal-bg`` and
    ``epoch-flush`` processes swallow it: no lockstep here."""
    for mode, cores, shards, at in (("ideal", 2, 1, 873),
                                    ("async-epoch", 1, 1, 3079),
                                    ("async-epoch", 2, 2, 2388)):
        got = run_cell("queue", mode, cores=cores, shards=shards,
                       boom=("I2", 3))
        assert got["error"] == f"RuntimeError: I2 #3 at {at}", \
            (mode, shards)

        system, workloads = build(
            "queue", mode, WorkloadParams(n_transactions=2, n_items=8),
            cores=cores, shards=shards)
        commit, commits = system.pipeline.commit, []

        def failing_commit(ctx):
            commits.append(ctx)
            if len(commits) == 3:
                raise RuntimeError("commit #3")
            return commit(ctx)

        system.pipeline.commit = failing_commit
        with pytest.raises(RuntimeError, match="commit #3"):
            system.run_programs([w.run() for w in workloads])


def test_failed_pre_execution_matches_reference(monkeypatch):
    """A pre-execution sub-op that raises fails its IRB entry's
    in-flight event, so the write that waits for the entry fails with
    the sub-op's error, on either path."""
    got = assert_lockstep(monkeypatch, "queue", "janus", cores=2,
                          boom=("D2", 4))
    assert got["error"] == "RuntimeError: D2 #4 at 669"
