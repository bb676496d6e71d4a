"""Lockstep test: the list-scheduling BMO executor against the
process-per-sub-op executor it replaced.

:class:`ReferenceExecutor` keeps the old ``run_subops``/``_run_one``
verbatim, with ``run_subops``'s final ``yield`` turned into the return
of :meth:`BmoExecutor.start`: every sub-op of every call ran as its
own simulator process with its own done event, and the caller waited
on the one process or on an ``AllOf`` over them.  The production
executor must reproduce it exactly — the same ready, start and finish
ns for every sub-op, the same unit grants and releases, the same
functional results and metrics, the same exception at the same ns —
while dispatching fewer events.  Same-instant ties decide unit grants, coalesced ledger
charges and commits racing sub-op reads, so "exactly" includes the
order of everything that happens within one instant.
"""

import dataclasses
import random
from typing import Dict, Iterable, Optional, Set

import pytest

import repro.core.machine
import repro.harness.crash_campaign
from repro.bmo import build_pipeline
from repro.bmo.base import BmoContext
from repro.bmo.executor import BmoExecutor
from repro.common.config import BmoLatencies, default_config
from repro.common.errors import SimulationError
from repro.core import NvmSystem
from repro.harness.runner import run_point
from repro.obs.metrics import Histogram
from repro.obs.tracer import Tracer
from repro.sim import Resource, Simulator
from repro.sim.engine import Process, SimEvent
from repro.workloads import WORKLOADS, WorkloadParams
from tests.writepath_reference import acquire, cancel, run_subops

DAG_MODES = ("parallel", "janus", "ideal", "coalesced", "async-epoch")


class ReferenceExecutor(BmoExecutor):
    """The process-per-sub-op executor, kept verbatim as the oracle."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._done_names = {n: "done:" + n
                            for n in self.pipeline.graph.subops}
        self._proc_names = {n: "subop:" + n
                            for n in self.pipeline.graph.subops}

    def start(self, ctx: BmoContext,
              names: Optional[Iterable[str]] = None):
        """Start ``names`` (default: all not yet completed) as a
        dependency-respecting dataflow on the shared units.  Returns
        the event the old ``run_subops`` process waited on — the one
        sub-op process, or an ``AllOf`` over them — or ``None``.
        """
        graph = self.pipeline.graph
        if names is None:
            targets = [n for n in graph.topological_order
                       if n not in ctx.completed]
        else:
            targets = [n for n in graph.topological_order
                       if n in set(names) and n not in ctx.completed]
        if not targets:
            return None
        target_set: Set[str] = set(targets)
        for name in targets:
            for dep in graph.subops[name].deps:
                if dep not in target_set and dep not in ctx.completed:
                    raise SimulationError(
                        f"cannot run {name!r}: dependency {dep!r} neither "
                        f"completed nor scheduled")
        sim = self.sim
        done_names = self._done_names
        proc_names = self._proc_names
        # Direct constructor calls: the sim.event()/sim.process()
        # factories are one extra frame per sub-op on the hottest
        # allocation site in the write path.
        done: Dict[str, object] = {
            name: SimEvent(sim, done_names[name]) for name in targets}
        children = [
            Process(sim, self._run_one(ctx, name, done),
                    proc_names[name])
            for name in targets
        ]
        if len(children) == 1:
            return children[0]
        return sim.all_of(children)

    def _run_one(self, ctx: BmoContext, name: str,
                 done: Dict[str, object]):
        op = self.pipeline.graph.subops[name]
        waits = [done[d] for d in op.deps if d in done]
        if len(waits) == 1:
            # Bypass the AllOf wrapper for single-dependency chains —
            # the common case in the default pipeline's hash ladders.
            yield waits[0]
        elif waits:
            yield self.sim.all_of(waits)
        sim = self.sim
        ready = sim.now  # dependencies satisfied; queueing begins
        total, occupancy = self._op_timing[name]
        if total and self.timing_policy is not None:
            total, occupancy = self.timing_policy.adjust_timing(
                name, ctx, total, occupancy)
        if op.latency_ns > 0:
            grant = acquire(self.units)
            try:
                yield grant
            except BaseException:
                cancel(self.units, grant)
                raise
            exec_start = sim.now
            sim._schedule(occupancy, self.units.release)
            yield sim.delay(total)
            op.execute(ctx)
            if self.tracer.enabled:
                self.tracer.complete(
                    name, "bmo", ("bmo", op.bmo),
                    start_ns=exec_start,
                    dur_ns=self.sim.now - exec_start,
                    args={"addr": ctx.addr,
                          "unit_wait_ns": exec_start - ready})
        else:
            op.execute(ctx)
        self._c_subops_executed.add()
        hist = self._h_subop.get(name)
        if hist is None:
            hist = self._h_subop[name] = \
                self.stats.histogram(f"subop.{name}_ns")
        hist.observe(self.sim.now - ready)
        done[name].succeed()


# -- seeded unit-level scenarios ---------------------------------------------
class Boom(Exception):
    """Raised by the one sub-op a scenario picks to fail."""


class LevelZeroingPolicy:
    """Timing policy that logs every readiness and discounts chosen
    integrity-tree levels to ``(0, 0)`` on every other write."""

    def __init__(self, sim, log, wids, levels):
        self.sim = sim
        self.log = log
        self.wids = wids
        self.levels = set(levels)

    def adjust_timing(self, name, ctx, total, occupancy):
        wid = self.wids[id(ctx)]
        self.log.append(("ready", self.sim.now, wid, name))
        if name in self.levels and wid % 2 == 0:
            return 0, 0
        return total, occupancy


def make_scenario(seed: int, contended: bool = False) -> dict:
    """A seeded scenario.  ``contended`` writes two lines with two
    values under zero-latency E1 and D2, so commits keep staling
    pre-executed counters and duplicate verdicts, and refreshes re-run
    from zero-latency roots that I1 waits on together."""
    rng = random.Random(seed)
    writes = []
    for _ in range(rng.randint(2, 6)):
        writes.append({
            "kind": rng.choice(("full", "addr", "data", "both")),
            "start": rng.choice((0, 0, rng.randrange(0, 400))),
            "gap": rng.choice((0, rng.randrange(0, 600))),
            "addr": rng.choice((0x40, 0x80, 0xC0)),
            "pattern": rng.randrange(4),
        })
    if contended:
        for spec in writes:
            spec["kind"] = rng.choice(("full", "both"))
            spec["addr"] = rng.choice((0x40, 0x80))
            spec["pattern"] = rng.randrange(2)
    boom = None
    if rng.random() < 0.4:
        boom = (rng.randrange(len(writes)),
                rng.choice(("D1", "E1", "E3", "I1", "I4", "I9")))
    return {
        "units": rng.randint(1, 4),
        "fraction": rng.choice((0.05, 0.25, 1.0)),
        "zero": (("dedup_lookup_ns", "counter_gen_ns") if contended
                 else rng.choice(((), ("xor_ns",), ("counter_gen_ns",),
                                  ("xor_ns", "counter_gen_ns")))),
        "levels": (rng.sample(("I2", "I3", "I5", "I8", "E4"),
                              rng.randint(1, 3))
                   if rng.random() < 0.5 else None),
        "writes": writes,
        "boom": boom,
    }


def drive(executor_cls, scenario: dict) -> dict:
    """Run ``scenario`` on a fresh executor; return everything the
    executor's behaviour is observable through."""
    sim = Simulator()
    cfg = default_config(bmo_latencies=BmoLatencies(
        **{field: 0.0 for field in scenario["zero"]}))
    pipeline = build_pipeline(cfg)
    units = Resource(sim, capacity=scenario["units"], name="units")
    tracer = Tracer()
    executor = executor_cls(sim, pipeline, units,
                            pipeline_fraction=scenario["fraction"],
                            tracer=tracer)
    log = []
    wids: Dict[int, int] = {}
    fired = set()
    for name, op in list(pipeline.graph.subops.items()):
        def run(ctx, _op=op, _name=name):
            wid = wids.get(id(ctx))
            log.append(("exec", sim.now, wid, _name))
            if scenario["boom"] == (wid, _name) and wid not in fired:
                fired.add(wid)
                raise Boom(_name)
            if _op.run is not None:
                _op.run(ctx)
        pipeline.graph.subops[name] = dataclasses.replace(op, run=run)
    if scenario["levels"] is not None:
        executor.timing_policy = LevelZeroingPolicy(
            sim, log, wids, scenario["levels"])
    contexts = []

    def writer(wid, spec):
        data = bytes([spec["pattern"] + 1]) * 64
        yield sim.delay(spec["start"])
        kind = spec["kind"]
        ctx = pipeline.make_context(
            addr=spec["addr"] if kind in ("full", "addr", "both") else None,
            data=data if kind in ("full", "data", "both") else None)
        wids[id(ctx)] = wid
        contexts.append(ctx)
        try:
            if kind == "full":
                yield from run_subops(executor, ctx)
            else:
                yield from run_subops(executor, ctx,
                                      pipeline.graph.runnable_with(
                                          ctx.available_inputs))
                yield sim.delay(spec["gap"])
                ctx.addr, ctx.data = spec["addr"], data
            refreshed = sim.event("refreshed")
            executor.refresh_and_complete(ctx, refreshed,
                                          refreshed.succeed)
            yield refreshed
        except Boom as err:
            log.append(("boom", sim.now, wid, str(err)))
            return
        pipeline.commit(ctx)
        log.append(("commit", sim.now, wid, None))

    for wid, spec in enumerate(scenario["writes"]):
        sim.process(writer(wid, spec), name=f"writer{wid}")
    # Record every histogram observation and every unit release in
    # order: the summaries and the final unit state alone do not show
    # the order within an instant, nor when each unit was freed.
    observed = []
    observe = Histogram.observe
    released = []
    release = Resource.release

    def recording_observe(hist, value):
        observed.append((hist.name, value))
        observe(hist, value)

    def recording_release(resource):
        release(resource)
        released.append((sim.now, resource.in_use, resource.queue_length))

    Histogram.observe = recording_observe
    Resource.release = recording_release
    try:
        sim.run()
    finally:
        Histogram.observe = observe
        Resource.release = release
    stats = executor.stats
    assert len(observed) == sum(h.count for h in stats.histograms.values())
    return {
        "now": sim.now,
        "log": log,
        "spans": [(e["name"], e["ts"], e["dur"], e.get("args"))
                  for e in tracer.events],
        "values": [(sorted(c.completed), sorted(c.values.items(),
                                                key=lambda kv: kv[0]))
                   for c in contexts],
        "units": (units.in_use, units.queue_length),
        "released": released,
        "counters": [(k, c.value) for k, c in stats.counters.items()],
        "histograms": [(k, h.summary())
                       for k, h in stats.histograms.items()],
        "observed": observed,
        "events": sim.events,
    }


@pytest.mark.parametrize("seed", range(48))
def test_unit_scenarios_match_reference(seed):
    scenario = make_scenario(seed)
    expected = drive(ReferenceExecutor, scenario)
    got = drive(BmoExecutor, scenario)
    events_new, events_old = got.pop("events"), expected.pop("events")
    for key in expected:
        assert got[key] == expected[key], (key, scenario)
    assert events_new <= events_old


def test_scenarios_cover_the_contract():
    """The seeded scenarios reach every case the contract names."""
    scenarios = [make_scenario(seed) for seed in range(48)]
    assert {s["units"] for s in scenarios} == {1, 2, 3, 4}
    assert {s["fraction"] for s in scenarios} == {0.05, 0.25, 1.0}
    assert {w["kind"] for s in scenarios for w in s["writes"]} == \
        {"full", "addr", "data", "both"}
    assert any(s["zero"] for s in scenarios)
    assert any(s["levels"] for s in scenarios)
    assert any(s["boom"] for s in scenarios)
    booms = [drive(BmoExecutor, s)["log"] for s in scenarios if s["boom"]]
    assert any(entry[0] == "boom" for log in booms for entry in log)


@pytest.mark.parametrize("seed", range(96))
def test_contended_scenarios_match_reference(seed):
    scenario = make_scenario(seed, contended=True)
    expected = drive(ReferenceExecutor, scenario)
    got = drive(BmoExecutor, scenario)
    assert got.pop("events") < expected.pop("events")
    assert got == expected, scenario


def test_zero_latency_root_calls_match_reference():
    """Zero-latency E1 is a root of every full call: it finishes in
    the call's first callback, before its dependents are registered,
    and they must still be readied at the old slots relative to the
    other roots' grants."""
    scenario = {
        "units": 1, "fraction": 1.0,
        "zero": ("counter_gen_ns", "xor_ns"), "levels": ("I3",),
        "writes": [{"kind": "full", "start": 0, "gap": 0,
                    "addr": 0x40 * (i + 1), "pattern": i}
                   for i in range(3)],
        "boom": None,
    }
    expected = drive(ReferenceExecutor, scenario)
    got = drive(BmoExecutor, scenario)
    assert got.pop("events") < expected.pop("events")
    assert got == expected


# -- system-level matrix -------------------------------------------------------
def _run_cells(monkeypatch, workload, executor_cls):
    monkeypatch.setattr(repro.core.machine, "BmoExecutor", executor_cls)
    systems = []

    class Capture(NvmSystem):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            systems.append(self)

    monkeypatch.setattr(repro.harness.crash_campaign, "NvmSystem",
                        Capture)
    cells = {}
    for mode in DAG_MODES:
        for cores, shards in ((1, 1), (2, 2)):
            result = run_point(
                workload, mode=mode, cores=cores, shards=shards,
                params=WorkloadParams(n_transactions=2, n_items=8),
                with_digest=True)
            system = systems.pop()
            assert isinstance(system.executor, executor_cls)
            cells[mode, cores, shards] = (
                result.elapsed_ns, result.snapshot, result.digest,
                system.sim.events)
    return cells


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_system_matrix_matches_reference(monkeypatch, workload):
    with monkeypatch.context() as patch:
        expected = _run_cells(patch, workload, ReferenceExecutor)
    got = _run_cells(monkeypatch, workload, BmoExecutor)
    for cell, (elapsed, snapshot, digest, events) in expected.items():
        new_elapsed, new_snapshot, new_digest, new_events = got[cell]
        assert new_elapsed == elapsed, cell
        assert new_snapshot == snapshot, cell
        assert new_digest == digest, cell
        assert new_events < events, cell
