"""Workload definitions and the round engine of the host-cost benchmark.

A *workload* is a fixed list of cells, each one ``(simulator workload,
mode, cores, shards)``.  The benchmark runs it in rounds.  Every round
rebuilds its systems (the set-up phase, timed on its own), runs them
(the timed phase), and checks their outputs (untimed).  All rounds of
one seed simulate exactly the same thing, so any difference between
rounds is host noise, and the simulated statistics must repeat
exactly: the engine checks that they do.

Every cell is a closed loop: each simulated core issues its next
transaction only when its previous one commits.  ``crash-recover``
instead runs seeded crash points back to back, one at a time.
"""

import dataclasses
import hashlib
import random
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.common.config import default_config
from repro.consistency.recovery import recover
from repro.core import NvmSystem
from repro.harness import crash_campaign
from repro.workloads import WorkloadParams, make_workload

import hostprobe

clock = time.perf_counter


@dataclass(frozen=True)
class Cell:
    workload: str
    mode: str
    cores: int = 1
    shards: int = 1
    #: Transactions per core, when not the workload's ``Spec.txns``.
    txns: Optional[int] = None

    @property
    def variant(self) -> str:
        # The paper's configuration: hand instrumentation under janus;
        # every other mode issues no pre-execution requests.
        return "manual" if self.mode == "janus" else "baseline"

    @property
    def label(self) -> str:
        return f"{self.workload}/{self.mode}/c{self.cores}s{self.shards}"


@dataclass(frozen=True)
class Spec:
    """One benchmark workload."""

    cells: Tuple[Cell, ...]
    #: Transactions per core per cell (``txn``), or per reference run
    #: (``crash``).
    txns: int
    #: Items pre-populated per structure.
    n_items: int = 256
    #: ``crash``: crash points per cell per round; 0 for ``txn``.
    points: int = 0
    #: Percentile reported as ``op_ms_tail``.  Fixed per workload so
    #: that two commits compare the same quantile; chosen so that a
    #: default-length run leaves well over ten samples beyond it (the
    #: run steps down if it ever does not).
    tail_pct: float = 95.0

    @property
    def kind(self) -> str:
        return "crash" if self.points else "txn"

    def txns_for(self, cell: Optional[Cell] = None) -> int:
        if cell is not None and cell.txns:
            return cell.txns
        return self.txns

    def params(self, cell: Optional[Cell] = None) -> WorkloadParams:
        return WorkloadParams(n_items=self.n_items,
                              n_transactions=self.txns_for(cell))

    def tiny(self) -> "Spec":
        """A seconds-long version for the self-test."""
        cells = tuple(dataclasses.replace(c, txns=None)
                      for c in self.cells)
        return Spec(cells, txns=min(self.txns, 6),
                    n_items=min(self.n_items, 16),
                    points=min(self.points, 2), tail_pct=50.0)


SPECS: Dict[str, Spec] = {
    # Twice as many btree as tpcc transactions: the median op then
    # falls inside btree's tight cluster instead of in the gap between
    # the two workloads' clusters.  Cells this long also average out
    # the per-seed differences of the inputs.
    "janus-strict": Spec(
        cells=(Cell("tpcc", "janus", txns=100), Cell("btree", "janus")),
        txns=200),
    "serialized-strict": Spec(
        cells=(Cell("tpcc", "serialized"), Cell("btree", "serialized")),
        txns=100),
    "relaxed-sharded": Spec(
        cells=(Cell("hash_table", "coalesced", cores=2, shards=2),
               Cell("queue", "async-epoch", cores=2, shards=2)),
        txns=100),
    "crash-recover": Spec(
        cells=(Cell("btree", "janus"), Cell("queue", "async-epoch")),
        txns=12, n_items=8, points=8, tail_pct=90.0),
}


@dataclass
class Round:
    """What one round measured."""

    traced: bool
    #: Host-speed probe time around the round (``hostprobe.probe_s``).
    probe_s: float = 0.0
    setup_s: float = 0.0
    timed_s: float = 0.0
    ops: int = 0
    failed: int = 0
    #: Host seconds per op, at op boundaries, per core.
    samples: List[float] = field(default_factory=list)
    #: Per cell: everything the simulation determines (sim ns, event
    #: count, registry, crash-point records) — identical every round.
    signature: List = field(default_factory=list)
    #: Summed registry counters of this round's cells (``txn`` only).
    counts: Dict[str, float] = field(default_factory=dict)
    events: int = 0
    txns: int = 0
    sim_ns: float = 0.0
    rolled_back: List[int] = field(default_factory=list)


class Api:
    """The public simulator entry points the benchmark drives, each
    with a host-time span around it when ``spans`` is enabled."""

    def __init__(self, spans):
        wrap = spans.wrap
        self.spans = spans
        self.default_config = wrap("default_config", default_config)
        self.NvmSystem = wrap("NvmSystem", NvmSystem)
        self.make_workload = wrap("make_workload", make_workload)
        self.run_programs = wrap("run_programs", NvmSystem.run_programs)
        self.crash = wrap("crash", NvmSystem.crash)
        self.recover = wrap("recover", recover)
        self.reference_trajectory = wrap(
            "reference_trajectory", crash_campaign.reference_trajectory)
        self.run_crash_point = wrap("run_crash_point",
                                    crash_campaign.run_crash_point)

    @contextmanager
    def inside_crash_points(self):
        """Span the recovery, scrub and set-up calls that
        ``run_crash_point`` and ``reference_trajectory`` make."""
        if not self.spans.enabled:
            yield
            return
        names = ("recover", "scrub", "make_workload", "NvmSystem")
        saved = {name: getattr(crash_campaign, name) for name in names
                 if hasattr(crash_campaign, name)}
        for name, fn in saved.items():
            setattr(crash_campaign, name, self.spans.wrap(name, fn))
        try:
            yield
        finally:
            for name, fn in saved.items():
                setattr(crash_campaign, name, fn)


# -- building and checking one txn cell -------------------------------------
def build(api: Api, cell: Cell, spec: Spec, seed: int,
          mode: Optional[str] = None, shards: Optional[int] = None):
    cfg = api.default_config(seed=seed, mode=mode or cell.mode,
                             cores=cell.cores,
                             shards=cell.shards if shards is None
                             else shards)
    system = api.NvmSystem(cfg)
    variant = cell.variant if mode is None else "baseline"
    workloads = [api.make_workload(cell.workload, system, core,
                                   spec.params(cell), variant=variant)
                 for core in system.cores]
    return system, workloads


def recovered_digest(api: Api, system, workloads):
    """Crash the finished run, recover it with MAC verification, and
    hash every core's logical structure.  Returns (digest, state)."""
    snapshot = api.crash(system)
    regions = [(w.log.base, w.log.capacity) for w in workloads]
    state = api.recover(snapshot, regions, verify_macs=True)
    hasher = hashlib.sha256()
    for workload in workloads:
        hasher.update(workload.logical_digest(state.read).encode("ascii"))
    return hasher.hexdigest(), state


def closed_loop(workload, n: int, samples: List[float]):
    """One core's program: ``n`` transactions back to back, stamping
    host time at every commit.  Mirrors ``Workload.run``."""
    last = clock()
    for _ in range(n):
        workload._preobjs = {}
        yield from workload.transaction()
        workload.completed_transactions += 1
        now = clock()
        samples.append(now - last)
        last = now


# -- references (untimed, once per process) ---------------------------------
def references(api: Api, spec: Spec, seed: int) -> Dict[Cell, object]:
    """What each cell's output must match, from ``serialized`` runs.

    ``txn``: the recovered digest of a serialized run of the same
    workload, seed and size.  ``crash``: the serialized reference
    trajectory (logical digest after every commit).
    """
    out: Dict[Cell, object] = {}
    for cell in spec.cells:
        if spec.kind == "crash":
            digests, _ = api.reference_trajectory(
                cell.workload, "serialized", spec.params(), seed)
            out[cell] = digests
            continue
        system, workloads = build(api, cell, spec, seed,
                                  mode="serialized", shards=1)
        api.run_programs(system, [w.run() for w in workloads])
        out[cell] = recovered_digest(api, system, workloads)[0]
    return out


def crash_counts(api: Api, spec: Spec, seed: int) -> Dict:
    """Registry of one full run of every crash cell (the crash points
    themselves expose no system)."""
    counts: Dict[str, float] = {}
    events = txns = 0
    host_s = 0.0
    for cell in spec.cells:
        system, workloads = build(api, cell, spec, seed)
        start = clock()
        api.run_programs(system, [w.run() for w in workloads])
        host_s += clock() - start
        add_counts(counts, system.metrics.as_flat_dict())
        events += system.sim.events
        txns += sum(w.completed_transactions for w in workloads)
    return {"counts": counts, "events": events, "txns": txns,
            "host_s": host_s}


def add_counts(total: Dict[str, float], flat: Dict[str, float]) -> None:
    """Accumulate counters; histogram means are weighted by count."""
    for key, value in flat.items():
        if key.endswith(".mean"):
            count = flat.get(key[:-len("mean")] + "count", 0)
            key, value = key[:-len("mean")] + "sum", value * count
        total[key] = total.get(key, 0) + value


# -- rounds ------------------------------------------------------------------
def _failure(where: str) -> None:
    print(f"perfbench: {where} raised:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def txn_round(api: Api, spec: Spec, seed: int, refs: Dict,
              traced: bool, profile=None) -> Round:
    spans = api.spans
    result = Round(traced=traced)
    spans.attrs["phase"] = "setup"
    start = clock()
    built = [build(api, cell, spec, seed) for cell in spec.cells]
    result.setup_s = clock() - start
    for cell, (system, workloads) in zip(spec.cells, built):
        txns = spec.txns_for(cell)
        planned = txns * cell.cores
        result.ops += planned
        samples: List[float] = []
        programs = [closed_loop(w, txns, samples) for w in workloads]
        spans.attrs["phase"] = "timed"
        start = clock()
        try:
            with profile.active() if traced else nullcontext():
                elapsed = api.run_programs(system, programs)
        except Exception:
            result.timed_s += clock() - start
            _failure(cell.label)
            result.failed += planned
            result.signature.append(None)
            continue
        result.timed_s += clock() - start
        result.samples.extend(samples)
        spans.attrs["phase"] = "check"
        txns = sum(w.completed_transactions for w in workloads)
        flat = system.metrics.as_flat_dict()
        try:
            digest, state = recovered_digest(api, system, workloads)
        except Exception:
            _failure(f"{cell.label} recovery")
            digest, state = None, None
        if digest != refs[cell] or txns != planned:
            result.failed += planned
        if state is not None:
            result.rolled_back.append(len(state.rolled_back))
        add_counts(result.counts, flat)
        result.events += system.sim.events
        result.txns += txns
        result.sim_ns += elapsed
        result.signature.append((elapsed, system.sim.events, flat, digest))
    return result


def crash_times(seed: int, cell: Cell, horizon: float,
                points: int) -> List[float]:
    """Seeded crash times, one per equal slice of the run's horizon."""
    rng = random.Random(f"{seed}:{cell.label}")
    return [max(1.0, (i + rng.random()) / points * horizon)
            for i in range(points)]


def crash_ok(record: Dict, digests: Dict) -> bool:
    return (record.get("result") == "recovered"
            and record.get("prefix_ok", False)
            and record.get("digest") == digests.get(record["committed"]))


def crash_round(api: Api, spec: Spec, seed: int, refs: Dict,
                traced: bool, profile=None) -> Round:
    spans = api.spans
    result = Round(traced=traced)
    params = spec.params()
    with api.inside_crash_points():
        spans.attrs["phase"] = "setup"
        start = clock()
        trajectories = [api.reference_trajectory(
            cell.workload, cell.mode, params, seed, shards=cell.shards)
            for cell in spec.cells]
        result.setup_s = clock() - start
        spans.attrs["phase"] = "timed"
        for cell, (digests, horizon) in zip(spec.cells, trajectories):
            # Modes are digest-equivalent: the cell's own trajectory
            # must equal the serialized one, commit by commit.
            same = digests == refs[cell]
            records = []
            for crash_at in crash_times(seed, cell, horizon, spec.points):
                result.ops += 1
                start = clock()
                try:
                    with profile.active() if traced else nullcontext():
                        record = api.run_crash_point(
                            cell.workload, cell.mode, params, seed,
                            crash_at, shards=cell.shards)
                    ok = same and crash_ok(record, refs[cell])
                except Exception:
                    _failure(f"{cell.label} crash point at {crash_at}")
                    record, ok = None, False
                sample = clock() - start
                result.timed_s += sample
                result.samples.append(sample)
                result.failed += not ok
                records.append(record)
                if record is not None and "rolled_back" in record:
                    result.rolled_back.append(record["rolled_back"])
            result.txns += params.n_transactions
            result.sim_ns += horizon
            result.signature.append((horizon, digests, records))
    return result


def run_rounds(api: Api, spec: Spec, seed: int, refs: Dict,
               seconds: float, trace: bool, profile=None,
               wall_cap_s: float = 120.0) -> List[Round]:
    """Rounds until ``seconds`` of timed host time are spent.

    With ``trace``, untraced and traced rounds alternate, so both see
    the same work and the same state of the host.
    """
    one_round = crash_round if spec.kind == "crash" else txn_round
    rounds: List[Round] = []
    began = clock()
    index = 0
    while True:
        kinds = (False, True) if trace else (False,)
        for traced in kinds:
            api.spans.attrs.update(round=index, traced=traced)
            before = hostprobe.probe_s()
            result = one_round(api, spec, seed, refs, traced, profile)
            result.probe_s = (before + hostprobe.probe_s()) / 2
            rounds.append(result)
            index += 1
        spent = sum(r.timed_s for r in rounds)
        if spent >= seconds or clock() - began >= wall_cap_s:
            return rounds
