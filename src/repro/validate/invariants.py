"""Cross-layer runtime invariant checking (``repro run --check``).

Janus's requirement 1 (§3.2) — pre-execution is semantically
invisible — rests on a stack of per-layer invariants that no single
unit test observes *during* execution.  :class:`InvariantChecker`
attaches to a live :class:`repro.core.NvmSystem` and re-verifies them
after every BMO-pipeline commit (the one point where every layer's
state may legally change):

======================  ==================================================
invariant               layer / statement
======================  ==================================================
``irb-bijection``       janus: every resident IRB entry is filed in
                        exactly the index buckets its fields dictate, and
                        every bucket member is resident (index ↔ entry
                        bijection); ``link_seq`` strictly increases and
                        ``created_at`` never decreases in buffer order;
                        occupancy respects capacity.
``wq-epoch-order``      mem: accepted-but-undrained entries are ordered
                        by acceptance time, and the ``wq.accepted``
                        minus ``wq.drained`` counters equal the pending
                        entries and never exceed the slots in use.
``merkle-root``         crypto: a Merkle tree rebuilt from scratch over
                        the committed leaves reproduces the live root
                        (the secure register matches the metadata it
                        claims to protect).
``counter-monotone``    crypto: no per-line encryption counter ever
                        decreases (counter-mode pad reuse).
``dedup-refcount``      bmo: each dedup entry's refcount equals the
                        number of remap-table aliases pointing at it;
                        no entry survives at refcount <= 0; the stored
                        plaintext re-fingerprints to its table key; every
                        remap target exists.
``log-prefix``          consistency: undo/redo logs parse cleanly over
                        their monotone transaction-id prefix, and no
                        transaction appends backup/update records after
                        its own commit record (committed-prefix rule).
``sfence-barrier``      core/mem: at every ``sfence`` retirement the
                        fence's durability contract holds on *every*
                        memory controller it may have touched — write
                        queue accounting is consistent per shard, and
                        each async-epoch shard's staleness debt is
                        within bound (one epoch of slack on sharded
                        machines for coordinator demand-closes).
======================  ==================================================

On the sharded machine (``SystemConfig.shards > 1``) the per-component
invariants run against every shard's IRB and write queue; the sfence
barrier is the genuinely cross-shard one — see ``docs/sharding.md``.

Violations raise :class:`InvariantViolation`, which carries the
invariant name, the owning layer, and a minimal state snapshot
(JSON-able) for the failure report.  The checker deliberately reads
private fields of the structures it audits — it is the second
implementation that makes index desync observable, in the same spirit
as the linear-scan IRB in ``tests/irb_reference.py``.

The Merkle rebuild is O(leaves x height) hashes; it runs every
``merkle_every`` commits (and always in :meth:`check_all` with
``full=True``) so checked runs stay near-linear.
"""

from typing import Dict, List, Optional

from repro.common.errors import RecoveryError, ReproError
from repro.consistency.redo_log import parse_redo_log
from repro.consistency.undo_log import parse_log
from repro.crypto.merkle import MerkleTree
from repro.obs import log as runlog


class InvariantViolation(ReproError):
    """A cross-layer invariant failed during execution.

    Structured: ``invariant`` (short name from the catalog above),
    ``layer`` (owning package), ``detail`` (human sentence), and
    ``snapshot`` — a minimal JSON-able capture of the offending state,
    enough to understand the failure without re-running.
    """

    def __init__(self, invariant: str, layer: str, detail: str,
                 snapshot: Optional[Dict] = None):
        super().__init__(f"[{layer}:{invariant}] {detail}")
        self.invariant = invariant
        self.layer = layer
        self.detail = detail
        self.snapshot = dict(snapshot or {})

    def as_dict(self) -> Dict:
        return {"invariant": self.invariant, "layer": self.layer,
                "detail": self.detail, "snapshot": self.snapshot}


def _canon_entry(entry) -> Dict:
    """Minimal JSON-able view of an IRB entry for violation snapshots."""
    return {
        "pre_id": entry.pre_id, "thread_id": entry.thread_id,
        "transaction_id": entry.transaction_id,
        "line_addr": entry.line_addr,
        "data": entry.data.hex() if entry.data else None,
        "data_seq": entry.data_seq, "created_at": entry.created_at,
        "link_seq": entry.link_seq, "complete": entry.complete,
    }


class InvariantChecker:
    """Attachable cross-layer invariant checker for one ``NvmSystem``."""

    def __init__(self, system, merkle_every: int = 16):
        self.system = system
        self.merkle_every = merkle_every
        self._commits_seen = 0
        #: addr -> highest encryption counter ever observed committed.
        self._counter_watermarks: Dict[int, int] = {}
        #: Registered ("undo" | "redo", log) pairs — the logs register
        #: themselves at construction when a checker is attached.
        self._logs: List = []
        stats = system.metrics.scope("validate")
        self._c_checks = stats.counter("checks")
        self._c_violations = stats.counter("violations")

    # -- wiring ---------------------------------------------------------
    def attach(self) -> "InvariantChecker":
        """Hook the pipeline commit point; returns self for chaining."""
        pipeline = self.system.pipeline
        original_commit = pipeline.commit

        def checked_commit(ctx):
            action = original_commit(ctx)
            self._commits_seen += 1
            self.check_all(
                full=self._commits_seen % self.merkle_every == 0)
            return action

        pipeline.commit = checked_commit
        return self

    def register_log(self, kind: str, log) -> None:
        """Called by ``UndoLog``/``RedoLog`` constructors."""
        self._logs.append((kind, log))

    # -- driver ---------------------------------------------------------
    def check_all(self, full: bool = True) -> None:
        """Run every applicable invariant; raises on the first failure.

        ``full=False`` skips the Merkle-root rebuild (the only
        super-linear check); the commit hook runs it every
        ``merkle_every`` commits instead of every time.
        """
        self._c_checks.add()
        try:
            system = self.system
            for engine in system.janus_engines:
                self.check_irb(engine.irb)
            for write_queue in system.write_queues:
                self.check_write_queue(write_queue)
            by_name = system.pipeline.by_name
            if "dedup" in by_name:
                self.check_dedup(by_name["dedup"])
            if "encryption" in by_name:
                self.check_counters(by_name["encryption"])
            if full and "integrity" in by_name:
                self.check_merkle(by_name["integrity"])
            self.check_logs()
        except InvariantViolation as violation:
            self._c_violations.add()
            tracer = getattr(self.system, "tracer", None)
            if tracer is not None and tracer.enabled:
                tracer.instant(
                    f"violation:{violation.invariant}", "validate",
                    ("validate", violation.layer),
                    ts_ns=self.system.sim.now,
                    args={"invariant": violation.invariant,
                          "layer": violation.layer,
                          "detail": violation.detail})
            runlog.event("validate", "invariant_violation",
                         sim_ns=self.system.sim.now, level="error",
                         invariant=violation.invariant,
                         layer=violation.layer,
                         detail=violation.detail)
            raise

    # -- janus: IRB index <-> entry bijection ---------------------------
    def check_irb(self, irb) -> None:
        resident = set(irb._order)
        if len(resident) > irb.capacity:
            raise InvariantViolation(
                "irb-bijection", "janus",
                f"occupancy {len(resident)} exceeds capacity "
                f"{irb.capacity}",
                {"occupancy": len(resident), "capacity": irb.capacity})
        indexes = (
            ("_by_key", irb._by_key, lambda e: e.key(), None),
            ("_by_thread", irb._by_thread, lambda e: e.thread_id, None),
            ("_by_thread_line", irb._by_thread_line,
             lambda e: (e.thread_id, e.line_addr),
             lambda e: e.line_addr is not None),
            ("_by_line", irb._by_line, lambda e: e.line_addr,
             lambda e: e.line_addr is not None),
            ("_data_only", irb._data_only, lambda e: e.thread_id,
             lambda e: e.line_addr is None),
        )
        for name, index, key_of, applies in indexes:
            # Direction 1: every bucket member is resident, correctly
            # keyed, and belongs in this index at all.
            for key, bucket in index.items():
                if not bucket:
                    raise InvariantViolation(
                        "irb-bijection", "janus",
                        f"empty bucket {key!r} left in {name}",
                        {"index": name, "key": repr(key)})
                for entry in bucket:
                    if entry not in resident:
                        raise InvariantViolation(
                            "irb-bijection", "janus",
                            f"{name}[{key!r}] holds a non-resident "
                            f"entry",
                            {"index": name, "key": repr(key),
                             "entry": _canon_entry(entry)})
                    if key_of(entry) != key or \
                            (applies is not None and not applies(entry)):
                        raise InvariantViolation(
                            "irb-bijection", "janus",
                            f"entry misfiled under {name}[{key!r}]",
                            {"index": name, "key": repr(key),
                             "entry": _canon_entry(entry)})
            # Direction 2: every resident entry that belongs in this
            # index is actually filed there.
            for entry in resident:
                if applies is not None and not applies(entry):
                    continue
                bucket = index.get(key_of(entry))
                if bucket is None or entry not in bucket:
                    raise InvariantViolation(
                        "irb-bijection", "janus",
                        f"resident entry missing from {name}",
                        {"index": name,
                         "entry": _canon_entry(entry)})
        last_link, last_created = None, None
        for entry in irb._order:
            if last_link is not None and entry.link_seq <= last_link:
                raise InvariantViolation(
                    "irb-bijection", "janus",
                    "link_seq not strictly increasing in buffer order",
                    {"entry": _canon_entry(entry),
                     "previous_link_seq": last_link})
            if last_created is not None and \
                    entry.created_at < last_created:
                raise InvariantViolation(
                    "irb-bijection", "janus",
                    "created_at decreases in buffer order",
                    {"entry": _canon_entry(entry),
                     "previous_created_at": last_created})
            last_link, last_created = entry.link_seq, entry.created_at

    # -- core/mem: cross-shard sfence barrier ---------------------------
    def check_sfence(self, core_id: int) -> None:
        """Called by ``Core.sfence`` as the fence retires: the fence's
        durability contract must hold on every controller it may have
        touched (on the sharded machine a fence is a barrier over all
        shards its writebacks landed on).

        Deliberately metric-free and O(shards): it runs on every
        fence of a checked run.
        """
        system = self.system
        sharded = len(system.controllers) > 1
        for controller in system.controllers:
            write_queue = controller.write_queue
            accepted = write_queue._c_accepted.value
            drained = write_queue._c_drained.value
            undrained = accepted - drained
            # Unlike the commit-point check, a fence can observe an
            # accept between its slot grant and its resumption, so
            # ``outstanding`` may transiently exceed the accepted
            # count — but never the reverse, and the pending list must
            # agree with the counters exactly.
            if len(write_queue._pending) != undrained \
                    or undrained > write_queue.outstanding:
                raise InvariantViolation(
                    "sfence-barrier", "mem",
                    f"shard {controller.shard_id} write-queue "
                    f"accounting inconsistent at sfence "
                    f"(core {core_id})",
                    {"core": core_id, "shard": controller.shard_id,
                     "accepted": accepted, "drained": drained,
                     "pending": len(write_queue._pending),
                     "outstanding": write_queue.outstanding})
            policy = controller.policy
            if policy.name != "async-epoch":
                continue
            # A coordinator demand-close may seal one epoch past the
            # bound on a sharded machine (docs/sharding.md); the
            # single-shard bound is exact.
            slack = 1 if sharded else 0
            debt = policy._epochs_closed - policy._epochs_flushed
            if debt > policy.staleness_epochs + slack:
                raise InvariantViolation(
                    "sfence-barrier", "core",
                    f"shard {controller.shard_id} staleness debt "
                    f"{debt} exceeds bound "
                    f"{policy.staleness_epochs} + {slack} at sfence "
                    f"(core {core_id})",
                    {"core": core_id, "shard": controller.shard_id,
                     "epochs_closed": policy._epochs_closed,
                     "epochs_flushed": policy._epochs_flushed,
                     "staleness_epochs": policy.staleness_epochs,
                     "slack": slack})

    # -- mem: write-queue epoch ordering --------------------------------
    def check_write_queue(self, wq) -> None:
        last = None
        for entry in wq._pending:
            if last is not None and entry.accepted_at < last:
                raise InvariantViolation(
                    "wq-epoch-order", "mem",
                    "pending entries out of acceptance order",
                    {"addr": entry.addr,
                     "accepted_at": entry.accepted_at,
                     "previous_accepted_at": last})
            last = entry.accepted_at
        accepted = wq._c_accepted.value
        drained = wq._c_drained.value
        undrained = accepted - drained
        # ``outstanding`` (slots in use) may transiently exceed the
        # accepted count: a concurrent accept holds its slot from the
        # grant instant, but only counts as accepted when its process
        # resumes.  The reverse can never hold, and the pending list
        # must agree with the counters exactly.
        if len(wq._pending) != undrained or undrained > wq.outstanding:
            raise InvariantViolation(
                "wq-epoch-order", "mem",
                f"accepted({accepted}) - drained({drained}) "
                f"inconsistent with pending({len(wq._pending)}) / "
                f"outstanding({wq.outstanding})",
                {"accepted": accepted, "drained": drained,
                 "pending": len(wq._pending),
                 "outstanding": wq.outstanding})

    # -- crypto: Merkle root agreement ----------------------------------
    def check_merkle(self, integrity) -> None:
        live = integrity.tree
        rebuilt = MerkleTree(arity=live.arity, height=live.height)
        for index, value in integrity.committed_leaves.items():
            rebuilt.update_leaf(index, value)
        if rebuilt.root != live.root:
            raise InvariantViolation(
                "merkle-root", "crypto",
                "live Merkle root disagrees with a from-scratch "
                "rebuild over the committed leaves",
                {"live_root": live.root.hex(),
                 "rebuilt_root": rebuilt.root.hex(),
                 "leaves": len(integrity.committed_leaves)})

    # -- crypto: counter monotonicity -----------------------------------
    def check_counters(self, encryption) -> None:
        engine = encryption.engine
        for addr, counter in engine._counters.items():
            seen = self._counter_watermarks.get(addr)
            if seen is not None and counter < seen:
                raise InvariantViolation(
                    "counter-monotone", "crypto",
                    f"encryption counter for line {addr:#x} went "
                    f"backwards ({seen} -> {counter}): pad reuse",
                    {"addr": addr, "previous": seen,
                     "current": counter})
            self._counter_watermarks[addr] = counter

    # -- bmo: dedup refcount <-> remap agreement ------------------------
    def check_dedup(self, dedup) -> None:
        table = dedup.table
        aliases: Dict[bytes, int] = {}
        for addr, fingerprint in table.remap.items():
            aliases[fingerprint] = aliases.get(fingerprint, 0) + 1
            if fingerprint not in table.entries:
                raise InvariantViolation(
                    "dedup-refcount", "bmo",
                    f"remap for line {addr:#x} targets a dropped "
                    f"dedup entry",
                    {"addr": addr, "fingerprint": fingerprint.hex()})
        for fingerprint, entry in table.entries.items():
            if entry.refcount <= 0:
                raise InvariantViolation(
                    "dedup-refcount", "bmo",
                    "dedup entry survives at refcount <= 0",
                    {"fingerprint": fingerprint.hex(),
                     "refcount": entry.refcount})
            expected = aliases.get(fingerprint, 0)
            if entry.refcount != expected:
                raise InvariantViolation(
                    "dedup-refcount", "bmo",
                    f"refcount {entry.refcount} != {expected} remap "
                    f"aliases",
                    {"fingerprint": fingerprint.hex(),
                     "refcount": entry.refcount,
                     "aliases": expected,
                     "store_addr": entry.store_addr})
            if dedup.engine.fingerprint(entry.plaintext) != fingerprint:
                raise InvariantViolation(
                    "dedup-refcount", "bmo",
                    "stored plaintext does not re-fingerprint to its "
                    "table key (stale pre-executed fingerprint "
                    "committed)",
                    {"fingerprint": fingerprint.hex(),
                     "store_addr": entry.store_addr,
                     "plaintext": entry.plaintext.hex()})

    # -- consistency: log committed-prefix rules ------------------------
    def check_logs(self) -> None:
        read_line = self.system.volatile.read_line
        for kind, log in self._logs:
            parser = parse_log if kind == "undo" else parse_redo_log
            committed = set()
            last_txn = None
            try:
                for record in parser(read_line, log.base, log.capacity):
                    rec_kind, txn_id = record[0], record[1]
                    if last_txn is not None and txn_id < last_txn:
                        # Wrapped tail: records beyond the monotone
                        # prefix are dead space from a previous lap.
                        break
                    last_txn = txn_id
                    if rec_kind == "commit":
                        committed.add(txn_id)
                    elif txn_id in committed:
                        raise InvariantViolation(
                            "log-prefix", "consistency",
                            f"{kind} log appends a {rec_kind!r} record "
                            f"for txn {txn_id} after its commit",
                            {"log": kind, "txn_id": txn_id,
                             "record": rec_kind})
            except RecoveryError as error:
                raise InvariantViolation(
                    "log-prefix", "consistency",
                    f"{kind} log corrupt within its monotone prefix: "
                    f"{error}",
                    {"log": kind, "base": log.base,
                     "error": str(error)}) from error
