"""Shared workload infrastructure: parameters, value generation with a
target deduplication ratio, hook-driven instrumentation, fast seeding.
"""

import hashlib
import json
from dataclasses import dataclass
from itertools import repeat
from typing import Dict, List, Optional, Tuple

from repro.common.errors import SimulationError
from repro.common.units import CACHE_LINE_BYTES, align_up, line_span
from repro.compiler import AutoInstrumenter, InstrumentationPlan
from repro.compiler.ir import (
    AddrGen,
    Fence,
    Hook,
    Store,
    Template,
    Value,
    Writeback,
)
from repro.consistency.undo_log import UndoLog
from repro.janus.api import PreObj


def _jsonable(value):
    """Recursively convert a logical state to JSON-able primitives."""
    if isinstance(value, (bytes, bytearray)):
        return value.hex()
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def commit_template_tail():
    """IR statements for the transaction-commit step.

    The undo-log library is small and inlined by the compiler the
    paper builds on (LLVM after inlining sees the commit record's
    store and writeback inside the transaction function), so every
    workload template ends with this tail.  The commit record's
    address comes from the log allocator (memory-dependent — known at
    the ``pre_commit`` hook, where the runtime predicts it from the
    planned backups) and its content from the transaction id.
    """
    return [
        AddrGen("commit_rec", inputs=(), memory_dependent=True),
        Value("commit_record"),
        Hook("pre_commit"),
        Store("commit_rec", "commit_record", obj="commit"),
        Writeback("commit_rec", obj="commit"),
        Fence(),
    ]


@dataclass
class WorkloadParams:
    """Knobs shared by every workload."""

    #: Number of items/records in the pre-populated structure.
    n_items: int = 256
    #: Bytes updated per transaction (64 B default; Fig. 13 sweeps
    #: this from 64 B to 8 KB on the scalable workloads).
    value_size: int = 64
    #: Transactions to execute per core.
    n_transactions: int = 50
    #: Target fraction of written lines that duplicate existing data
    #: (drives the dedup mechanism; paper default 0.5).
    dedup_ratio: float = 0.5

    def validate(self) -> "WorkloadParams":
        if self.n_items <= 0 or self.n_transactions <= 0:
            raise SimulationError("n_items / n_transactions must be > 0")
        if self.value_size <= 0 or self.value_size % CACHE_LINE_BYTES:
            raise SimulationError(
                "value_size must be a positive multiple of 64")
        if not 0.0 <= self.dedup_ratio <= 1.0:
            raise SimulationError("dedup_ratio must be in [0, 1]")
        return self


class TransactionalWorkload:
    """Base class: hook firing, value generation, functional seeding."""

    name = "base"
    #: Whether Fig. 13/14 may scale this workload's transaction size.
    scalable = True

    def __init__(self, system, core, params: WorkloadParams,
                 plan: Optional[InstrumentationPlan] = None,
                 variant: str = "baseline"):
        self.system = system
        self.core = core
        self.params = params.validate()
        self.plan = plan if plan is not None \
            else InstrumentationPlan.empty(self.name)
        #: The instrumentation variant ``plan`` was made for.
        self.variant = variant
        self.log = UndoLog(core, capacity_bytes=max(
            1 << 20, 8 * params.n_transactions
            * (params.value_size + 2 * CACHE_LINE_BYTES)))
        rng = system.rng.fork(f"{self.name}-core{core.core_id}")
        self._value_rng = rng.stream("values")
        self._choice_rng = rng.stream("choices")
        self._pool: List[bytes] = []
        self._preobjs: Dict[str, PreObj] = {}
        self.completed_transactions = 0

    # -- construction hooks (overridden) -----------------------------------
    def setup(self) -> None:
        """Allocate and functionally seed the data structure."""
        raise NotImplementedError

    def transaction(self):
        """Generator: one transaction (simulation process fragment)."""
        raise NotImplementedError

    @classmethod
    def template(cls) -> Template:
        """The static IR the compiler pass analyses."""
        raise NotImplementedError

    @classmethod
    def manual_plan(cls) -> InstrumentationPlan:
        """Best-effort hand instrumentation (§4.4)."""
        raise NotImplementedError

    @classmethod
    def auto_plan(cls) -> InstrumentationPlan:
        """What the compiler pass produces for this workload."""
        return AutoInstrumenter().instrument(cls.template())

    # -- driving -------------------------------------------------------------
    def run(self, txns: Optional[int] = None):
        """Generator: execute ``txns`` transactions (default
        ``n_transactions``)."""
        for _ in range(self.params.n_transactions if txns is None
                       else txns):
            self._preobjs = {}
            yield from self.transaction()
            self.completed_transactions += 1

    # -- instrumentation ------------------------------------------------------
    def fire_hook(self, hook: str, env: Dict[str, Tuple]):
        """Issue the plan's directives for ``hook``.

        ``env`` maps object labels to ``(addr, data, size)``; entries
        the current knowledge cannot fill use ``None``.
        """
        observe = getattr(self.plan, "observe", None)
        if observe is not None:
            # Profiling run (profile-guided instrumentation, §6):
            # record what was available here instead of issuing.
            observe(hook, env)
        api = self.core.api
        if not api.enabled:
            return
        for directive in self.plan.at(hook):
            addr, data, size = env.get(directive.obj,
                                       (None, None, 0))
            obj = self._preobj_for(directive.group or directive.obj)
            kind = directive.kind
            if kind == "addr" and addr is not None:
                yield from api.pre_addr(obj, addr, size or 64)
            elif kind == "data" and data is not None:
                yield from api.pre_data(obj, data)
            elif kind == "both" and addr is not None and data is not None:
                yield from api.pre_both(obj, addr, data, size)
            elif kind == "both_val" and addr is not None \
                    and data is not None:
                yield from api.pre_both_val(obj, addr, 0, line_image=data)
            elif kind == "addr_buf" and addr is not None:
                yield from api.pre_addr_buf(obj, addr, size or 64)
            elif kind == "data_buf" and data is not None:
                yield from api.pre_data_buf(obj, data)
            elif kind == "both_buf" and addr is not None \
                    and data is not None:
                yield from api.pre_both_buf(obj, addr, data, size)
            elif kind == "start":
                yield from api.pre_start_buf(obj)

    def _preobj_for(self, obj_label: str) -> PreObj:
        if obj_label not in self._preobjs:
            self._preobjs[obj_label] = self.core.api.pre_init()
        return self._preobjs[obj_label]

    # -- value generation -------------------------------------------------------
    def make_value(self, nbytes: Optional[int] = None) -> bytes:
        """A value whose lines duplicate existing data at the target
        rate — this is what gives the dedup mechanism its hit ratio."""
        nbytes = nbytes if nbytes is not None else self.params.value_size
        nbytes = align_up(nbytes)
        lines = []
        for _ in range(nbytes // CACHE_LINE_BYTES):
            if self._pool and \
                    self._choice_rng.random() < self.params.dedup_ratio:
                lines.append(self._choice_rng.choice(self._pool))
            else:
                # One 8-bit draw per byte, looped in C.
                fresh = bytes(map(self._value_rng.getrandbits,
                                  repeat(8, CACHE_LINE_BYTES)))
                self._pool.append(fresh)
                lines.append(fresh)
        return b"".join(lines)

    def pick_index(self, bound: Optional[int] = None) -> int:
        return self._choice_rng.randrange(
            bound if bound is not None else self.params.n_items)

    # -- functional seeding --------------------------------------------------------
    def seed(self, addr: int, data: bytes) -> None:
        """Install initial data with consistent BMO metadata, outside
        simulated time (setup is not part of any measured figure)."""
        system = self.system
        system.volatile.write(addr, data)
        for line in line_span(addr, len(data)):
            line_data = system.volatile.read_line(line)
            ctx = system.pipeline.make_context(addr=line, data=line_data)
            system.pipeline.execute_all(ctx)
            action = system.pipeline.commit(ctx)
            if action.write_data:
                system.nvm.write_line(action.device_addr, action.payload)
        for line_offset in range(0, align_up(len(data)),
                                 CACHE_LINE_BYTES):
            chunk = data[line_offset:line_offset + CACHE_LINE_BYTES]
            if len(chunk) == CACHE_LINE_BYTES:
                self._pool.append(chunk)

    # -- resume-on-recovered-image support (soak harness) ---------------------
    def on_restore(self, read) -> None:
        """Rebuild volatile Python-side bookkeeping from a recovered
        image.  ``read(addr, size) -> bytes`` is the recovered view.

        Called by the soak harness after it reseeds this (freshly
        constructed) workload's allocations with recovered bytes, so a
        subclass can rederive cursors it normally tracks in Python
        (queue length, insert counters).  Default: nothing to do.
        """

    def refork_streams(self, tag: str) -> None:
        """Re-derive the value/choice rng streams under a cycle tag.

        A restored workload must not replay the rng positions of a
        fresh one — the soak harness tags each cycle so the resumed
        run and its reference twin draw identical, cycle-unique
        streams.
        """
        rng = self.system.rng.fork(
            f"{self.name}-core{self.core.core_id}-{tag}")
        self._value_rng = rng.stream("values")
        self._choice_rng = rng.stream("choices")

    # -- logical state (crash-campaign support) ------------------------------
    def logical_state(self, read) -> dict:
        """Structure-aware decode of the persistent image.

        ``read(addr, size) -> bytes`` abstracts over the live
        volatile image (``system.volatile.read``) and a post-crash
        ``RecoveredState.read`` — the crash campaign compares the two
        to prove recovery lands on a committed-transaction boundary.

        Subclasses return a JSON-able summary of the user-visible
        structure.  Traversals must be cycle- and size-guarded: a
        damaged image raises :class:`RecoveryError` instead of
        looping forever or decoding garbage into a plausible state.
        """
        raise NotImplementedError

    def logical_digest(self, read) -> str:
        """Canonical sha256 hex digest of :meth:`logical_state`."""
        blob = json.dumps(_jsonable(self.logical_state(read)),
                          sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    # -- common transaction helpers ---------------------------------------------
    def commit_env(self, txn, planned_payload_sizes=()) -> Dict[str, Tuple]:
        """Environment entry for pre-executing the commit record.

        Pass the payload sizes of the backups the transaction will
        perform to predict the record's address *before* the backup
        phase — that is what opens a useful pre-execution window for
        the commit (Fig. 3c overlaps the commit BMOs with the earlier
        transaction steps).
        """
        return {"commit": (
            txn.next_commit_record_addr(planned_payload_sizes),
            txn.commit_record_preview(),
            CACHE_LINE_BYTES)}
