"""The fault-injection hook layer.

One :class:`FaultInjector` attaches to one
:class:`~repro.core.machine.NvmSystem` and is called from these sites:

* ``filter_read(addr, data)`` — the resilient-read data path
  (degraded-mode reads and the recovery reader): the Nth filtered
  read returns a transiently corrupted copy;
* ``on_device_write(entry)`` — after a write-queue drain (or ADR
  flush) lands bytes in functional NVM: one-shot bit flips and
  stuck-at cells mutate the stored line *after* the write, exactly
  like failing media;
* ``on_irb_complete(entry)`` — after the Janus engine finishes
  pre-executing an IRB entry: corrupt the buffered data copy or
  perturb a pre-executed result so the entry is stale;
* ``on_power_failure()`` / ``adr_fate(entry)`` — at ``crash()``:
  metadata-store corruption, and per-entry drop/tear decisions for
  the ADR flush;
* ``on_recovery_step(stage)`` / ``on_scrub_step(stage)`` — called by
  :mod:`repro.consistency.recovery` and
  :mod:`repro.consistency.scrub` at every instrumented step: a
  ``recovery_crash`` / ``scrub_crash`` spec raises
  :class:`~repro.common.errors.RecoveryCrash` there, modelling a
  second power failure mid-recovery (the idempotence oracle and the
  soak harness drive these).

An injector used on the recovery path is *detached* — it never saw
``attach()``, so it has no system, metrics scope, or tracer; every
emission site guards for that.

Every injection is counted in the ``faults`` metrics scope and, when
tracing is enabled, emitted as an instant span — the observability
layer is how campaigns prove a fault was *injected* and separately
prove it was *handled*.
"""

from typing import Dict, List, Optional, Tuple

from repro.common.errors import RecoveryCrash
from repro.common.rng import DeterministicRng
from repro.common.units import CACHE_LINE_BYTES
from repro.faults.plan import FaultPlan, FaultSpec
from repro.obs import log as runlog

_TRACK = ("faults", "injector")


def _apply_bits(line: bytes, bits, mode: str = "flip",
                value: int = 0) -> bytes:
    out = bytearray(line)
    for bit in bits:
        byte, shift = bit // 8, bit % 8
        if mode == "flip":
            out[byte] ^= 1 << shift
        elif value:
            out[byte] |= 1 << shift
        else:
            out[byte] &= ~(1 << shift)
    return bytes(out)


class FaultInjector:
    """Applies a :class:`FaultPlan` to a live system."""

    def __init__(self, plan: Optional[FaultPlan] = None):
        self.plan = plan if plan is not None else FaultPlan()
        self.system = None
        self._rng = DeterministicRng(self.plan.seed).stream(
            "fault-injector")
        #: hook site -> number of eligible events observed.
        self.events: Dict[str, int] = {}
        #: Everything injected, in order — campaign reports embed it.
        self.injected: List[Dict] = []
        #: line addr -> [(bit, stuck value)] for stuck-at cells.
        self._stuck: Dict[int, List[Tuple[int, int]]] = {}
        self.stats = None
        self.tracer = None

    # -- wiring -----------------------------------------------------------
    def attach(self, system) -> "FaultInjector":
        """Wire this injector into a constructed system."""
        self.system = system
        self.stats = system.metrics.scope("faults")
        self.tracer = system.tracer
        self._c_injected = self.stats.counter("injected")
        # Every shard's queue / engine reports here (one list each on
        # the unsharded machine).
        for write_queue in system.write_queues:
            write_queue.injector = self
        for engine in system.janus_engines:
            engine.injector = self
        return self

    # -- bookkeeping -------------------------------------------------------
    def _bump(self, site: str) -> int:
        count = self.events.get(site, 0) + 1
        self.events[site] = count
        return count

    def _fire(self, spec: FaultSpec, **detail) -> None:
        record = {"kind": spec.kind, **detail}
        self.injected.append(record)
        sim_ns = self.system.sim.now if self.system is not None \
            else None
        if self.stats is not None:
            self._c_injected.add()
            self.stats.counter(f"injected_{spec.kind}").add()
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.instant(
                f"fault:{spec.kind}", "faults", _TRACK,
                ts_ns=sim_ns, args=record)
        runlog.event("faults", "injected", sim_ns=sim_ns,
                     level="warn", **record)

    def _eligible(self, spec: FaultSpec,
                  addr: Optional[int] = None) -> bool:
        """Apply the spec's ``line_range`` window and seeded
        ``probability`` gate (the event count is unaffected)."""
        if spec.line_range is not None and addr is not None:
            lo, hi = spec.line_range
            if not lo <= addr < hi:
                return False
        if spec.probability < 1.0 \
                and self._rng.random() >= spec.probability:
            return False
        return True

    def injected_of(self, kind: str) -> List[Dict]:
        return [r for r in self.injected if r["kind"] == kind]

    # -- media: device writes ------------------------------------------------
    def on_device_write(self, entry) -> None:
        """Called after ``entry``'s bytes landed in functional NVM."""
        count = self._bump("device_write")
        nvm = self.system.nvm
        for spec in self.plan.by_kind("media_write_flip"):
            if spec.after_n != count:
                continue
            if not self._eligible(spec, addr=entry.addr):
                continue
            if spec.sticky:
                cells = self._stuck.setdefault(entry.addr, [])
                cells.extend((bit, spec.stuck_value)
                             for bit in spec.bits)
                self._fire(spec, addr=entry.addr,
                           bits=list(spec.bits), sticky=True)
            else:
                nvm.write_line(entry.addr, _apply_bits(
                    nvm.read_line(entry.addr), spec.bits))
                self._fire(spec, addr=entry.addr,
                           bits=list(spec.bits), sticky=False)
        cells = self._stuck.get(entry.addr)
        if cells:
            line = nvm.read_line(entry.addr)
            for bit, value in cells:
                line = _apply_bits(line, (bit,), mode="stuck",
                                   value=value)
            nvm.write_line(entry.addr, line)

    # -- media: resilient reads ---------------------------------------------
    def filter_read(self, addr: int, data: bytes) -> bytes:
        """Resilient-read data path: corrupt one returned copy.

        Transient faults are one-shot — the stored line is clean, so
        the :class:`DegradedModeManager`'s retry succeeds.  A
        ``media_read_transient`` spec fires on the Nth filtered read.
        """
        count = self._bump("filtered_read")
        for spec in self.plan.by_kind("media_read_transient"):
            if spec.after_n == count \
                    and self._eligible(spec, addr=addr):
                self._fire(spec, addr=addr, bits=list(spec.bits))
                return _apply_bits(data, spec.bits)
        return data

    # -- IRB ---------------------------------------------------------------
    def on_irb_complete(self, entry) -> None:
        """Called by the Janus engine after pre-execution finishes.

        ``after_n`` counts *eligible* completions per fault kind
        (entries a corruption could actually touch), so a plan never
        lands on a data-less commit-value entry and fizzles.
        """
        self._bump("irb_complete")
        if entry.data is not None:
            count = self._bump("irb_complete_data")
            for spec in self.plan.by_kind("irb_corrupt"):
                if spec.after_n == count:
                    entry.data = _apply_bits(entry.data, spec.bits)
                    self._fire(spec, line_addr=entry.line_addr,
                               bits=list(spec.bits))
        values = entry.ctx.values
        if "counter" in values or "is_dup" in values:
            count = self._bump("irb_complete_result")
            for spec in self.plan.by_kind("irb_stale"):
                if spec.after_n != count:
                    continue
                if "counter" in values:
                    values["counter"] = values["counter"] + 1
                    self._fire(spec, line_addr=entry.line_addr,
                               perturbed="counter")
                else:
                    values["is_dup"] = not values["is_dup"]
                    self._fire(spec, line_addr=entry.line_addr,
                               perturbed="is_dup")

    # -- power failure -------------------------------------------------------
    def adr_fate(self, entry) -> str:
        """Fate of one accepted entry during the ADR flush."""
        count = self._bump("adr_entry")
        for spec in self.plan.by_kind("wq_drop"):
            if spec.after_n == count:
                self._fire(spec, addr=entry.addr)
                return "drop"
        for spec in self.plan.by_kind("wq_tear"):
            if spec.after_n == count:
                self._fire(spec, addr=entry.addr)
                return "tear"
        return "flush"

    def tear(self, entry) -> None:
        """Mutate ``entry`` into a torn line: new head, old tail."""
        old = self.system.nvm.read_line(entry.addr)
        half = CACHE_LINE_BYTES // 2
        entry.data = entry.data[:half] + old[half:]

    def on_power_failure(self) -> None:
        """Apply metadata-store corruption at the crash point."""
        pipeline = self.system.pipeline
        integrity = pipeline.by_name.get("integrity")
        encryption = pipeline.by_name.get("encryption")
        for spec in self.plan.by_kind("meta_merkle"):
            if integrity is None or not integrity.committed_leaves:
                continue
            keys = sorted(integrity.committed_leaves)
            index = keys[self._rng.randrange(len(keys))]
            leaf = integrity.committed_leaves[index]
            bit = spec.bits[0] % (len(leaf) * 8)
            integrity.committed_leaves[index] = _apply_bits(
                leaf, (bit,))
            self._fire(spec, leaf=index)
        for spec in self.plan.by_kind("meta_counter"):
            if encryption is None:
                continue
            counters = encryption.engine.snapshot_counters()
            if not counters:
                continue
            keys = sorted(counters)
            addr = keys[self._rng.randrange(len(keys))]
            encryption.engine.restore_counters(
                {**counters, addr: counters[addr] + 1})
            self._fire(spec, addr=addr)

    # -- crash points inside recovery / scrub -------------------------------
    def _crash_step(self, site: str, kind: str, stage: str,
                    **detail) -> None:
        count = self._bump(site)
        for spec in self.plan.by_kind(kind):
            if spec.after_n != count or not self._eligible(spec):
                continue
            self._fire(spec, step=count, stage=stage, **detail)
            raise RecoveryCrash(
                f"seeded {kind} at {site} {count} ({stage})",
                step=count, stage=stage)

    def on_recovery_step(self, stage: str, **detail) -> None:
        """One instrumented recovery step (log scan, restore write,
        media fetch).  Raises :class:`RecoveryCrash` when an armed
        ``recovery_crash`` spec's ``after_n`` matches — modelling a
        second power failure mid-recovery."""
        self._crash_step("recovery_step", "recovery_crash", stage,
                         **detail)

    def on_scrub_step(self, stage: str, **detail) -> None:
        """One instrumented scrub step (fetch / heal / poison)."""
        self._crash_step("scrub_step", "scrub_crash", stage, **detail)
