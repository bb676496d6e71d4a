"""Inline deduplication as a decomposed BMO (DeWrite-style).

Sub-operations (paper §3.1):

* ``D1`` — fingerprint the data (MD5 by default, CRC-32 as the
  lightweight Fig. 12 alternative) — data-dependent,
* ``D2`` — look the fingerprint up in the dedup table — data-dependent,
* ``D3`` — update the address-mapping (remap) table entry,
* ``D4`` — encrypt the new metadata entry and write it back (the
  metadata entry co-locates the remap pointer and the encryption
  counter, which is the inter-operation edge E1 -> D4).

Functional model
----------------

``DedupTable`` keeps refcounted entries keyed by fingerprint.  Each
entry remembers where the single physical copy of the ciphertext lives
(``store_addr``), and the ``(pad_addr, counter)`` pair its OTP was
derived from, so any aliasing line can be decrypted through the remap
table.  Overwriting a canonical line whose data other lines still
reference *relocates* the old ciphertext to a shadow line first — and
fires a metadata-change notification, which is the paper's worked
example of IRB invalidation (§4.3.1: "an intervening write to location
A ... the pre-execution result in the IRB will be invalidated").

CRC-32 fingerprints are only 32 bits, so a table hit is confirmed with
a byte compare against the stored plaintext before declaring a
duplicate (false fingerprint matches are then harmless).
"""

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.bmo.base import (
    ADDR,
    BackendOperation,
    BmoContext,
    DATA,
    SubOp,
)
from repro.common.config import BmoLatencies, DedupConfig
from repro.common.errors import SimulationError
from repro.crypto.primitives import FingerprintEngine


@dataclass
class DedupEntry:
    """One deduplicated value and where its ciphertext lives."""

    fingerprint: bytes
    store_addr: int     # NVM line holding the single ciphertext copy
    pad_addr: int       # address the OTP was derived from
    counter: int        # counter the OTP was derived from
    refcount: int
    plaintext: bytes    # kept for CRC confirm + recovery checks


class DedupTable:
    """Fingerprint table + address remap table + shadow allocator."""

    def __init__(self, shadow_base: int, shadow_lines: int = 4096,
                 line_bytes: int = 64):
        self.entries: Dict[bytes, DedupEntry] = {}
        self.remap: Dict[int, bytes] = {}
        self.line_bytes = line_bytes
        self._shadow_base = shadow_base
        self._shadow_limit = shadow_base + shadow_lines * line_bytes
        self._shadow_next = shadow_base
        self.relocations = 0

    def alloc_shadow_line(self) -> int:
        """A fresh line in the dedup reserve region (for relocation)."""
        if self._shadow_next >= self._shadow_limit:
            raise SimulationError("dedup shadow region exhausted")
        addr = self._shadow_next
        self._shadow_next += self.line_bytes
        return addr

    def lookup(self, fingerprint: bytes,
               data: bytes = None) -> Optional[DedupEntry]:
        """Find an entry, confirming weak fingerprints against data."""
        entry = self.entries.get(fingerprint)
        if entry is None:
            return None
        if data is not None and entry.plaintext != data:
            return None  # fingerprint collision (possible with CRC-32)
        return entry

    def snapshot(self) -> dict:
        return {
            "entries": {
                fp: DedupEntry(e.fingerprint, e.store_addr, e.pad_addr,
                               e.counter, e.refcount, e.plaintext)
                for fp, e in self.entries.items()},
            "remap": dict(self.remap),
            "shadow_next": self._shadow_next,
        }

    def restore(self, snap: dict) -> None:
        self.entries = {
            fp: DedupEntry(e.fingerprint, e.store_addr, e.pad_addr,
                           e.counter, e.refcount, e.plaintext)
            for fp, e in snap["entries"].items()}
        self.remap = dict(snap["remap"])
        self._shadow_next = snap["shadow_next"]


class DedupBmo(BackendOperation):
    """Deduplication mechanism with pluggable fingerprint engine."""

    name = "dedup"

    def __init__(self, latencies: BmoLatencies, config: DedupConfig,
                 table: DedupTable = None,
                 nvm_copy_line=None,
                 with_encryption: bool = False):
        super().__init__()
        self.with_encryption = with_encryption
        self.lat = latencies
        self.cfg = config
        fingerprint_latency = (latencies.md5_ns
                               if config.algorithm == "md5"
                               else latencies.crc32_ns)
        self.engine = FingerprintEngine(config.algorithm,
                                        fingerprint_latency)
        self.table = table if table is not None else DedupTable(
            shadow_base=1 << 40)
        #: Callback(src_line, dst_line) the memory controller installs
        #: so relocation can physically move ciphertext in NVM.
        self.nvm_copy_line = nvm_copy_line
        self.duplicate_writes = 0
        self.unique_writes = 0

    # -- functional sub-op bodies -------------------------------------
    def _d1(self, ctx: BmoContext) -> None:
        ctx.values["fingerprint"] = self.engine.fingerprint(ctx.data)

    def _d2(self, ctx: BmoContext) -> None:
        fingerprint = ctx.require("fingerprint")
        entry = self.table.lookup(fingerprint, ctx.data)
        # A write whose own line already canonically holds this value
        # is also a duplicate (idempotent rewrite).
        ctx.values["is_dup"] = entry is not None
        ctx.values["dup_entry_counter"] = \
            entry.counter if entry is not None else None

    def _d3(self, ctx: BmoContext) -> None:
        # The new remap-table entry: alias to the existing copy for a
        # duplicate, identity mapping (plus encryption counter) for a
        # unique value.  Built in the context; installed at commit.
        ctx.values["remap_entry"] = (
            ctx.addr, ctx.require("fingerprint"),
            bool(ctx.values.get("is_dup")))

    def _d4(self, ctx: BmoContext) -> None:
        # Encrypt the metadata entry for writeback.  Modeled functionally
        # as bundling the entry with the counter (co-located metadata,
        # inter-op dependency E1 -> D4).
        ctx.values["metadata_line"] = (
            ctx.require("remap_entry"), ctx.values.get("counter"))

    def subops(self) -> Tuple[SubOp, ...]:
        return (
            SubOp("D1", self.name, self.engine.latency_ns,
                  deps=(), external=frozenset({DATA}), run=self._d1),
            SubOp("D2", self.name, self.lat.dedup_lookup_ns,
                  deps=("D1",), run=self._d2),
            SubOp("D3", self.name, self.lat.remap_update_ns,
                  deps=("D2",), external=frozenset({ADDR}), run=self._d3),
            SubOp("D4", self.name, self.lat.remap_update_ns,
                  deps=("D3", "E1") if self.with_encryption else ("D3",),
                  run=self._d4),
        )

    # -- commit / staleness --------------------------------------------
    def _decref(self, fingerprint: bytes) -> None:
        entry = self.table.entries.get(fingerprint)
        if entry is None:
            return
        entry.refcount -= 1
        if entry.refcount <= 0:
            del self.table.entries[fingerprint]
            self.notify_metadata_change(kind="entry_dropped",
                                        fingerprint=fingerprint,
                                        store_addr=entry.store_addr)

    def commit(self, ctx: BmoContext,
               entry: Optional[DedupEntry]) -> None:
        """Install ``ctx``'s write in the tables.  ``entry`` is the
        live table entry for its data (``None`` for a unique value):
        :meth:`BmoPipeline.commit` looks it up once, before any BMO
        commits, for its stale-verdict check and for this.  No other
        BMO's commit touches the dedup table, and relocating this
        line's old value below moves no entry, so the lookup still
        holds here."""
        fingerprint = ctx.require("fingerprint")
        addr = ctx.addr
        old_fp = self.table.remap.get(addr)

        # If this line canonically stores a value other lines still
        # alias, relocate that ciphertext before overwriting the line.
        if old_fp is not None:
            old_entry = self.table.entries.get(old_fp)
            if (old_entry is not None and old_entry.store_addr == addr
                    and old_entry.refcount > 1
                    and old_fp != fingerprint):
                shadow = self.table.alloc_shadow_line()
                if self.nvm_copy_line is not None:
                    self.nvm_copy_line(old_entry.store_addr, shadow)
                old_entry.store_addr = shadow
                self.table.relocations += 1
                self.notify_metadata_change(kind="relocated",
                                            fingerprint=old_fp,
                                            store_addr=shadow)

        # Commit against the *current* table state (the verdict in ctx
        # is refreshed by the executor when stale, but correctness here
        # must not hinge on that).
        if entry is not None:
            entry.refcount += 1
            self.duplicate_writes += 1
        else:
            # Unique value: this line becomes the canonical copy.
            self.table.entries[fingerprint] = DedupEntry(
                fingerprint=fingerprint,
                store_addr=addr,
                pad_addr=addr,
                counter=ctx.values.get("counter", 0),
                refcount=1,
                plaintext=bytes(ctx.data),
            )
            self.unique_writes += 1
        if old_fp is not None and old_fp != fingerprint:
            self._decref(old_fp)
        if old_fp == fingerprint and entry is not None:
            # Idempotent rewrite of the same value: refcount was bumped
            # above but the alias count did not actually grow.
            entry.refcount -= 1
        self.table.remap[addr] = fingerprint

    def stale_subops(self, ctx: BmoContext) -> set:
        """The pre-executed duplicate verdict is stale if the table
        changed so the verdict would differ now (§4.3.1, cause 2)."""
        if "fingerprint" not in ctx.values or "is_dup" not in ctx.values:
            return set()
        entry = self.table.lookup(ctx.values["fingerprint"], ctx.data)
        if (entry is not None) != bool(ctx.values["is_dup"]):
            return {"D2"}
        return set()

    def observed_ratio(self) -> float:
        total = self.duplicate_writes + self.unique_writes
        return self.duplicate_writes / total if total else 0.0

    def unreconstructable_metadata(self) -> dict:
        return {"dedup": self.table.snapshot()}

    def restore_metadata(self, snapshot: dict) -> None:
        self.table.restore(snapshot["dedup"])
