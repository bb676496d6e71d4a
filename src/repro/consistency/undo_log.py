"""Undo logging over the simulated persist primitives.

Log layout (all records line-aligned so every log write is a clean
64-byte persist):

* BACKUP record — header line ``[magic 'U', txn_id, addr, size]``
  followed by ``ceil(size / 64)`` payload lines holding the old data;
* COMMIT record — one line ``[magic 'C', txn_id]``.

Protocol per transaction (paper §2.1):

1. ``backup(addr, size)`` for every location to be modified, then
   ``fence_backups()`` — the old values must be durable before any
   in-place update;
2. ``write(addr, data)`` in place, then ``fence_updates()``;
3. ``commit()`` — the commit record is the consistency-critical write
   (it gets metadata atomicity under the selective policy).

Recovery scans the log: transactions with backups but no commit
record are rolled back oldest-record-last.
"""

import struct
import zlib
from typing import List, Tuple

from repro.common.errors import RecoveryError, SimulationError
from repro.common.units import CACHE_LINE_BYTES, align_up

_BACKUP_MAGIC = 0x554E444F  # 'UNDO'
_COMMIT_MAGIC = 0x434D4954  # 'CMIT'
_HEADER = struct.Struct("<IQQQ")  # magic, txn_id, addr, size
#: CRC trailer inside the 64-byte header line, after the 28-byte
#: header: payload_crc (crc32 of the payload bytes; 0 when there is
#: no payload) then header_crc (crc32 of bytes [0, 32)).  Recovery
#: uses them to distinguish a *torn* tail record (CRC mismatch: stop
#: the scan cleanly) from a *corrupt* log (valid CRC, insane fields:
#: raise RecoveryError).
_CRC_TRAILER = struct.Struct("<II")
_CRC_OFFSET = _HEADER.size  # 28


def pack_record(magic: int, txn_id: int, addr: int, size: int,
                payload: bytes = b"") -> bytes:
    """Build one CRC-protected 64-byte record header line."""
    head = _HEADER.pack(magic, txn_id, addr, size)
    head += zlib.crc32(payload).to_bytes(4, "little")
    head += zlib.crc32(head).to_bytes(4, "little")
    return head.ljust(CACHE_LINE_BYTES, b"\x00")


def unpack_record(line: bytes):
    """Parse one header line; returns ``(magic, txn_id, addr, size,
    payload_crc)`` or ``None`` when the header CRC does not match —
    a torn / half-written / never-written line."""
    magic, txn_id, addr, size = _HEADER.unpack_from(line)
    payload_crc, header_crc = _CRC_TRAILER.unpack_from(line, _CRC_OFFSET)
    if zlib.crc32(line[:_CRC_OFFSET + 4]) != header_crc:
        return None
    return magic, txn_id, addr, size, payload_crc


def _payload_bytes(read_line, payload_addr: int, size: int) -> bytes:
    out = bytearray()
    for offset in range(0, align_up(size), CACHE_LINE_BYTES):
        out += read_line(payload_addr + offset)
    return bytes(out[:size])


class UndoLog:
    """A per-core undo-log region in NVM."""

    def __init__(self, core, capacity_bytes: int = 1 << 20):
        self.core = core
        self.system = core.system
        self.capacity = align_up(capacity_bytes)
        self.base = self.system.heap.alloc_line(self.capacity,
                                                label=f"undo-log-"
                                                      f"{core.core_id}")
        self._head = self.base
        self.records_written = 0
        checker = getattr(self.system, "checker", None)
        if checker is not None:
            checker.register_log("undo", self)

    # -- space management --------------------------------------------------
    def _reserve(self, nbytes: int) -> int:
        nbytes = align_up(nbytes)
        if self._head + nbytes > self.base + self.capacity:
            # Simple wrap: the workloads' truncation points (commit)
            # make earlier records dead; a production log would verify
            # liveness, which the tests never violate.
            self._head = self.base
        addr = self._head
        self._head += nbytes
        return addr

    def predict_head_after(self, payload_sizes) -> int:
        """Where the head will be after appending backup records of
        the given payload sizes — pure arithmetic over the reserve
        policy, used to pre-execute the commit record before the
        backups are even written (its address and content are both
        statically determined, paper §4.4 / Fig. 4)."""
        head = self._head
        end = self.base + self.capacity
        for size in payload_sizes:
            nbytes = CACHE_LINE_BYTES + align_up(size)
            if head + nbytes > end:
                head = self.base
            head += nbytes
        if head + CACHE_LINE_BYTES > end:
            head = self.base
        return head

    def begin(self) -> "UndoTransaction":
        """Start a transaction (bumps the core's transaction id)."""
        self.core.current_txn_id += 1
        return UndoTransaction(self, self.core.current_txn_id)


class UndoTransaction:
    """One in-flight undo-logging transaction."""

    def __init__(self, log: UndoLog, txn_id: int):
        self.log = log
        self.core = log.core
        self.txn_id = txn_id
        self.backed_up: List[Tuple[int, int]] = []
        self.committed = False
        self._phase = "backup"

    # -- phase 1: backup ----------------------------------------------------
    def backup(self, addr: int, size: int):
        """Append a backup record with the current value of ``addr``."""
        if self._phase != "backup":
            raise SimulationError(
                f"backup() in phase {self._phase!r}")
        old = yield from self.core.read(addr, size)
        record_addr = self.log._reserve(
            CACHE_LINE_BYTES + align_up(size))
        header = pack_record(_BACKUP_MAGIC, self.txn_id, addr, size,
                             payload=old)
        yield from self.core.store(record_addr, header)
        yield from self.core.store(record_addr + CACHE_LINE_BYTES, old)
        yield from self.core.clwb(record_addr,
                                  CACHE_LINE_BYTES + align_up(size))
        self.backed_up.append((addr, size))
        self.log.records_written += 1

    def fence_backups(self):
        """Make every backup durable before the first in-place write."""
        yield from self.core.sfence()
        self._phase = "update"

    # -- phase 2: in-place update ---------------------------------------------
    def write(self, addr: int, data: bytes):
        """In-place update of a location that was backed up."""
        if self._phase == "backup":
            yield from self.fence_backups()
        if self._phase != "update":
            raise SimulationError(f"write() in phase {self._phase!r}")
        yield from self.core.store(addr, data)
        yield from self.core.clwb(addr, len(data))

    def fence_updates(self):
        yield from self.core.sfence()
        self._phase = "commit"

    # -- phase 3: commit -----------------------------------------------------
    def commit(self):
        """Write the commit record; the transaction becomes durable."""
        if self._phase == "backup":
            # A transaction may commit with no in-place updates (e.g.
            # it only appended fresh records); fences still apply.
            yield from self.fence_backups()
        if self._phase == "update":
            yield from self.fence_updates()
        if self._phase != "commit":
            raise SimulationError(f"commit() in phase {self._phase!r}")
        record_addr = self.log._reserve(CACHE_LINE_BYTES)
        yield from self.core.store(record_addr,
                                   self.commit_record_preview())
        # The commit record immediately mutates crash-consistency
        # status: it is the selectively metadata-atomic write (§4.3).
        yield from self.core.clwb(record_addr, CACHE_LINE_BYTES,
                                  critical=True)
        yield from self.core.sfence()
        self.committed = True
        self._phase = "done"

    # -- helpers for instrumentation -------------------------------------------
    def commit_record_preview(self) -> bytes:
        """The exact line image the commit record will hold — known
        before the commit step, so it can be pre-executed with
        PRE_BOTH_VAL (§4.4)."""
        return pack_record(_COMMIT_MAGIC, self.txn_id, 0, 0)

    def next_commit_record_addr(self, planned_payload_sizes=()) -> int:
        """Where the commit record will land.

        ``planned_payload_sizes`` lists the payload sizes of backups
        this transaction *will* write before committing; with it, the
        address is predictable before the backup phase starts.
        """
        return self.log.predict_head_after(planned_payload_sizes)


def parse_log(read_line, base: int, capacity: int):
    """Scan a log region in recovered plaintext.

    ``read_line(addr)`` returns 64 recovered bytes.  Yields
    ``("backup", txn_id, addr, size, record_addr)`` and
    ``("commit", txn_id)`` tuples in log order.

    Robustness contract: a record whose *header* CRC does not verify
    is *torn* — the crash interrupted its persist — and the scan
    stops cleanly there (without the header the next record boundary
    is unknown, so nothing after it can be trusted).  A record whose
    header verifies but whose *payload* CRC fails is a **torn
    payload**: the boundary is known, so the scan yields
    ``("torn_backup", txn_id, addr, size, payload_addr)`` and
    *continues* at the next record — the caller decides whether the
    damaged old-value image is ever needed (it is not when the
    transaction committed).  A record whose CRC verifies but whose
    fields are insane (size <= 0 or beyond the region) is *corrupt*
    and raises :class:`RecoveryError`.
    """
    offset = base
    end = base + capacity
    while offset + CACHE_LINE_BYTES <= end:
        parsed = unpack_record(read_line(offset))
        if parsed is None:
            break  # unwritten space or a torn header line
        magic, txn_id, addr, size, payload_crc = parsed
        if magic == _BACKUP_MAGIC:
            if size <= 0 or size > capacity:
                raise RecoveryError(
                    f"corrupt backup record at {offset:#x}")
            if offset + CACHE_LINE_BYTES + align_up(size) > end:
                break  # truncated: payload runs past the region
            payload = _payload_bytes(
                read_line, offset + CACHE_LINE_BYTES, size)
            if zlib.crc32(payload) != payload_crc:
                # Torn payload: the header landed (boundary known) but
                # the old data did not — report it and keep scanning.
                yield ("torn_backup", txn_id, addr, size,
                       offset + CACHE_LINE_BYTES)
            else:
                yield ("backup", txn_id, addr, size,
                       offset + CACHE_LINE_BYTES)
            offset += CACHE_LINE_BYTES + align_up(size)
        elif magic == _COMMIT_MAGIC:
            yield ("commit", txn_id, 0, 0, offset)
            offset += CACHE_LINE_BYTES
        else:
            break  # end of written log
