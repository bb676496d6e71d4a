"""Hash table: upsert random keys into a chained hash table.

The paper singles this workload out (§5.2.1, trend 2): the update
location is discovered by the chain walk *immediately before* the
update, so the address-dependent pre-execution window is short and the
speedup smaller than Array Swap / B-Tree / TATP.
"""

import struct

from repro.compiler import (
    AddrGen,
    Fence,
    Hook,
    InstrumentationPlan,
    Store,
    Template,
    Writeback,
)
from repro.compiler.instrument import Directive
from repro.compiler.ir import LogBackup
from repro.common.units import CACHE_LINE_BYTES
from repro.workloads.base import TransactionalWorkload, commit_template_tail

_NODE = struct.Struct("<QQQ")  # key, value_ptr, next


class HashTableWorkload(TransactionalWorkload):
    """Chained hash table with line-sized nodes (Table 4)."""

    name = "hash_table"
    scalable = True

    N_BUCKETS = 128

    def setup(self) -> None:
        heap = self.system.heap
        self.buckets = heap.alloc_line(self.N_BUCKETS * 8,
                                       label="ht-buckets")
        self.seed(self.buckets, bytes(self.N_BUCKETS * 8))
        # Pre-populate with n_items keys.
        for key in range(self.params.n_items):
            self._seed_insert(key)

    def _bucket_addr(self, key: int) -> int:
        return self.buckets + (key % self.N_BUCKETS) * 8

    def _seed_insert(self, key: int) -> None:
        heap = self.system.heap
        blob = heap.alloc_line(self.params.value_size, label="ht-blob")
        node = heap.alloc_line(CACHE_LINE_BYTES, label="ht-node")
        self.seed(blob, self.make_value())
        bucket = self._bucket_addr(key)
        old_head = int.from_bytes(
            self.system.volatile.read(bucket, 8), "little")
        self.seed(node, _NODE.pack(key, blob, old_head).ljust(
            CACHE_LINE_BYTES, b"\x00"))
        line = bytearray(self.system.volatile.read_line(
            bucket - bucket % CACHE_LINE_BYTES))
        offset = bucket % CACHE_LINE_BYTES
        line[offset:offset + 8] = node.to_bytes(8, "little")
        self.seed(bucket - offset, bytes(line))

    # -- chain walk (simulated reads) -----------------------------------
    def _find(self, key: int):
        """Generator: walk the chain; returns (node_addr, value_ptr)."""
        head = yield from self.core.read(self._bucket_addr(key), 8)
        node = int.from_bytes(head, "little")
        while node:
            raw = yield from self.core.read(node, CACHE_LINE_BYTES)
            node_key, value_ptr, next_node = _NODE.unpack_from(raw)
            if node_key == key:
                return node, value_ptr
            node = next_node
        return 0, 0

    def transaction(self):
        size = self.params.value_size
        key = self.pick_index()
        new_value = self.make_value()
        yield from self.fire_hook("entry", {
            "value": (None, new_value, size),
        })
        node, value_ptr = yield from self._find(key)
        if node == 0:
            # Key absent (only possible pre-population miss): walk
            # found nothing; update the newest node in the bucket
            # instead so every transaction exercises the update path.
            head = yield from self.core.read(self._bucket_addr(key), 8)
            node = int.from_bytes(head, "little")
            if node == 0:
                return
            raw = yield from self.core.read(node, CACHE_LINE_BYTES)
            _k, value_ptr, _n = _NODE.unpack_from(raw)
        # after_lookup: the update address is finally known — the
        # short pre-execution window the paper describes.
        yield from self.fire_hook("after_lookup", {
            "value": (value_ptr, new_value, size),
        })
        txn = self.log.begin()
        yield from self.fire_hook("pre_commit",
                                  self.commit_env(txn, [size]))
        yield from txn.backup(value_ptr, size)
        yield from txn.fence_backups()
        yield from txn.write(value_ptr, new_value)
        yield from txn.fence_updates()
        yield from txn.commit()

    # -- functional check ---------------------------------------------------
    def lookup_value(self, key: int) -> bytes:
        """Non-simulated lookup for tests."""
        bucket = self._bucket_addr(key)
        node = int.from_bytes(
            self.system.volatile.read(bucket, 8), "little")
        while node:
            raw = self.system.volatile.read(node, CACHE_LINE_BYTES)
            node_key, value_ptr, next_node = _NODE.unpack_from(raw)
            if node_key == key:
                return self.system.volatile.read(
                    value_ptr, self.params.value_size)
            node = next_node
        return b""

    # -- logical state ---------------------------------------------------------
    def logical_state(self, read) -> dict:
        from repro.common.errors import RecoveryError

        limit = self.params.n_items + self.params.n_transactions + 8
        table = {}
        for b in range(self.N_BUCKETS):
            node = int.from_bytes(read(self.buckets + b * 8, 8),
                                  "little")
            chain, seen = [], set()
            while node:
                if node in seen:
                    raise RecoveryError(
                        f"hash chain cycle at node {node:#x}")
                if len(chain) > limit:
                    raise RecoveryError("hash chain exceeds bound")
                seen.add(node)
                key, value_ptr, next_node = _NODE.unpack_from(
                    read(node, CACHE_LINE_BYTES))
                chain.append([key,
                              read(value_ptr, self.params.value_size)
                              if value_ptr else b""])
                node = next_node
            if chain:
                table[b] = chain
        return {"buckets": table}

    # -- template / plans -----------------------------------------------------
    @classmethod
    def template(cls) -> Template:
        return Template(
            name=cls.name,
            args=("key", "new_value"),
            body=[
                Hook("entry"),
                # The chain walk: address known only after probing.
                AddrGen("slot", inputs=("key",), memory_dependent=True),
                Hook("after_lookup"),
                LogBackup("slot", obj="value"),
                Fence(),
                Store("slot", "new_value", obj="value"),
                Writeback("slot", obj="value"),
                Fence(),
            ] + commit_template_tail())

    @classmethod
    def manual_plan(cls) -> InstrumentationPlan:
        plan = InstrumentationPlan(template=f"{cls.name}-manual")
        # The data is known at entry (before the walk) — the manual
        # programmer exploits that; the pass does too (val from args).
        plan.add("entry", Directive("data", "value"))
        plan.add("after_lookup", Directive("addr", "value"))
        plan.add("pre_commit", Directive("both_val", "commit"))
        return plan
