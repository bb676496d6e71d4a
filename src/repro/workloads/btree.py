"""B-tree: insert random keys into a persistent B-tree.

Nodes are 192-byte (3-line) records holding up to 7 (key, value-ptr)
pairs plus 8 child pointers; inserts use CLRS preemptive splitting.
Multi-line node writes give this workload the highest pre-execution
resource demand in the suite — it is the workload that keeps scaling
with unlimited BMO units in the paper's Fig. 14.
"""

import struct
from typing import Dict, List, Optional, Tuple

from repro.compiler import (
    AddrGen,
    Fence,
    Hook,
    InstrumentationPlan,
    Loop,
    Store,
    Template,
    Writeback,
)
from repro.compiler.instrument import Directive
from repro.compiler.ir import LogBackup, Value
from repro.common.errors import SimulationError
from repro.common.units import CACHE_LINE_BYTES
from repro.workloads.base import TransactionalWorkload, commit_template_tail

MIN_DEGREE = 4                      # t: max keys = 2t - 1 = 7
MAX_KEYS = 2 * MIN_DEGREE - 1
NODE_BYTES = 3 * CACHE_LINE_BYTES   # 192 B
_HEADER = struct.Struct("<HB")      # n_keys, is_leaf


def _pack(node: dict) -> bytes:
    out = bytearray(NODE_BYTES)
    _HEADER.pack_into(out, 0, len(node["keys"]), 1 if node["leaf"] else 0)
    pos = 8
    for key, value_ptr in zip(node["keys"], node["values"]):
        struct.pack_into("<QQ", out, pos, key, value_ptr)
        pos += 16
    pos = 8 + MAX_KEYS * 16
    for child in node["children"]:
        struct.pack_into("<Q", out, pos, child)
        pos += 8
    return bytes(out)


def _unpack(raw: bytes) -> dict:
    n_keys, is_leaf = _HEADER.unpack_from(raw, 0)
    keys, values = [], []
    pos = 8
    for _ in range(n_keys):
        key, value_ptr = struct.unpack_from("<QQ", raw, pos)
        keys.append(key)
        values.append(value_ptr)
        pos += 16
    children = []
    if not is_leaf:
        pos = 8 + MAX_KEYS * 16
        for i in range(n_keys + 1):
            children.append(struct.unpack_from("<Q", raw,
                                               pos + 8 * i)[0])
    return {"keys": keys, "values": values, "children": children,
            "leaf": bool(is_leaf)}


class BTreeWorkload(TransactionalWorkload):
    """Persistent B-tree (Table 4, "B-Tree")."""

    name = "btree"
    scalable = True

    def setup(self) -> None:
        heap = self.system.heap
        self.meta_addr = heap.alloc_line(CACHE_LINE_BYTES,
                                         label="bt-meta")
        root = heap.alloc_line(NODE_BYTES, label="bt-node")
        self.seed(root, _pack({"keys": [], "values": [], "children": [],
                               "leaf": True}))
        self.seed(self.meta_addr, root.to_bytes(8, "little").ljust(
            CACHE_LINE_BYTES, b"\x00"))
        self.key_space = max(2 * self.params.n_items, 16)
        for _ in range(self.params.n_items):
            self._seed_insert(self.pick_index(self.key_space))

    def _vread(self, addr: int) -> dict:
        return _unpack(self.system.volatile.read(addr, NODE_BYTES))

    def _root(self) -> int:
        return int.from_bytes(
            self.system.volatile.read(self.meta_addr, 8), "little")

    def _seed_insert(self, key: int) -> None:
        cache: Dict[int, dict] = {}
        dirty: List[int] = []
        new_root, _blob = self._compute_insert(key, cache, dirty,
                                               reader=self._vread)
        for addr in dirty:
            self.seed(addr, _pack(cache[addr]))
        if new_root != self._root():
            self.seed(self.meta_addr,
                      new_root.to_bytes(8, "little").ljust(
                          CACHE_LINE_BYTES, b"\x00"))

    # -- insert computation --------------------------------------------------
    def _compute_insert(self, key: int, cache: Dict[int, dict],
                        dirty: List[int], reader,
                        fresh: Optional[set] = None) -> Tuple[int, int]:
        heap = self.system.heap
        fresh = fresh if fresh is not None else set()

        def load(addr: int) -> dict:
            if addr not in cache:
                cache[addr] = reader(addr)
            return cache[addr]

        def touch(addr: int) -> dict:
            node = load(addr)
            if addr not in dirty:
                dirty.append(addr)
            return node

        def alloc_node(node: dict) -> int:
            addr = heap.alloc_line(NODE_BYTES, label="bt-node")
            cache[addr] = node
            dirty.append(addr)
            fresh.add(addr)
            return addr

        def split_child(parent_addr: int, index: int) -> None:
            parent = touch(parent_addr)
            child_addr = parent["children"][index]
            child = touch(child_addr)
            mid = MIN_DEGREE - 1
            right = {
                "keys": child["keys"][mid + 1:],
                "values": child["values"][mid + 1:],
                "children": child["children"][MIN_DEGREE:],
                "leaf": child["leaf"],
            }
            right_addr = alloc_node(right)
            parent["keys"].insert(index, child["keys"][mid])
            parent["values"].insert(index, child["values"][mid])
            parent["children"].insert(index + 1, right_addr)
            child["keys"] = child["keys"][:mid]
            child["values"] = child["values"][:mid]
            child["children"] = child["children"][:MIN_DEGREE] \
                if not child["leaf"] else []

        root = self._root()
        blob = heap.alloc_line(self.params.value_size, label="bt-blob")

        if len(load(root)["keys"]) == MAX_KEYS:
            new_root_addr = alloc_node({"keys": [], "values": [],
                                        "children": [root],
                                        "leaf": False})
            split_child(new_root_addr, 0)
            root = new_root_addr

        addr = root
        while True:
            node = load(addr)
            if key in node["keys"]:  # update existing
                touch(addr)["values"][node["keys"].index(key)] = blob
                return root, blob
            if node["leaf"]:
                index = sum(1 for k in node["keys"] if k < key)
                node = touch(addr)
                node["keys"].insert(index, key)
                node["values"].insert(index, blob)
                return root, blob
            index = sum(1 for k in node["keys"] if k < key)
            child_addr = node["children"][index]
            if len(load(child_addr)["keys"]) == MAX_KEYS:
                split_child(addr, index)
                node = load(addr)
                if key == node["keys"][index]:
                    touch(addr)["values"][index] = blob
                    return root, blob
                if key > node["keys"][index]:
                    index += 1
            addr = load(addr)["children"][index]

    # -- the simulated transaction ----------------------------------------------
    def transaction(self):
        key = self.pick_index(self.key_space)
        payload = self.make_value()
        yield from self.fire_hook("entry", {
            "payload": (None, payload, self.params.value_size)})

        cache: Dict[int, dict] = {}
        dirty: List[int] = []
        reads: List[int] = []
        fresh: set = set()

        def sim_reader(addr: int) -> dict:
            reads.append(addr)
            return self._vread(addr)

        new_root, blob_addr = self._compute_insert(key, cache, dirty,
                                                   reader=sim_reader,
                                                   fresh=fresh)
        for addr in reads:
            yield from self.core.read(addr, NODE_BYTES)

        yield from self.core.store(blob_addr, payload)
        yield from self.core.clwb(blob_addr, self.params.value_size)
        yield from self.core.sfence()

        # Final node images known before the backup phase: manual
        # per-node pre-execution fires here (loop-shaped, beyond the
        # static pass).  The common no-split case is a straight-line
        # single-leaf update, which the *automated* pass also covers
        # through the ``leaf_update`` hook in the taken branch.
        if len(dirty) == 1:
            yield from self.fire_hook("leaf_update", {
                "dirty_node": (dirty[0], _pack(cache[dirty[0]]),
                               NODE_BYTES)})
        for addr in dirty:
            yield from self.fire_hook("update_iter", {
                "dirty_node": (addr, _pack(cache[addr]), NODE_BYTES)})
        txn = self.log.begin()
        existing_root = self._root()
        root_will_change = new_root != existing_root
        planned = [NODE_BYTES] * sum(1 for a in dirty if a not in fresh)
        if root_will_change:
            planned.append(CACHE_LINE_BYTES)
        yield from self.fire_hook("pre_commit",
                                  self.commit_env(txn, planned))
        for addr in dirty:
            # Freshly allocated nodes were never persisted; only
            # pre-existing nodes need an undo record.
            if addr not in fresh:
                yield from txn.backup(addr, NODE_BYTES)
        if new_root != existing_root:
            yield from txn.backup(self.meta_addr, CACHE_LINE_BYTES)
        yield from txn.fence_backups()

        for addr in dirty:
            yield from txn.write(addr, _pack(cache[addr]))
        if new_root != existing_root:
            yield from txn.write(
                self.meta_addr,
                new_root.to_bytes(8, "little").ljust(CACHE_LINE_BYTES,
                                                     b"\x00"))
        yield from txn.fence_updates()
        yield from txn.commit()

    # -- validation / lookup -----------------------------------------------------
    def validate(self) -> int:
        """Check key ordering and node fill invariants; returns size."""
        def walk(addr: int, lo, hi, is_root: bool) -> int:
            node = self._vread(addr)
            keys = node["keys"]
            if not is_root and not node["leaf"] and \
                    len(keys) < MIN_DEGREE - 1:
                raise SimulationError("underfull internal node")
            if sorted(keys) != keys or len(set(keys)) != len(keys):
                raise SimulationError("unsorted/duplicate keys")
            for k in keys:
                if (lo is not None and k <= lo) or \
                        (hi is not None and k >= hi):
                    raise SimulationError("key range violated")
            if node["leaf"]:
                return len(keys)
            total = len(keys)
            bounds = [lo] + keys + [hi]
            for i, child in enumerate(node["children"]):
                total += walk(child, bounds[i], bounds[i + 1], False)
            return total

        size = walk(self._root(), None, None, True)
        # A recursive closure is a reference cycle through its own
        # cell; unlink it so this workload (and its system) are freed
        # by reference counting, not only by the cyclic collector.
        del walk
        return size

    def lookup(self, key: int) -> Optional[int]:
        addr = self._root()
        while True:
            node = self._vread(addr)
            if key in node["keys"]:
                return node["values"][node["keys"].index(key)]
            if node["leaf"]:
                return None
            index = sum(1 for k in node["keys"] if k < key)
            addr = node["children"][index]

    # -- logical state ---------------------------------------------------------
    def logical_state(self, read) -> dict:
        from repro.common.errors import RecoveryError

        limit = self.params.n_items + self.params.n_transactions + 16
        items = []
        seen = set()

        def walk(addr: int, depth: int) -> None:
            if addr == 0 or addr in seen or depth > 64:
                raise RecoveryError(
                    f"btree walk broken at {addr:#x} depth {depth}")
            if len(seen) > limit:
                raise RecoveryError("btree node count exceeds bound")
            seen.add(addr)
            node = _unpack(read(addr, NODE_BYTES))
            if len(node["keys"]) > MAX_KEYS:
                raise RecoveryError("btree node overfull")
            if node["leaf"]:
                for key, value_ptr in zip(node["keys"], node["values"]):
                    items.append(
                        [key, read(value_ptr, self.params.value_size)
                         if value_ptr else b""])
                return
            for i, child in enumerate(node["children"]):
                walk(child, depth + 1)
                if i < len(node["keys"]):
                    key, value_ptr = node["keys"][i], node["values"][i]
                    items.append(
                        [key, read(value_ptr, self.params.value_size)
                         if value_ptr else b""])

        root = int.from_bytes(read(self.meta_addr, 8), "little")
        walk(root, 0)
        del walk  # unlink the recursive closure's cycle (see validate)
        keys = [k for k, _v in items]
        if sorted(keys) != keys or len(set(keys)) != len(keys):
            raise RecoveryError("btree keys unsorted or duplicated")
        return {"items": items}

    # -- template / plans -----------------------------------------------------------
    @classmethod
    def template(cls) -> Template:
        from repro.compiler import Cond
        return Template(
            name=cls.name,
            args=("key", "payload"),
            body=[
                Hook("entry"),
                AddrGen("leaf", inputs=("key",), memory_dependent=True),
                Value("leaf_image"),
                Hook("after_descent"),
                # Common case: the leaf has room — a straight-line
                # single-node update the pass CAN instrument (inside
                # the branch, per its conservative-cond rule).
                Cond(
                    then=[
                        Hook("leaf_update"),
                        LogBackup("leaf", obj="dirty_node"),
                        Fence(),
                        Store("leaf", "leaf_image", obj="dirty_node"),
                        Writeback("leaf", obj="dirty_node"),
                    ],
                    otherwise=[
                        # Split path: runtime-sized dirty set in a
                        # loop — beyond the static pass (§4.5.2).
                        Loop(body=[
                            AddrGen("dirty", inputs=("leaf",),
                                    memory_dependent=True),
                            Value("image"),
                            LogBackup("dirty", obj="split_node"),
                            Fence(),
                            Store("dirty", "image", obj="split_node"),
                            Writeback("dirty", obj="split_node"),
                        ]),
                    ]),
                Fence(),
            ] + commit_template_tail())

    @classmethod
    def manual_plan(cls) -> InstrumentationPlan:
        plan = InstrumentationPlan(template=f"{cls.name}-manual")
        plan.add("update_iter", Directive("both", "dirty_node"))
        plan.add("pre_commit", Directive("both_val", "commit"))
        return plan
