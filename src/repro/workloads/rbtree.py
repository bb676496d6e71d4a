"""Red-black tree: insert/update random keys.

A real CLRS red-black tree over NVM-resident 64-byte nodes.  The
transaction computes the structural mutation (descent + recolouring +
rotations) first, then persists it undo-log style: back up every node
it will touch, apply the new node images, commit.

Two properties matter for Janus:

* the set of written nodes is discovered *during* the computation, so
  the update writebacks execute in a loop over a runtime-sized dirty
  set — the automated pass gives up on them (§4.5.2), which is why
  RB-Tree profits little from automated instrumentation in Fig. 11;
* the lookup-then-update shape leaves a short pre-execution window
  even for the manual plan (§5.2.1 trend 2).
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

_NODE = struct.Struct("<QQQQQB")  # key, value_ptr, left, right, parent, color
RED, BLACK = 0, 1
NIL = 0


def _pack(node: dict) -> bytes:
    return _NODE.pack(node["key"], node["value_ptr"], node["left"],
                      node["right"], node["parent"],
                      node["color"]).ljust(CACHE_LINE_BYTES, b"\x00")


def _unpack(raw: bytes) -> dict:
    key, value_ptr, left, right, parent, color = _NODE.unpack_from(raw)
    return {"key": key, "value_ptr": value_ptr, "left": left,
            "right": right, "parent": parent, "color": color}


class RBTreeWorkload(TransactionalWorkload):
    """Persistent red-black tree (Table 4, "RB-Tree")."""

    name = "rbtree"
    scalable = True

    def setup(self) -> None:
        heap = self.system.heap
        self.meta_addr = heap.alloc_line(CACHE_LINE_BYTES,
                                         label="rbt-meta")
        self.seed(self.meta_addr, bytes(CACHE_LINE_BYTES))
        self.key_space = max(2 * self.params.n_items, 16)
        for _ in range(self.params.n_items):
            self._seed_insert(self.pick_index(self.key_space))

    # -- functional (non-simulated) operations used for seeding/tests -----
    def _vread(self, addr: int) -> dict:
        return _unpack(self.system.volatile.read(addr, CACHE_LINE_BYTES))

    def _root(self) -> int:
        return int.from_bytes(
            self.system.volatile.read(self.meta_addr, 8), "little")

    def _seed_insert(self, key: int) -> None:
        cache: Dict[int, dict] = {}
        dirty: List[int] = []
        new_root, node_addr, blob = self._compute_insert(
            key, cache, dirty, reader=self._vread)
        for addr in dirty:
            self.seed(addr, _pack(cache[addr]))
        self.seed(self.meta_addr, new_root.to_bytes(8, "little").ljust(
            CACHE_LINE_BYTES, b"\x00"))

    # -- the mutation computation (shared by seeded and simulated paths) ----
    def _compute_insert(self, key: int, cache: Dict[int, dict],
                        dirty: List[int], reader,
                        fresh: Optional[set] = None
                        ) -> Tuple[int, int, int]:
        """Compute an insert/update.  ``reader(addr)`` loads a node;
        mutations land in ``cache`` and are recorded in ``dirty`` in
        first-touch order; newly-allocated node addresses are added to
        ``fresh`` (they need no undo record).  Returns
        (new_root, node_addr, blob_addr).
        """
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

        root = self._pending_root

        # Standard BST descent.
        parent, current = NIL, root
        while current != NIL:
            node = load(current)
            if key == node["key"]:
                # Update-in-place: fresh blob pointer.
                blob = heap.alloc_line(self.params.value_size,
                                       label="rbt-blob")
                touch(current)["value_ptr"] = blob
                return root, current, blob
            parent = current
            current = node["left"] if key < node["key"] else node["right"]

        blob = heap.alloc_line(self.params.value_size, label="rbt-blob")
        node_addr = heap.alloc_line(CACHE_LINE_BYTES, label="rbt-node")
        cache[node_addr] = {"key": key, "value_ptr": blob, "left": NIL,
                            "right": NIL, "parent": parent, "color": RED}
        dirty.append(node_addr)
        fresh.add(node_addr)
        if parent == NIL:
            root = node_addr
        elif key < load(parent)["key"]:
            touch(parent)["left"] = node_addr
        else:
            touch(parent)["right"] = node_addr

        # CLRS fixup.
        def rotate(x_addr: int, left: bool) -> None:
            nonlocal root
            x = touch(x_addr)
            y_addr = x["right"] if left else x["left"]
            y = touch(y_addr)
            child = y["left"] if left else y["right"]
            if left:
                x["right"] = child
            else:
                x["left"] = child
            if child != NIL:
                touch(child)["parent"] = x_addr
            y["parent"] = x["parent"]
            if x["parent"] == NIL:
                root = y_addr
            else:
                p = touch(x["parent"])
                if p["left"] == x_addr:
                    p["left"] = y_addr
                else:
                    p["right"] = y_addr
            if left:
                y["left"] = x_addr
            else:
                y["right"] = x_addr
            x["parent"] = y_addr

        z = node_addr
        while z != root and load(load(z)["parent"])["color"] == RED:
            z_parent = load(z)["parent"]
            grand = load(z_parent)["parent"]
            if grand == NIL:
                break
            parent_is_left = load(grand)["left"] == z_parent
            uncle = load(grand)["right"] if parent_is_left \
                else load(grand)["left"]
            if uncle != NIL and load(uncle)["color"] == RED:
                touch(z_parent)["color"] = BLACK
                touch(uncle)["color"] = BLACK
                touch(grand)["color"] = RED
                z = grand
            else:
                if parent_is_left and load(z_parent)["right"] == z:
                    z = z_parent
                    rotate(z, left=True)
                elif not parent_is_left and load(z_parent)["left"] == z:
                    z = z_parent
                    rotate(z, left=False)
                z_parent = load(z)["parent"]
                grand = load(z_parent)["parent"]
                touch(z_parent)["color"] = BLACK
                if grand != NIL:
                    touch(grand)["color"] = RED
                    rotate(grand, left=not parent_is_left)
        root_node = touch(root)
        root_node["color"] = BLACK
        return root, node_addr, blob

    @property
    def _pending_root(self) -> int:
        return self._root()

    # -- the simulated transaction ----------------------------------------
    def transaction(self):
        key = self.pick_index(self.key_space)
        payload = self.make_value()
        yield from self.fire_hook("entry", {
            "payload": (None, payload, self.params.value_size)})

        cache: Dict[int, dict] = {}
        dirty: List[int] = []
        reads: List[int] = []
        fresh: set = set()

        # The descent/fixup computation drives simulated reads.
        def sim_reader(addr: int) -> dict:
            reads.append(addr)
            return _unpack(self.system.volatile.read(addr,
                                                     CACHE_LINE_BYTES))

        new_root, node_addr, blob_addr = self._compute_insert(
            key, cache, dirty, reader=sim_reader, fresh=fresh)
        # Charge the traversal reads in simulation time.
        for addr in reads:
            yield from self.core.read(addr, CACHE_LINE_BYTES)

        # Fresh blob: persist before linking (no undo needed).
        yield from self.core.store(blob_addr, payload)
        yield from self.core.clwb(blob_addr, self.params.value_size)
        yield from self.core.sfence()

        root_changed = new_root != self._root()
        # The final image of every dirty node is known now, before the
        # backup phase: the manual plan pre-executes each one here
        # (one hook firing per node — loop-shaped, invisible to the
        # static pass).
        for addr in dirty:
            yield from self.fire_hook("update_iter", {
                "dirty_node": (addr, _pack(cache[addr]),
                               CACHE_LINE_BYTES)})
        txn = self.log.begin()
        planned = [CACHE_LINE_BYTES] * (
            sum(1 for a in dirty if a not in fresh)
            + (1 if root_changed else 0))
        yield from self.fire_hook("pre_commit",
                                  self.commit_env(txn, planned))
        # Back up every pre-existing node we will modify.
        for addr in dirty:
            if addr not in fresh:
                yield from txn.backup(addr, CACHE_LINE_BYTES)
        if root_changed:
            yield from txn.backup(self.meta_addr, CACHE_LINE_BYTES)
        yield from txn.fence_backups()

        for addr in dirty:
            yield from txn.write(addr, _pack(cache[addr]))
        if root_changed:
            yield from txn.write(
                self.meta_addr,
                new_root.to_bytes(8, "little").ljust(CACHE_LINE_BYTES,
                                                     b"\x00"))
        yield from txn.fence_updates()
        yield from txn.commit()

    # -- validation (tests) ----------------------------------------------------
    def validate(self) -> int:
        """Check BST order + red-black invariants; returns key count."""
        root = self._root()
        if root == NIL:
            return 0
        if self._vread(root)["color"] != BLACK:
            raise SimulationError("root must be black")

        def walk(addr: int, lo, hi) -> Tuple[int, int]:
            if addr == NIL:
                return 1, 0  # black-height, size
            node = self._vread(addr)
            if not ((lo is None or node["key"] > lo)
                    and (hi is None or node["key"] < hi)):
                raise SimulationError("BST order violated")
            if node["color"] == RED:
                for child in (node["left"], node["right"]):
                    if child != NIL and \
                            self._vread(child)["color"] == RED:
                        raise SimulationError("red-red violation")
            left_bh, left_n = walk(node["left"], lo, node["key"])
            right_bh, right_n = walk(node["right"], node["key"], hi)
            if left_bh != right_bh:
                raise SimulationError("black-height mismatch")
            bh = left_bh + (1 if node["color"] == BLACK else 0)
            return bh, left_n + right_n + 1

        _bh, size = walk(root, None, None)
        # A recursive closure is a reference cycle through its own
        # cell; unlink it so this workload (and its system) are freed
        # by reference counting, not only by the cyclic collector.
        del walk
        return size

    def lookup(self, key: int) -> Optional[int]:
        """Non-simulated lookup: blob pointer for a key."""
        addr = self._root()
        while addr != NIL:
            node = self._vread(addr)
            if key == node["key"]:
                return node["value_ptr"]
            addr = node["left"] if key < node["key"] else node["right"]
        return None

    # -- logical state ---------------------------------------------------------
    def logical_state(self, read) -> dict:
        from repro.common.errors import RecoveryError

        limit = self.params.n_items + self.params.n_transactions + 16
        items = []
        seen = set()

        def walk(addr: int, depth: int) -> None:
            if addr == NIL:
                return
            if addr in seen or depth > 4 * limit:
                raise RecoveryError(
                    f"rbtree walk broken at {addr:#x}")
            if len(seen) > limit:
                raise RecoveryError("rbtree node count exceeds bound")
            seen.add(addr)
            node = _unpack(read(addr, CACHE_LINE_BYTES))
            walk(node["left"], depth + 1)
            items.append(
                [node["key"],
                 read(node["value_ptr"], self.params.value_size)
                 if node["value_ptr"] else b""])
            walk(node["right"], depth + 1)

        root = int.from_bytes(read(self.meta_addr, 8), "little")
        walk(root, 0)
        del walk  # unlink the recursive closure's cycle (see validate)
        keys = [k for k, _v in items]
        if sorted(keys) != keys or len(set(keys)) != len(keys):
            raise RecoveryError("rbtree keys unsorted or duplicated")
        return {"items": items}

    # -- template / plans ---------------------------------------------------------
    @classmethod
    def template(cls) -> Template:
        return Template(
            name=cls.name,
            args=("key", "payload"),
            body=[
                Hook("entry"),
                AddrGen("insert_point", inputs=("key",),
                        memory_dependent=True),
                Hook("after_descent"),
                Loop(body=[  # fixup: runtime-sized dirty set
                    AddrGen("dirty", inputs=("insert_point",),
                            memory_dependent=True),
                    Value("image"),
                    LogBackup("dirty", obj="dirty_node"),
                    Fence(),
                    Store("dirty", "image", obj="dirty_node"),
                    Writeback("dirty", obj="dirty_node"),
                    Fence(),
                ]),
            ] + commit_template_tail())

    @classmethod
    def manual_plan(cls) -> InstrumentationPlan:
        plan = InstrumentationPlan(template=f"{cls.name}-manual")
        plan.add("update_iter", Directive("both", "dirty_node"))
        plan.add("pre_commit", Directive("both_val", "commit"))
        return plan
