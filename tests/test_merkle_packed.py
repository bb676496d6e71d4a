"""The packed-block Merkle tree against a dict-of-nodes reference,
and its hashing deferred to the tree's next read.

``ReferenceMerkleTree`` is the previous production tree, kept verbatim
(one dict of digests per level, paths hashed by gathering and joining
child digests, pre-executed paths installed with ``apply_path``), as
``LinearScanIrb`` and ``ReferenceExecutor`` are kept for theirs.  The
property tests drive it and :class:`repro.crypto.MerkleTree` with the
same random updates and compare every observable after each step.
"""

import hashlib
from typing import Dict, List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.crypto.merkle
from repro.bmo.pipeline import BmoPipeline
from repro.common.config import default_config
from repro.common.errors import IntegrityError
from repro.core import NvmSystem
from repro.crypto import MerkleTree
from repro.workloads import WorkloadParams, make_workload


_sha1 = hashlib.sha1


def _node_hash(children: bytes) -> bytes:
    """SHA-1 over concatenated child digests (paper uses SHA-1)."""
    return _sha1(children).digest()


class ReferenceMerkleTree:
    """Sparse hash tree with ``arity`` fan-out and ``height`` levels.

    Level 0 holds the leaves; level ``height`` is the root.  Leaf
    indices run in ``[0, arity ** height)``.
    """

    def __init__(self, arity: int = 8, height: int = 9):
        if arity < 2 or height < 1:
            raise IntegrityError("need arity >= 2 and height >= 1")
        self.arity = arity
        self.height = height
        self.leaf_capacity = arity ** height
        # nodes[level][index] -> digest; missing nodes are "empty".
        self._nodes: List[Dict[int, bytes]] = [
            {} for _ in range(height + 1)]
        self._empty = self._empty_digests()
        #: Monotone count of tree mutations.  Two reads of the tree
        #: with the same ``mutations`` value observe identical state,
        #: which lets pre-executed path snapshots prove themselves
        #: still fresh without re-reading any node.
        self.mutations = 0

    def _empty_digests(self) -> List[bytes]:
        """Digest of an all-empty subtree at each level."""
        empties = [hashlib.sha1(b"janus-empty-leaf").digest()]
        for _ in range(self.height):
            empties.append(_node_hash(empties[-1] * self.arity))
        return empties

    # -- queries ---------------------------------------------------------
    @property
    def root(self) -> bytes:
        """Current root digest (the secure-register value)."""
        return self._nodes[self.height].get(0, self._empty[self.height])

    def node(self, level: int, index: int) -> bytes:
        """Digest of the node at ``(level, index)``."""
        if not 0 <= level <= self.height:
            raise IntegrityError(f"level {level} out of range")
        return self._nodes[level].get(index, self._empty[level])

    def leaf(self, index: int) -> bytes:
        return self.node(0, index)

    # -- updates ---------------------------------------------------------
    def _check_leaf_index(self, index: int) -> None:
        if not 0 <= index < self.leaf_capacity:
            raise IntegrityError(
                f"leaf index {index} outside [0, {self.leaf_capacity})")

    def path_digests(self, index: int,
                     leaf_value: bytes) -> List[Tuple[int, int, bytes]]:
        """Compute, without mutating the tree, every digest on the path
        from leaf ``index`` (set to ``Hash(leaf_value)``) to the root.

        Returns ``[(level, node_index, digest), ...]`` bottom-up.  This
        is the functional core of the integrity sub-operations I1–I3:
        Janus pre-executes it into the IRB and applies it later, so it
        must not touch tree state (requirement 1 of §3.2).
        """
        self._check_leaf_index(index)
        arity = self.arity
        nodes = self._nodes
        empty = self._empty
        path: List[Tuple[int, int, bytes]] = []
        digest = _sha1(leaf_value).digest()
        path.append((0, index, digest))
        node_index = index
        for level in range(1, self.height + 1):
            parent_index = node_index // arity
            first_child = parent_index * arity
            level_nodes = nodes[level - 1]
            level_empty = empty[level - 1]
            parts = [
                digest if child == node_index
                else level_nodes.get(child, level_empty)
                for child in range(first_child, first_child + arity)
            ]
            digest = _sha1(b"".join(parts)).digest()
            path.append((level, parent_index, digest))
            node_index = parent_index
        return path

    def path_with_siblings(
            self, index: int, leaf_value: bytes
    ) -> Tuple[List[Tuple[int, int, bytes]], Dict[Tuple[int, int], bytes]]:
        """Like :meth:`path_digests`, but also return the sibling
        digests that were read while hashing.

        The sibling map is what a pre-execution stores so that, when
        the actual write arrives, staleness can be judged per level:
        the deepest level whose recorded sibling no longer matches the
        live tree is the level from which hashing must be redone
        (Janus charges only that partial re-hash).
        """
        self._check_leaf_index(index)
        arity = self.arity
        nodes = self._nodes
        empty = self._empty
        path: List[Tuple[int, int, bytes]] = []
        siblings: Dict[Tuple[int, int], bytes] = {}
        digest = _sha1(leaf_value).digest()
        path.append((0, index, digest))
        node_index = index
        for level in range(1, self.height + 1):
            parent_index = node_index // arity
            first_child = parent_index * arity
            child_level = level - 1
            level_nodes = nodes[child_level]
            level_empty = empty[child_level]
            parts = []
            for child in range(first_child, first_child + arity):
                if child == node_index:
                    parts.append(digest)
                else:
                    sib = level_nodes.get(child, level_empty)
                    siblings[(child_level, child)] = sib
                    parts.append(sib)
            digest = _sha1(b"".join(parts)).digest()
            path.append((level, parent_index, digest))
            node_index = parent_index
        return path, siblings

    def stale_depth(self,
                    siblings: Dict[Tuple[int, int], bytes]) -> int:
        """Lowest tree level at which a recorded sibling changed.

        Returns ``height + 1`` if nothing changed (the pre-executed
        hashes are fully reusable); returns ``L`` if hashing must be
        redone from the node at level ``L`` upwards.
        """
        stale = self.height + 1
        nodes = self._nodes
        empty = self._empty
        for (level, child), digest in siblings.items():
            if nodes[level].get(child, empty[level]) != digest:
                stale = min(stale, level + 1)
        return stale

    def apply_path(self, path: List[Tuple[int, int, bytes]]) -> bytes:
        """Install precomputed path digests; returns the new root."""
        self.mutations += 1
        nodes = self._nodes
        for level, node_index, digest in path:
            nodes[level][node_index] = digest
        return self.root

    def update_leaf(self, index: int, leaf_value: bytes) -> bytes:
        """Convenience: compute and apply the path for one leaf."""
        return self.apply_path(self.path_digests(index, leaf_value))

    def verify_leaf(self, index: int, leaf_value: bytes) -> bool:
        """Check that ``leaf_value`` at ``index`` matches the root.

        Recomputes the path using the *stored* siblings; the leaf is
        authentic iff the recomputed root equals the stored root.
        """
        self._check_leaf_index(index)
        arity = self.arity
        nodes = self._nodes
        empty = self._empty
        digest = _sha1(leaf_value).digest()
        node_index = index
        for level in range(1, self.height + 1):
            parent_index = node_index // arity
            first_child = parent_index * arity
            level_nodes = nodes[level - 1]
            level_empty = empty[level - 1]
            parts = [
                digest if child == node_index
                else level_nodes.get(child, level_empty)
                for child in range(first_child, first_child + arity)
            ]
            digest = _sha1(b"".join(parts)).digest()
            node_index = parent_index
        return digest == self.root

    # -- persistence hooks -------------------------------------------------
    def snapshot(self) -> dict:
        """Deep copy of tree state (crash/recovery tests)."""
        return {
            "nodes": [dict(level) for level in self._nodes],
        }

    def restore(self, snap: dict) -> None:
        self._nodes = [dict(level) for level in snap["nodes"]]
        self.mutations += 1


# -- the packed tree against the reference ------------------------------------
#: (arity, height): a binary tree and an arity-8 one, both small enough
#: that random updates share blocks at every level.
SHAPES = ((2, 4), (8, 3))

VALUES = st.binary(min_size=1, max_size=8)

OPS = st.one_of(
    st.tuples(st.just("write"), st.integers(0, 15), VALUES),
    st.tuples(st.just("write"), st.integers(0, 511), VALUES),
    st.tuples(st.just("batch"), st.integers(0, 511),
              st.lists(VALUES, min_size=4, max_size=4)),
    # A sibling record and a restore, each taken while a write is
    # still pending.
    st.tuples(st.just("record"), st.integers(0, 511), VALUES),
    st.tuples(st.just("snapshot")),
    st.tuples(st.just("restore"), st.integers(0, 511), VALUES),
)


def _batch(tree, index):
    """Leaves one batch writes before the next read: ``index`` twice,
    its sibling under the same parent, and a far leaf that shares only
    the root block with it."""
    capacity = tree.leaf_capacity
    return (index, index ^ 1, (index + capacity // 2) % capacity, index)


def _beside(tree, index):
    """``(level, node)`` on the path from ``index`` and every node that
    shares a child block with it, plus the first node of the next
    block."""
    arity = tree.arity
    for level in range(tree.height + 1):
        node = index // arity ** level
        first = node - node % arity
        for other in range(first, first + arity + 1):
            yield level, other


def _assert_agree(ref, tree, touched, values, records):
    assert tree.root == ref.root
    for index in touched:
        for level, node in _beside(tree, index):
            assert tree.node(level, node) == ref.node(level, node), \
                (level, node)
    for index in touched:
        probes = [b"forged"]
        if index in values:
            probes += [values[index], values[index] + b"!"]
            assert tree.verify_leaf(index, values[index])
        for value in probes:
            assert tree.verify_leaf(index, value) \
                == ref.verify_leaf(index, value), (index, value)
    for ref_siblings, record in records:
        assert tree.stale_depth(record) == ref.stale_depth(ref_siblings)


@pytest.mark.parametrize("arity,height", SHAPES)
@settings(max_examples=60, deadline=None)
@given(ops=st.lists(OPS, min_size=1, max_size=24))
def test_packed_tree_matches_reference(arity, height, ops):
    ref = ReferenceMerkleTree(arity=arity, height=height)
    tree = MerkleTree(arity=arity, height=height)
    capacity = tree.leaf_capacity
    touched, values, records = set(), {}, []
    saved = None
    for op in ops:
        kind = op[0]
        if kind in ("write", "restore"):
            writes = [(op[1] % capacity, op[2])]
        elif kind == "record":
            writes = [((op[1] % capacity) ^ 1, op[2])]
        elif kind == "batch":
            writes = list(zip(_batch(tree, op[1] % capacity), op[2]))
        else:
            writes = []
        for index, value in writes:
            tree.update_leaf(index, value)
            ref.update_leaf(index, value)
            touched.add(index)
            values[index] = value
        if kind == "record":
            index = op[1] % capacity
            _path, ref_siblings = ref.path_with_siblings(index, b"x")
            records.append((ref_siblings, tree.sibling_blocks(index)))
            touched.add(index)
        elif kind == "snapshot":
            saved = (ref.snapshot(), tree.snapshot(), dict(values))
        elif kind == "restore" and saved is not None:
            ref.restore(saved[0])
            tree.restore(saved[1])
            values = dict(saved[2])
        _assert_agree(ref, tree, touched, values, records)


def test_sibling_record_ignores_the_paths_own_slot():
    tree = MerkleTree(arity=8, height=3)
    record = tree.sibling_blocks(0)
    tree.update_leaf(0, b"own write")
    assert tree.stale_depth(record) == tree.height + 1
    tree.update_leaf(8 ** 2, b"far: shares only the root block")
    assert tree.stale_depth(record) == 3
    tree.update_leaf(1, b"sibling leaf")
    assert tree.stale_depth(record) == 1


def test_paper_tree_matches_reference():
    ref = ReferenceMerkleTree(arity=8, height=9)
    tree = MerkleTree(arity=8, height=9)
    for index in (0, 1, 7, 8, 123_456_789, 8 ** 9 - 1, 8 ** 5):
        value = index.to_bytes(8, "little")
        tree.update_leaf(index, value)
        ref.update_leaf(index, value)
        assert tree.root == ref.root
        assert tree.verify_leaf(index, value)
    assert tree.node(0, 1) == ref.node(0, 1)
    assert tree.node(4, 1) == ref.node(4, 1)
    assert tree.node(9, 1) == ref.node(9, 1)


def test_out_of_range_queries_rejected():
    tree = MerkleTree(arity=2, height=3)
    with pytest.raises(IntegrityError):
        tree.sibling_blocks(8)
    with pytest.raises(IntegrityError):
        tree.verify_leaf(-1, b"x")
    with pytest.raises(IntegrityError):
        tree.node(4, 0)


@pytest.mark.parametrize("arity,height", SHAPES)
@settings(max_examples=40, deadline=None)
@given(batches=st.lists(
    st.lists(st.tuples(st.integers(0, 511), VALUES),
             min_size=1, max_size=8),
    min_size=1, max_size=4))
def test_batched_writes_store_what_per_write_reads_store(arity, height,
                                                         batches):
    """Writes flushed together leave the same blocks, in the same key
    order per level, and the same root as writes each read at once."""
    batched = MerkleTree(arity=arity, height=height)
    eager = MerkleTree(arity=arity, height=height)
    capacity = batched.leaf_capacity
    for batch in batches:
        for index, value in batch:
            for leaf in _batch(batched, index % capacity):
                batched.update_leaf(leaf, value)
                eager.update_leaf(leaf, value)
                eager.root  # a read: hashes this write in at once
        snap, twin = batched.snapshot(), eager.snapshot()
        assert snap == twin
        assert [list(level) for level in snap["blocks"]] \
            == [list(level) for level in twin["blocks"]]


# -- hashing waits for the tree's next read -----------------------------------
def _count_phase_hashes(monkeypatch, mode: str, variant: str):
    system = NvmSystem(default_config(mode=mode))
    workloads = [
        make_workload("tpcc", system, core,
                      WorkloadParams(n_transactions=6, n_items=16),
                      variant=variant)
        for core in system.cores]
    counts = {"sha1": 0, "commits": 0}
    sha1 = repro.crypto.merkle._sha1
    commit = BmoPipeline.commit

    def counting_sha1(data):
        counts["sha1"] += 1
        return sha1(data)

    def counting_commit(pipeline, ctx):
        counts["commits"] += 1
        return commit(pipeline, ctx)

    monkeypatch.setattr(repro.crypto.merkle, "_sha1", counting_sha1)
    monkeypatch.setattr(BmoPipeline, "commit", counting_commit)
    system.run_programs([w.run() for w in workloads])
    run = dict(counts)
    system.crash()
    return system, run, counts["sha1"] - run["sha1"]


@pytest.mark.parametrize("mode,variant", (("janus", "manual"),
                                          ("serialized", "baseline")))
def test_commits_hash_nothing_until_the_crash_reads_the_tree(
        monkeypatch, mode, variant):
    """Committed writes hash nothing, however much of the integrity
    BMO was pre-executed.  The crash snapshot's read then hashes each
    committed leaf and each of its distinct ancestors once."""
    system, run, at_crash = _count_phase_hashes(monkeypatch, mode,
                                                variant)
    integrity = system.pipeline.by_name["integrity"]
    arity, height = integrity.tree.arity, integrity.tree.height
    assert run["commits"] > 0
    assert run["sha1"] == 0
    leaves = set(integrity.committed_leaves)
    ancestors = sum(len({index // arity ** level for index in leaves})
                    for level in range(1, height + 1))
    assert at_crash == len(leaves) + ancestors
    if mode == "janus":
        stats = system.metrics.as_flat_dict()
        assert stats["janus.fully_pre_executed"] > 0


@pytest.mark.parametrize("arity,height", ((2, 4), (3, 3), (8, 2)))
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_verify_leaves_matches_verify_leaf_under_tampering(arity, height,
                                                           data):
    """The scrub's one-pass check gives :meth:`verify_leaf`'s verdict
    for every leaf, in order, whatever was tampered: stored blocks
    (siblings or a path's own slot), the root, or the leaf values."""
    tree = MerkleTree(arity=arity, height=height)
    capacity = tree.leaf_capacity
    indices = st.integers(0, capacity - 1)
    values = data.draw(st.dictionaries(indices, st.binary(max_size=4),
                                       min_size=1, max_size=12))
    for index, value in values.items():
        tree.update_leaf(index, value)
    tree.root  # hash the writes in
    stored = [(level, parent) for level, (blocks, _empty)
              in enumerate(tree._levels) for parent in blocks]
    for _ in range(data.draw(st.integers(0, 3))):
        level, parent = data.draw(st.sampled_from(stored))
        blocks = tree._levels[level][0]
        block = bytearray(blocks[parent])
        block[data.draw(st.integers(0, len(block) - 1))] ^= \
            data.draw(st.integers(1, 255))
        blocks[parent] = bytes(block)
    if data.draw(st.booleans()):
        tree._root = _sha1(tree._root).digest()
    leaves = sorted(values.items())
    for _ in range(data.draw(st.integers(0, 3))):
        position = data.draw(st.integers(0, len(leaves) - 1))
        index, value = leaves[position]
        leaves[position] = (index, value + b"!")
    extra = data.draw(st.lists(st.tuples(indices, st.binary(max_size=4)),
                               max_size=3))
    leaves.extend(extra)
    expected = [index for index, value in leaves
                if not tree.verify_leaf(index, value)]
    assert tree.verify_leaves(leaves) == expected
