"""Sparse Bonsai Merkle tree for integrity verification, stored as
packed child blocks.

The Bonsai Merkle tree (Rogers et al., MICRO'07) protects the
encryption counters (and, in the DeWrite-style integration the paper
uses, the co-located dedup address mappings): leaves are metadata
entries, intermediate nodes are hashes of their children, and the root
lives in a secure non-volatile register.

A 4 GB NVM with arity 8 needs a height-9 tree — far too many nodes to
materialise, so the tree is *sparse*: subtrees whose leaves were never
written hash to a precomputed "empty" digest per level.  The paper
charges each write ``height`` hashes for its path, 9 x 40 ns = 360 ns;
the integrity BMO models that as timing only.

Hashing is deferred to the next read.  :meth:`MerkleTree.update_leaf`
records the leaf as pending; every reader (:attr:`~MerkleTree.root`,
:meth:`~MerkleTree.node`, :meth:`~MerkleTree.verify_leaf`,
:meth:`~MerkleTree.verify_leaves`,
:meth:`~MerkleTree.sibling_blocks`, :meth:`~MerkleTree.stale_depth`,
:meth:`~MerkleTree.snapshot`) first hashes each pending leaf and each
dirty internal node once, bottom up.  Writes between two reads that
share upper nodes share those nodes' hashes — the sharing Freij et
al. coalesce for integrity-tree updates in hardware — and the stored
blocks, each level's key order and the root equal those of a tree
that hashed every path at once.  A run that never reads the tree
hashes nothing.

Layout: every internal node is stored as its *child block* — its
``arity`` child digests concatenated, which are exactly the bytes
SHA-1 hashes to produce the node's own digest.  The digest of node
``(L, i)`` is slot ``i % arity`` of the block of its parent
``(L + 1, i // arity)``; the root digest sits in its own register.
Hashing a node therefore costs one splice per dirty child (its new
digest into the block) and one SHA-1 call, with no per-child lookups
or joins.  A block that was never written is absent and reads as the
level's empty block.
"""

import hashlib
from typing import Dict, Iterable, List, Tuple

from repro.common.errors import IntegrityError


_sha1 = hashlib.sha1

#: Bytes per node digest (SHA-1).
DIGEST_BYTES = 20

#: One level of a sibling record: ``(parent index, byte offset of the
#: path's own slot, the parent's child block)``.
SiblingBlock = Tuple[int, int, bytes]


class MerkleTree:
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
        self._empty = self._empty_digests()
        self._install([{} for _ in range(height)], self._empty[height])

    def _empty_digests(self) -> List[bytes]:
        """Digest of an all-empty subtree at each level."""
        empties = [_sha1(b"janus-empty-leaf").digest()]
        for _ in range(self.height):
            empties.append(_sha1(empties[-1] * self.arity).digest())
        return empties

    def _install(self, blocks: List[Dict[int, bytes]],
                 root: bytes) -> None:
        self._root = root
        #: Per level ``L`` in 1..height, bottom-up (entry ``L - 1``):
        #: ``({index: child block of node (L, index)}, the child block
        #: of a never-written node)``.  A path walk iterates over it.
        self._levels: Tuple[Tuple[Dict[int, bytes], bytes], ...] = \
            tuple((level_blocks, self._empty[child_level] * self.arity)
                  for child_level, level_blocks in enumerate(blocks))
        #: Leaf index -> value written since the last read, in order
        #: of first write; :meth:`_flush` hashes them in.
        self._pending: Dict[int, bytes] = {}

    def _flush(self) -> None:
        """Hash the pending leaves into the tree: each pending leaf
        and each dirty internal node once, bottom up.

        Each level's new digests are spliced into their parents'
        blocks in first-touch order, so a parent the tree has not
        stored yet is added to its level's dict where hashing every
        path at once would have added it.
        """
        pending = self._pending
        if not pending:
            return
        self._pending = {}
        arity = self.arity
        dirty = {index: _sha1(value).digest()
                 for index, value in pending.items()}
        for level_blocks, empty_block in self._levels:
            spliced: Dict[int, bytes] = {}
            for node, digest in dirty.items():
                parent, slot = divmod(node, arity)
                offset = slot * DIGEST_BYTES
                block = spliced.get(parent)
                if block is None:
                    block = level_blocks.get(parent, empty_block)
                spliced[parent] = (block[:offset] + digest
                                   + block[offset + DIGEST_BYTES:])
            level_blocks.update(spliced)
            dirty = {parent: _sha1(block).digest()
                     for parent, block in spliced.items()}
        self._root = dirty[0]

    # -- queries ---------------------------------------------------------
    @property
    def root(self) -> bytes:
        """Current root digest (the secure-register value)."""
        self._flush()
        return self._root

    def node(self, level: int, index: int) -> bytes:
        """Digest of the node at ``(level, index)``."""
        if not 0 <= level <= self.height:
            raise IntegrityError(f"level {level} out of range")
        self._flush()
        if level == self.height:
            return self._root if index == 0 else self._empty[level]
        parent, slot = divmod(index, self.arity)
        block = self._levels[level][0].get(parent)
        if block is None:
            return self._empty[level]
        offset = slot * DIGEST_BYTES
        return block[offset:offset + DIGEST_BYTES]

    def leaf(self, index: int) -> bytes:
        return self.node(0, index)

    # -- updates ---------------------------------------------------------
    def _check_leaf_index(self, index: int) -> None:
        if not 0 <= index < self.leaf_capacity:
            raise IntegrityError(
                f"leaf index {index} outside [0, {self.leaf_capacity})")

    def update_leaf(self, index: int, leaf_value: bytes) -> None:
        """Set leaf ``index`` to ``Hash(leaf_value)``; the next read of
        the tree hashes it and its path in."""
        self._check_leaf_index(index)
        self._pending[index] = leaf_value

    def verify_leaf(self, index: int, leaf_value: bytes) -> bool:
        """Check that ``leaf_value`` at ``index`` matches the root.

        Recomputes the path using the *stored* siblings; the leaf is
        authentic iff the recomputed root equals the stored root.
        """
        self._check_leaf_index(index)
        self._flush()
        arity = self.arity
        digest = _sha1(leaf_value).digest()
        node = index
        for level_blocks, empty_block in self._levels:
            parent, slot = divmod(node, arity)
            offset = slot * DIGEST_BYTES
            block = level_blocks.get(parent, empty_block)
            digest = _sha1(block[:offset] + digest
                           + block[offset + DIGEST_BYTES:]).digest()
            node = parent
        return digest == self._root

    def verify_leaves(self, leaves: Iterable[Tuple[int, bytes]]
                      ) -> List[int]:
        """The indices, in the given order, of the ``(index, value)``
        pairs :meth:`verify_leaf` rejects.

        Same verdicts as one :meth:`verify_leaf` per leaf, for fewer
        hashes.  Wherever a path's recomputed digest equals the slot
        the stored block holds for it, the recomputed block *is* the
        stored block, so its digest is the stored block's, hashed once
        per block for the whole pass.  Only where they differ (a
        tampered value, slot or sibling) is the block spliced and
        hashed as :meth:`verify_leaf` does.
        """
        self._flush()
        arity = self.arity
        levels = self._levels
        stored: Dict[Tuple[int, int], bytes] = {}
        failed = []
        for index, leaf_value in leaves:
            self._check_leaf_index(index)
            digest = _sha1(leaf_value).digest()
            node = index
            for level, (level_blocks, empty_block) in enumerate(levels):
                parent, slot = divmod(node, arity)
                offset = slot * DIGEST_BYTES
                block = level_blocks.get(parent, empty_block)
                if block[offset:offset + DIGEST_BYTES] == digest:
                    key = (level, parent)
                    digest = stored.get(key)
                    if digest is None:
                        digest = stored[key] = _sha1(block).digest()
                else:
                    digest = _sha1(block[:offset] + digest
                                   + block[offset + DIGEST_BYTES:]
                                   ).digest()
                node = parent
            if digest != self._root:
                failed.append(index)
        return failed

    # -- staleness of a recorded path --------------------------------------
    def sibling_blocks(self, index: int) -> Tuple[SiblingBlock, ...]:
        """Record the child blocks the path from leaf ``index`` reads
        its siblings from, one per level bottom-up.

        A read: it hashes only the writes still pending.  A
        pre-execution keeps the record so that, when the actual write
        arrives, :meth:`stale_depth` can judge staleness per level.
        """
        self._check_leaf_index(index)
        self._flush()
        arity = self.arity
        record = []
        node = index
        for level_blocks, empty_block in self._levels:
            parent, slot = divmod(node, arity)
            record.append((parent, slot * DIGEST_BYTES,
                           level_blocks.get(parent, empty_block)))
            node = parent
        return tuple(record)

    def stale_depth(self, record: Tuple[SiblingBlock, ...]) -> int:
        """Lowest tree level at which a recorded sibling changed.

        Returns ``height + 1`` if nothing changed (the pre-executed
        hashes are fully reusable); returns ``L`` if hashing must be
        redone from the node at level ``L`` upwards.  The path's own
        slot in each block is not a sibling and is ignored.
        """
        self._flush()
        level = 0
        for (level_blocks, empty_block), (parent, offset, recorded) \
                in zip(self._levels, record):
            level += 1
            live = level_blocks.get(parent, empty_block)
            if live is recorded:
                continue
            end = offset + DIGEST_BYTES
            if live[:offset] != recorded[:offset] \
                    or live[end:] != recorded[end:]:
                return level
        return self.height + 1

    # -- persistence hooks -------------------------------------------------
    def snapshot(self) -> dict:
        """Copy of tree state (crash/recovery tests)."""
        self._flush()
        return {"blocks": [dict(level_blocks)
                           for level_blocks, _empty in self._levels],
                "root": self._root}

    def restore(self, snap: dict) -> None:
        """Install ``snap``; writes still pending are dropped."""
        self._install([dict(level) for level in snap["blocks"]],
                      snap["root"])
