"""Bonsai-Merkle-tree integrity verification as a decomposed BMO.

The paper's Fig. 6 draws integrity verification as I1 (hash the leaf)
-> I2 (intermediate levels) -> I3 (root).  We decompose one step
further — one sub-operation per tree level, ``I1 .. I<height>`` — so
that partial staleness maps naturally onto the schedule: if a
concurrent write only disturbed the upper levels of the tree, only the
upper ``I`` sub-ops are re-executed when the pre-executed result is
consumed.  Total latency is ``height x sha1_ns`` (9 x 40 ns = 360 ns
with the paper's 4 GB / arity-8 tree).

The leaf covers the co-located metadata entry — the encryption counter
and the dedup remap pointer (DeWrite-style integration) — hence the
inter-operation dependencies I1 <- E1 and I1 <- D2.

The ``I`` sub-ops carry timing only.  :meth:`IntegrityBmo.commit`
hands the committed leaf to the live tree
(:meth:`repro.crypto.merkle.MerkleTree.update_leaf`), which hashes it
and its path in at the tree's next read: a crash snapshot, scrub,
``--check`` or the strict ablation's sibling record.  The installed
digests are therefore correct however stale a pre-execution was, and
a pre-execution leaves no hashed digests behind to install blindly.
Pre-executing I1..I<height> buys simulated time only, never host
work.

Strict ablation (``IntegrityConfig.strict_sibling_invalidation``):
I1 and the top level record the path's sibling blocks
(:meth:`~repro.crypto.merkle.MerkleTree.sibling_blocks`, a read that
hashes only the commits still pending).  When the write arrives, the lowest level whose recorded
siblings another commit has since changed decides which upper ``I``
sub-ops are re-run, i.e. how much hashing *time* is recharged.

The same guarantee is what makes the ``coalesced`` scheduling mode
(:mod:`repro.bmo.policy`) a pure timing optimization: when
overlapping writebacks share an ancestor node, only the first write
in the batch is *charged* for that level's hash.  Every committed
leaf is hashed into the tree at its next read whatever the mode, so
tree state and verification are untouched.
"""

from typing import Tuple

from repro.bmo.base import BackendOperation, BmoContext, SubOp
from repro.common.config import BmoLatencies, IntegrityConfig
from repro.crypto.merkle import MerkleTree


def leaf_value_for(ctx: BmoContext) -> bytes:
    """Serialize the metadata protected by this line's leaf."""
    counter = ctx.values.get("counter", 0) or 0
    fingerprint = ctx.values.get("fingerprint", b"") or b""
    is_dup = bool(ctx.values.get("is_dup"))
    return (counter.to_bytes(16, "little")
            + (b"\x01" if is_dup else b"\x00")
            + fingerprint)


class IntegrityBmo(BackendOperation):
    """Per-level Merkle-tree update sub-operations."""

    name = "integrity"

    def __init__(self, latencies: BmoLatencies, config: IntegrityConfig,
                 tree: MerkleTree = None,
                 with_encryption: bool = False,
                 with_dedup: bool = False,
                 line_bytes: int = 64):
        super().__init__()
        self.lat = latencies
        self.cfg = config
        self.tree = tree if tree is not None else MerkleTree(
            arity=config.arity, height=config.height)
        self.with_encryption = with_encryption
        self.with_dedup = with_dedup
        self.line_bytes = line_bytes
        #: leaf index -> committed leaf value.  Conceptually this is
        #: the metadata region's current content (co-located counters
        #: and remap pointers); kept explicitly so scrubbing and
        #: recovery can re-verify the tree without reconstructing
        #: transient per-write state.
        self.committed_leaves = {}

    def leaf_index(self, addr: int) -> int:
        return (addr // self.line_bytes) % self.tree.leaf_capacity

    # -- functional sub-op bodies -------------------------------------
    def _record_siblings(self, ctx: BmoContext) -> None:
        # Strict ablation only: remember the blocks this path reads its
        # siblings from, for ``stale_subops``.  I1 records them and the
        # top level records them again, so a partial re-execution
        # (only upper levels stale) converges: the record matches the
        # live tree once the re-run reaches the root.
        ctx.values["merkle_siblings"] = self.tree.sibling_blocks(
            self.leaf_index(ctx.addr))

    def subops(self) -> Tuple[SubOp, ...]:
        i1_deps = []
        if self.with_encryption:
            i1_deps.append("E1")
        if self.with_dedup:
            i1_deps.append("D2")
        record = self._record_siblings \
            if self.cfg.strict_sibling_invalidation else None
        height = self.tree.height
        ops = [SubOp("I1", self.name, self._level_latency(1),
                     deps=tuple(i1_deps), run=record)]
        for level in range(2, height + 1):
            ops.append(SubOp(f"I{level}", self.name,
                             self._level_latency(level),
                             deps=(f"I{level - 1}",),
                             run=record if level == height else None))
        return tuple(ops)

    def _level_latency(self, level: int) -> float:
        """SHA-1 per level; the top ``cached_levels`` are absorbed by
        the Merkle cache (ablation knob, 0 by default for writes)."""
        if level > self.tree.height - self.cfg.cached_levels:
            return 0.0
        return self.lat.sha1_ns

    # -- commit / staleness --------------------------------------------
    def commit(self, ctx: BmoContext) -> None:
        # The live tree hashes the leaf in at its next read, so the
        # result is correct however stale the pre-execution was.
        leaf_value = leaf_value_for(ctx)
        index = self.leaf_index(ctx.addr)
        self.tree.update_leaf(index, leaf_value)
        self.committed_leaves[index] = leaf_value

    def stale_subops(self, ctx: BmoContext) -> set:
        # A leaf-value change (stale counter / dedup verdict) is
        # caught upstream: E1/D2 staleness invalidates I1..In through
        # the dependency closure.  Sibling churn from *other* lines'
        # commits is charged only under the strict ablation mode —
        # the default model, like the paper's, lets the integrity
        # engine absorb upper-level rework off the critical path
        # (the committed tree is recomputed functionally either way).
        if not self.cfg.strict_sibling_invalidation:
            return set()
        record = ctx.values.get("merkle_siblings")
        if record is None:
            return set()
        depth = self.tree.stale_depth(record)
        if depth > self.tree.height:
            return set()
        # Re-hash from the first level whose input changed upward.
        return {f"I{level}" for level in range(depth, self.tree.height + 1)}

    def root(self) -> bytes:
        """Secure-register root value (persisted in the processor)."""
        return self.tree.root

    def unreconstructable_metadata(self) -> dict:
        return {"tree": self.tree.snapshot(),
                "leaves": dict(self.committed_leaves)}

    def restore_metadata(self, snapshot: dict) -> None:
        self.tree.restore(snapshot["tree"])
        self.committed_leaves = dict(snapshot["leaves"])
