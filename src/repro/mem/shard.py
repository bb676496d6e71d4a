"""Shard address map: interleave line addresses across controllers.

The sharded machine (``SystemConfig.shards > 1``) splits the physical
address space across N memory controllers by rotating fixed-size
*stripes* round-robin: stripe ``k`` (the ``shard_interleave_bytes``
bytes starting at ``k * shard_interleave_bytes``) belongs to shard
``k % shards``.  Within a shard, its stripes are repacked densely —
stripe ``k`` becomes the shard-local stripe ``k // shards`` — so each
controller sees a contiguous local address space it can hash into its
own channel group, exactly like an unsharded device of 1/N capacity.

Both maps are pure arithmetic on integers (no tables), so the router
is a bijection by construction; ``tests/test_shard_router.py``
property-tests the round-trip and the balance guarantee anyway.

With ``shards == 1`` every address is shard 0 and the local map is the
identity — the pre-sharding machine, bit for bit.
"""

from typing import Tuple

from repro.common.config import SystemConfig
from repro.common.units import CACHE_LINE_BYTES


class ShardRouter:
    """Address-interleaving map between global and shard-local space.

    ``shards`` and ``interleave_bytes`` must already satisfy the
    ``SystemConfig`` sharding constraints (powers of two, interleave
    >= cache line); the router trusts its inputs — validation lives in
    :meth:`repro.common.config.SystemConfig.validate`.
    """

    __slots__ = ("shards", "interleave_bytes")

    def __init__(self, shards: int = 1,
                 interleave_bytes: int = CACHE_LINE_BYTES):
        self.shards = shards
        self.interleave_bytes = interleave_bytes

    @classmethod
    def from_config(cls, config: SystemConfig) -> "ShardRouter":
        return cls(shards=config.shards,
                   interleave_bytes=config.shard_interleave_bytes)

    def shard_of(self, addr: int) -> int:
        """Owning shard of a global byte address."""
        return (addr // self.interleave_bytes) % self.shards

    def to_local(self, addr: int) -> Tuple[int, int]:
        """Global address -> ``(shard, shard-local address)``."""
        stripe, offset = divmod(addr, self.interleave_bytes)
        shard, local_stripe = stripe % self.shards, stripe // self.shards
        return shard, local_stripe * self.interleave_bytes + offset

    def to_global(self, shard: int, local_addr: int) -> int:
        """``(shard, shard-local address)`` -> global address."""
        local_stripe, offset = divmod(local_addr, self.interleave_bytes)
        return (local_stripe * self.shards + shard) \
            * self.interleave_bytes + offset
