"""Two-level set-associative cache latency model.

The caches here decide *how long* a core-side load/store takes; the
data itself lives in the volatile view (``NvmSystem.volatile``).  This
split keeps the functional state simple while still giving
lookup-heavy workloads (hash table, RB-tree) realistic traversal
costs — which matters because their short pre-execution window is one
of the paper's headline observations (§5.2.1, trend 2).
"""

from collections import OrderedDict
from typing import Dict, Tuple

from repro.common.errors import ConfigError
from repro.common.units import CACHE_LINE_BYTES


class _SetAssocArray:
    """LRU tag array (no data).

    A set is created on its first fill: a system touches few of its
    thousands of sets, so building them all up front would dominate
    its construction.  A set not yet created is empty.
    """

    def __init__(self, size_bytes: int, ways: int,
                 line_bytes: int = CACHE_LINE_BYTES):
        lines = size_bytes // line_bytes
        if lines < ways or lines % ways:
            raise ConfigError(
                f"cache of {size_bytes} B cannot hold {ways} ways")
        self.sets = lines // ways
        self.ways = ways
        self.line_bytes = line_bytes
        #: set index -> tags in LRU order (oldest first).
        self._tags: Dict[int, OrderedDict] = {}

    def _locate(self, addr: int) -> Tuple[int, int]:
        line = addr // self.line_bytes
        return line % self.sets, line // self.sets

    def access(self, addr: int) -> bool:
        """Touch ``addr``; returns True on hit, inserting on miss."""
        set_index, tag = self._locate(addr)
        tags = self._tags.get(set_index)
        if tags is None:
            tags = self._tags[set_index] = OrderedDict()
        elif tag in tags:
            tags.move_to_end(tag)
            return True
        elif len(tags) >= self.ways:
            tags.popitem(last=False)
        tags[tag] = True
        return False

    def contains(self, addr: int) -> bool:
        set_index, tag = self._locate(addr)
        tags = self._tags.get(set_index)
        return tags is not None and tag in tags

    def invalidate(self, addr: int) -> None:
        set_index, tag = self._locate(addr)
        tags = self._tags.get(set_index)
        if tags is not None:
            tags.pop(tag, None)


class CacheModel:
    """L1 + L2 latency model with hit/miss statistics."""

    def __init__(self, cache_config, memory_read_ns: float):
        cfg = cache_config
        self.cfg = cfg
        self._l1 = _SetAssocArray(cfg.l1_size_bytes, ways=8)
        self._l2 = _SetAssocArray(cfg.l2_size_bytes, ways=8)
        self._memory_read_ns = memory_read_ns
        self.l1_hits = 0
        self.l2_hits = 0
        self.misses = 0

    def access_ns(self, addr: int) -> float:
        """Latency of a load/store to ``addr``, updating LRU state."""
        latency, _level = self.access_with_level(addr)
        return latency

    def access_with_level(self, addr: int):
        """Like :meth:`access_ns` but also reports the serving level
        (``"l1"`` / ``"l2"`` / ``"mem"``) — the read path needs to
        know which lines actually travelled from the NVM device and
        therefore required decryption."""
        if self._l1.access(addr):
            self.l1_hits += 1
            return self.cfg.l1_hit_ns, "l1"
        if self._l2.access(addr):
            self.l2_hits += 1
            return self.cfg.l1_hit_ns + self.cfg.l2_hit_ns, "l2"
        self.misses += 1
        return (self.cfg.l1_hit_ns + self.cfg.l2_hit_ns
                + self._memory_read_ns), "mem"

    def hit_rate(self) -> float:
        total = self.l1_hits + self.l2_hits + self.misses
        if total == 0:
            return 0.0
        return (self.l1_hits + self.l2_hits) / total
