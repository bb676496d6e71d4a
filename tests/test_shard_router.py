"""Property tests for the shard address map (repro.mem.shard).

The router claims three things (docs/sharding.md):

* the global -> (shard, local) map is a bijection — local addresses
  round-trip to the identity and never collide;
* every shard's local space is dense (an unsharded device of 1/N
  capacity can hash it into its channel group);
* line coverage balances across shards: exactly for whole-stripe
  spans, within one stripe for arbitrary prefixes — and with the
  cache-line granularity, within one *line*.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import default_config
from repro.common.units import CACHE_LINE_BYTES
from repro.mem.shard import ShardRouter

#: Power-of-two shard counts and interleave granularities the config
#: validator admits.
shard_counts = st.sampled_from([1, 2, 4, 8, 16])
granularities = st.sampled_from(
    [CACHE_LINE_BYTES * (1 << k) for k in range(5)])


@st.composite
def routers(draw):
    return ShardRouter(shards=draw(shard_counts),
                       interleave_bytes=draw(granularities))


class TestRoundTrip:
    @given(routers(), st.integers(min_value=0, max_value=1 << 40))
    def test_local_then_global_is_identity(self, router, addr):
        shard, local = router.to_local(addr)
        assert 0 <= shard < router.shards
        assert router.to_global(shard, local) == addr

    @given(routers(), st.integers(min_value=0, max_value=1 << 34))
    def test_global_then_local_is_identity(self, router, local):
        for shard in range(router.shards):
            addr = router.to_global(shard, local)
            assert router.to_local(addr) == (shard, local)

    @given(routers(), st.integers(min_value=0, max_value=1 << 40))
    def test_shard_of_agrees_with_to_local(self, router, addr):
        assert router.shard_of(addr) == router.to_local(addr)[0]

    @given(st.integers(min_value=0, max_value=1 << 40))
    def test_single_shard_is_identity(self, addr):
        router = ShardRouter(shards=1)
        assert router.shard_of(addr) == 0
        assert router.to_local(addr) == (0, addr)


class TestBijection:
    @settings(max_examples=40)
    @given(routers(), st.integers(min_value=1, max_value=64))
    def test_no_two_lines_collide(self, router, stripes):
        """Injective over a span: distinct global lines map to
        distinct (shard, local) pairs."""
        span = stripes * router.interleave_bytes * router.shards
        seen = set()
        for addr in range(0, span, CACHE_LINE_BYTES):
            key = router.to_local(addr)
            assert key not in seen
            seen.add(key)
        assert len(seen) == span // CACHE_LINE_BYTES

    @settings(max_examples=40)
    @given(routers(), st.integers(min_value=1, max_value=64))
    def test_local_space_is_dense(self, router, stripes):
        """Whole-stripe spans pack each shard's local lines into a
        contiguous prefix — no holes for the channel hash to alias."""
        span = stripes * router.interleave_bytes * router.shards
        per_shard = {}
        for addr in range(0, span, CACHE_LINE_BYTES):
            shard, local = router.to_local(addr)
            per_shard.setdefault(shard, set()).add(local)
        expected = {local for local in range(
            0, span // router.shards, CACHE_LINE_BYTES)}
        for shard in range(router.shards):
            assert per_shard[shard] == expected


class TestBalance:
    @settings(max_examples=40)
    @given(routers(), st.integers(min_value=1, max_value=64))
    def test_whole_stripe_span_balances_exactly(self, router, stripes):
        span = stripes * router.interleave_bytes * router.shards
        counts = [0] * router.shards
        for addr in range(0, span, CACHE_LINE_BYTES):
            counts[router.shard_of(addr)] += 1
        assert len(set(counts)) == 1

    @settings(max_examples=40)
    @given(routers(), st.integers(min_value=1, max_value=512))
    def test_arbitrary_prefix_balances_within_one_stripe(
            self, router, lines):
        counts = [0] * router.shards
        for addr in range(0, lines * CACHE_LINE_BYTES,
                          CACHE_LINE_BYTES):
            counts[router.shard_of(addr)] += 1
        stripe_lines = router.interleave_bytes // CACHE_LINE_BYTES
        assert max(counts) - min(counts) <= stripe_lines

    @settings(max_examples=40)
    @given(shard_counts, st.integers(min_value=1, max_value=512))
    def test_line_granularity_balances_within_one_line(
            self, shards, lines):
        """The default (cache-line) interleave: any line-aligned
        prefix leaves shard coverage within one line of even."""
        router = ShardRouter(shards=shards)
        counts = [0] * shards
        for addr in range(0, lines * CACHE_LINE_BYTES,
                          CACHE_LINE_BYTES):
            counts[router.shard_of(addr)] += 1
        assert max(counts) - min(counts) <= 1


def test_from_config_uses_validated_fields():
    cfg = default_config(shards=4,
                        shard_interleave_bytes=2 * CACHE_LINE_BYTES)
    router = ShardRouter.from_config(cfg)
    assert router.shards == 4
    assert router.interleave_bytes == 2 * CACHE_LINE_BYTES
