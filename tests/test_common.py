"""Tests for configuration, units, RNG, stats, and report helpers."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common import (
    ConfigError,
    DeterministicRng,
    SystemConfig,
    cycles_to_ns,
    ns_to_cycles,
)
from repro.common.config import (
    DedupConfig,
    JanusConfig,
    ShardingError,
    default_config,
)
from repro.common.units import align_down, align_up, line_span
from repro.harness.report import (
    Table,
    arithmetic_mean,
    format_series,
)
from repro.obs.metrics import Counter, Histogram


class TestUnits:
    def test_cycle_conversions_roundtrip(self):
        assert cycles_to_ns(ns_to_cycles(10.0, 4.0), 4.0) == \
            pytest.approx(10.0)

    def test_zero_frequency_rejected(self):
        with pytest.raises(ValueError):
            cycles_to_ns(10, 0)

    def test_alignment_helpers(self):
        assert align_down(100) == 64
        assert align_up(100) == 128
        assert align_up(128) == 128
        assert align_down(64) == 64

    def test_line_span_boundaries(self):
        assert list(line_span(0, 64)) == [0]
        assert list(line_span(63, 2)) == [0, 64]
        assert list(line_span(64, 128)) == [64, 128]
        assert list(line_span(0, 0)) == []

    @given(addr=st.integers(0, 10_000), size=st.integers(1, 1000))
    def test_line_span_covers_range(self, addr, size):
        lines = list(line_span(addr, size))
        assert lines[0] <= addr
        assert lines[-1] + 64 >= addr + size
        assert all(b - a == 64 for a, b in zip(lines, lines[1:]))


class TestConfig:
    def test_default_config_validates(self):
        cfg = default_config()
        assert cfg.mode == "janus"
        assert cfg.bmos == ("dedup", "encryption", "integrity")

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigError):
            default_config(mode="warp-speed")

    def test_bad_bmo_rejected(self):
        with pytest.raises(ConfigError):
            default_config(bmos=("encryption", "teleportation"))

    def test_duplicate_bmo_rejected(self):
        with pytest.raises(ConfigError):
            default_config(bmos=("encryption", "encryption"))

    def test_bad_dedup_ratio_rejected(self):
        with pytest.raises(ConfigError):
            SystemConfig(dedup=DedupConfig(target_ratio=1.5)).validate()

    def test_bad_pipeline_fraction_rejected(self):
        with pytest.raises(ConfigError):
            default_config(bmo_unit_pipeline_fraction=0.0)

    def test_janus_resource_scaling(self):
        cfg = JanusConfig(irb_entries=64, resource_scale=2.0)
        assert cfg.scaled("irb_entries") == 128
        cfg = JanusConfig(unlimited_resources=True)
        assert cfg.scaled("irb_entries") > 1_000_000

    def test_replace_produces_new_validated_view(self):
        cfg = default_config()
        other = cfg.replace(cores=4)
        assert other.cores == 4 and cfg.cores == 1


class TestShardingValidation:
    """Construction-time sharding checks (mirrors FaultPlanError:
    every defect reported, not just the first)."""

    def test_valid_sharded_configs_accepted(self):
        for shards in (1, 2, 4, 8):
            cfg = default_config(shards=shards)
            assert cfg.shards == shards
        cfg = default_config(shards=2, shard_interleave_bytes=256)
        assert cfg.shard_interleave_bytes == 256

    def test_non_power_of_two_shards_rejected(self):
        with pytest.raises(ShardingError) as info:
            default_config(shards=3)
        assert any(p["field"] == "shards"
                   for p in info.value.problems)

    def test_zero_and_negative_shards_rejected(self):
        for bad in (0, -2):
            with pytest.raises(ShardingError):
                default_config(shards=bad)

    def test_non_power_of_two_interleave_rejected(self):
        with pytest.raises(ShardingError) as info:
            default_config(shard_interleave_bytes=96)
        assert info.value.problems[0]["field"] == \
            "shard_interleave_bytes"

    def test_sub_line_interleave_rejected(self):
        with pytest.raises(ShardingError) as info:
            default_config(shard_interleave_bytes=32)
        assert "cache line" in info.value.problems[0]["detail"]

    def test_capacity_must_cover_whole_stripes(self):
        from repro.common.config import MemoryConfig
        with pytest.raises(ShardingError) as info:
            SystemConfig(
                shards=4, shard_interleave_bytes=64,
                memory=MemoryConfig(capacity_bytes=64 * 4 * 10 + 64),
            ).validate()
        assert any("full stripe" in p["detail"]
                   for p in info.value.problems)

    def test_all_problems_reported_at_once(self):
        with pytest.raises(ShardingError) as info:
            default_config(shards=3, shard_interleave_bytes=96)
        fields = [p["field"] for p in info.value.problems]
        assert fields == ["shards", "shard_interleave_bytes"]
        # The aggregated message names every problem.
        message = str(info.value)
        assert "2 problems" in message
        assert "shards" in message
        assert "shard_interleave_bytes" in message

    def test_sharding_error_is_config_error(self):
        with pytest.raises(ConfigError):
            default_config(shards=5)


class TestRng:
    def test_same_seed_same_stream(self):
        a = DeterministicRng(7).stream("x")
        b = DeterministicRng(7).stream("x")
        assert [a.random() for _ in range(5)] == \
            [b.random() for _ in range(5)]

    def test_different_names_independent(self):
        rng = DeterministicRng(7)
        assert rng.stream("x").random() != rng.stream("y").random()

    def test_fork_changes_streams(self):
        rng = DeterministicRng(7)
        child = rng.fork("core0")
        assert child.stream("x").random() != rng.stream("x").random()


class TestStats:
    def test_counter(self):
        c = Counter("x")
        c.add()
        c.add(4)
        assert c.value == 5

    def test_histogram_summary(self):
        h = Histogram("lat")
        for v in (1.0, 2.0, 3.0):
            h.observe(v)
        assert h.mean == pytest.approx(2.0)
        assert h.min == 1.0 and h.max == 3.0
        assert h.percentile(50) == pytest.approx(2.0)
        assert h.percentile(100) == pytest.approx(3.0)

    def test_empty_histogram_safe(self):
        h = Histogram("lat")
        assert h.mean == 0.0
        assert h.percentile(50) == 0.0


class TestReport:
    def test_table_renders_all_rows(self):
        t = Table("caption", ["a", "b"])
        t.add_row("x", 1.5)
        text = t.render()
        assert "caption" in text and "1.50" in text

    def test_table_rejects_wrong_arity(self):
        t = Table("c", ["a", "b"])
        with pytest.raises(ValueError):
            t.add_row("only-one")

    def test_means(self):
        assert arithmetic_mean([1, 2, 3]) == pytest.approx(2.0)
        assert arithmetic_mean([]) == 0.0

    def test_format_series(self):
        text = format_series("s", {"a": 1.5, "b": 2.0})
        assert "a=1.50x" in text
