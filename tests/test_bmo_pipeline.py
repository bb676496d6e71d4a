"""Tests for the composed BMO pipeline (paper Fig. 6 configuration)."""

import dataclasses

import pytest

from repro.bmo import build_pipeline
from repro.bmo.base import ADDR, DATA
from repro.common.config import default_config
from repro.common.errors import SimulationError


def paper_pipeline(**overrides):
    cfg = default_config(**overrides)
    return build_pipeline(cfg)


def line(pattern: int) -> bytes:
    return bytes([pattern & 0xFF]) * 64


def run_write(pipeline, addr, data):
    ctx = pipeline.make_context(addr=addr, data=data)
    pipeline.execute_all(ctx)
    action = pipeline.commit(ctx)
    return ctx, action


class TestFig6Structure:
    def test_paper_classification(self):
        """Fig. 6: E1-E2 addr-only, D1-D2 data-only, rest both."""
        labels = paper_pipeline().classification()
        assert labels["E1"] == "addr"
        assert labels["E2"] == "addr"
        assert labels["D1"] == "data"
        assert labels["D2"] == "data"
        for name, label in labels.items():
            if name not in ("E1", "E2", "D1", "D2"):
                assert label == "both", (name, label)

    def test_inter_operation_edges(self):
        graph = paper_pipeline().graph
        assert "D2" in graph.subops["E3"].deps    # cancel dup writes
        assert "E1" in graph.subops["D4"].deps    # co-located metadata
        assert "E1" in graph.subops["I1"].deps    # leaf covers counter
        assert "D2" in graph.subops["I1"].deps    # leaf covers remap

    def test_parallel_groups_of_paper(self):
        """E3-E4, I1..In, D3-D4 can run in parallel (section 4.2)."""
        graph = paper_pipeline().graph
        integrity = [n for n in graph.subops if n.startswith("I")]
        assert graph.can_parallelise({"E3", "E4"}, integrity)
        assert graph.can_parallelise({"E3", "E4"}, {"D3", "D4"})
        assert graph.can_parallelise(integrity, {"D3", "D4"})

    def test_serial_latency_matches_table1_arithmetic(self):
        cfg = default_config()
        lat = cfg.bmo_latencies
        expected = (
            lat.md5_ns + lat.dedup_lookup_ns + 2 * lat.remap_update_ns  # D
            + lat.counter_gen_ns + lat.aes_ns + lat.xor_ns + lat.sha1_ns  # E
            + cfg.integrity.height * lat.sha1_ns)                      # I
        assert paper_pipeline().serial_latency() == pytest.approx(expected)

    def test_integrity_height_charged_per_level(self):
        pipeline = paper_pipeline()
        integrity_ops = [op for op in pipeline.graph.subops.values()
                         if op.bmo == "integrity"]
        cfg = default_config()
        assert len(integrity_ops) == cfg.integrity.height
        assert sum(op.latency_ns for op in integrity_ops) == \
            pytest.approx(cfg.integrity.height * cfg.bmo_latencies.sha1_ns)


class TestFunctionalWrites:
    def test_unique_write_produces_ciphertext_and_action(self):
        pipeline = paper_pipeline()
        ctx, action = run_write(pipeline, 0x1000, line(0xAB))
        assert action.write_data
        assert action.payload is not None
        assert action.payload != line(0xAB)
        assert action.device_addr == 0x1000
        assert action.metadata_lines == 1

    def test_ciphertext_decrypts_back(self):
        pipeline = paper_pipeline()
        data = line(0x5C)
        ctx, action = run_write(pipeline, 0x40, data)
        engine = pipeline.by_name["encryption"].engine
        assert engine.decrypt(0x40, action.payload) == data

    def test_duplicate_write_is_cancelled(self):
        pipeline = paper_pipeline()
        run_write(pipeline, 0x1000, line(0x77))
        ctx, action = run_write(pipeline, 0x2000, line(0x77))
        assert ctx.values["is_dup"]
        assert not action.write_data
        assert action.payload is None
        dedup = pipeline.by_name["dedup"]
        assert dedup.duplicate_writes == 1
        assert dedup.table.remap[0x2000] == dedup.table.remap[0x1000]

    def test_unique_writes_not_marked_duplicate(self):
        pipeline = paper_pipeline()
        _, first = run_write(pipeline, 0x1000, line(0x01))
        _, second = run_write(pipeline, 0x2000, line(0x02))
        assert first.write_data and second.write_data

    def test_merkle_root_changes_with_each_commit(self):
        pipeline = paper_pipeline()
        integrity = pipeline.by_name["integrity"]
        roots = {integrity.root()}
        for i in range(3):
            run_write(pipeline, 0x1000 + 64 * i, line(i + 1))
            roots.add(integrity.root())
        assert len(roots) == 4

    def test_committed_leaf_verifies(self):
        pipeline = paper_pipeline()
        ctx, _action = run_write(pipeline, 0x40, line(0x3C))
        integrity = pipeline.by_name["integrity"]
        from repro.bmo.integrity import leaf_value_for
        index = integrity.leaf_index(0x40)
        assert integrity.tree.verify_leaf(index, leaf_value_for(ctx))

    def test_commit_requires_complete_context(self):
        pipeline = paper_pipeline()
        ctx = pipeline.make_context(addr=0, data=line(1))
        with pytest.raises(SimulationError):
            pipeline.commit(ctx)

    def test_counter_advances_only_for_unique_writes(self):
        pipeline = paper_pipeline()
        engine = pipeline.by_name["encryption"].engine
        run_write(pipeline, 0x0, line(9))
        assert engine.current_counter(0x0) == 1
        run_write(pipeline, 0x40, line(9))  # duplicate, cancelled
        assert engine.current_counter(0x40) == 0


class TestPipelineVariants:
    def test_encryption_only(self):
        pipeline = build_pipeline(default_config(bmos=("encryption",)))
        ctx, action = run_write(pipeline, 0x80, line(0x11))
        assert action.write_data and action.payload != line(0x11)
        assert "D2" not in pipeline.graph.subops["E3"].deps

    def test_dedup_without_encryption(self):
        pipeline = build_pipeline(default_config(bmos=("dedup",)))
        run_write(pipeline, 0x0, line(0x22))
        ctx, action = run_write(pipeline, 0x40, line(0x22))
        assert not action.write_data
        assert "E1" not in pipeline.graph.subops["D4"].deps

    def test_all_six_bmos_compose(self):
        cfg = default_config(bmos=("compression", "wear_leveling", "dedup",
                                   "encryption", "integrity", "ecc"))
        pipeline = build_pipeline(cfg)
        ctx, action = run_write(pipeline, 0x1000, line(0x42))
        assert action.write_data
        assert ctx.values["ecc_code"] is not None
        assert ctx.values["compressed_size"] <= 64
        assert "wl_addr" in ctx.values

    def test_empty_pipeline_rejected(self):
        cfg = default_config()
        cfg = cfg.replace(bmos=())
        with pytest.raises(SimulationError):
            build_pipeline(cfg)

    def test_describe_mentions_every_subop(self):
        pipeline = paper_pipeline()
        text = pipeline.describe()
        for name in pipeline.all_subops:
            assert name in text


class TestStaleness:
    def test_fresh_context_has_no_stale_subops(self):
        pipeline = paper_pipeline()
        ctx = pipeline.make_context(addr=0x40, data=line(5))
        pipeline.execute_all(ctx)
        assert pipeline.stale_subops(ctx) == set()

    def test_intervening_write_stales_counter(self):
        pipeline = paper_pipeline()
        ctx = pipeline.make_context(addr=0x40, data=line(5))
        pipeline.execute_all(ctx)  # pre-executed, counter = 1
        run_write(pipeline, 0x40, line(6))  # another write commits first
        stale = pipeline.stale_subops(ctx)
        assert "E1" in stale
        # Everything downstream of E1 must re-run too.
        assert "E2" in stale and "I1" in stale

    def test_dedup_verdict_stales_when_table_changes(self):
        pipeline = paper_pipeline()
        ctx = pipeline.make_context(addr=0x80, data=line(0x99))
        pipeline.execute_all(ctx)
        assert not ctx.values["is_dup"]
        # Someone else commits the same value: verdict flips.
        run_write(pipeline, 0x0, line(0x99))
        stale = pipeline.stale_subops(ctx)
        assert "D2" in stale and "E3" in stale

    def test_stale_dedup_verdict_raises_before_any_bmo_commits(self):
        """Commit checks the verdict against the live table before the
        first BMO commits, with compression and wear-leveling (which
        commit before dedup) enabled, and changes nothing."""
        pipeline = build_pipeline(default_config(
            bmos=("compression", "wear_leveling", "dedup", "encryption",
                  "integrity")))
        ctx = pipeline.make_context(addr=0x80, data=line(0x99))
        pipeline.execute_all(ctx)
        assert not ctx.values["is_dup"]
        run_write(pipeline, 0x0, line(0x99))  # the verdict goes stale

        def state():
            bmos = pipeline.by_name
            compression = bmos["compression"]
            return (dict(compression.size_map), compression.bytes_in,
                    bmos["wear_leveling"].start_gap._writes,
                    pipeline.unreconstructable_metadata(),
                    bmos["integrity"].tree.root)

        before = state()
        with pytest.raises(SimulationError,
                           match="stale duplicate verdict reached commit"):
            pipeline.commit(ctx)
        assert state() == before

    def test_sibling_merkle_update_stales_partially(self):
        import dataclasses
        cfg = default_config()
        cfg = cfg.replace(integrity=dataclasses.replace(
            cfg.integrity, strict_sibling_invalidation=True))
        pipeline = build_pipeline(cfg)
        ctx = pipeline.make_context(addr=0x40, data=line(1))
        pipeline.execute_all(ctx)
        # A write to a far-away leaf disturbs only upper tree levels.
        far = 64 * (cfg.integrity.arity ** 3)
        run_write(pipeline, far, line(2))
        stale = pipeline.stale_subops(ctx)
        assert stale  # some integrity levels must re-run
        assert "I1" not in stale  # but not the leaf level
        assert f"I{cfg.integrity.height}" in stale

    def test_refreshing_stale_context_commits_cleanly(self):
        pipeline = paper_pipeline()
        ctx = pipeline.make_context(addr=0x40, data=line(5))
        pipeline.execute_all(ctx)
        run_write(pipeline, 0x40, line(6))
        stale = pipeline.stale_subops(ctx)
        pipeline.invalidate(ctx, stale)
        pipeline.execute_all(ctx)
        action = pipeline.commit(ctx)
        assert action.write_data
        engine = pipeline.by_name["encryption"].engine
        assert engine.decrypt(0x40, action.payload) == line(5)


class TestExecuteAll:
    """``execute_all`` runs the actions in one loop; it must behave as
    ``SubOp.execute`` called on each sub-op in topological order."""

    @staticmethod
    def per_subop(pipeline, ctx):
        for name in pipeline.all_subops:
            if name not in ctx.completed:
                pipeline.graph.subops[name].execute(ctx)

    def test_matches_per_subop_execution(self):
        one, other = paper_pipeline(), paper_pipeline()
        for addr, pattern in ((0x40, 1), (0x80, 1), (0x40, 2)):
            got = one.make_context(addr=addr, data=line(pattern))
            expected = other.make_context(addr=addr, data=line(pattern))
            one.execute_all(got)
            self.per_subop(other, expected)
            assert got.completed == expected.completed
            assert got.values == expected.values
            assert one.commit(got) == other.commit(expected)

    def test_action_replaced_after_seeding_is_honoured(self):
        """Actions are read when they run, not when the pipeline is
        built: a sub-op entry replaced after a first (seeding) pass
        runs its new action on the next context."""
        pipeline = paper_pipeline()
        run_write(pipeline, 0x40, line(1))
        graph = pipeline.graph
        op = graph.subops["E3"]
        seen = []

        def run(ctx, _run=op.run):
            seen.append(ctx.addr)
            _run(ctx)

        graph.subops["E3"] = dataclasses.replace(op, run=run)
        run_write(pipeline, 0x80, line(2))
        assert seen == [0x80]

    @pytest.mark.parametrize("failing", ("D1", "E2", "I4", "I9"))
    def test_raising_action_leaves_the_per_subop_prefix(self, failing):

        def boom(ctx):
            raise RuntimeError(failing)

        contexts = []
        for runner in ("execute_all", "per_subop"):
            pipeline = paper_pipeline()
            graph = pipeline.graph
            graph.subops[failing] = dataclasses.replace(
                graph.subops[failing], run=boom)
            ctx = pipeline.make_context(addr=0x40, data=line(3))
            with pytest.raises(RuntimeError, match=failing):
                if runner == "execute_all":
                    pipeline.execute_all(ctx)
                else:
                    self.per_subop(pipeline, ctx)
            contexts.append(ctx)
        got, expected = contexts
        assert failing not in got.completed
        assert got.completed == expected.completed
        assert got.values == expected.values
