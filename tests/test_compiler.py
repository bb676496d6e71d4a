"""Tests for the transaction IR and the automated instrumentation pass."""

import pytest

from repro.common.errors import InstrumentationError
from repro.compiler import (
    AddrGen,
    AutoInstrumenter,
    Cond,
    Fence,
    Hook,
    InstrumentationPlan,
    Loop,
    Store,
    Template,
    Writeback,
)
from repro.compiler.ir import LogBackup, Value


def make_plan(template):
    return AutoInstrumenter().instrument(template)


def simple_update_template():
    """arrayUpdate(index, val) from paper Fig. 4/8a."""
    return Template(
        name="array_update",
        args=("index", "new_val"),
        body=[
            Hook("entry"),
            AddrGen("loc", inputs=("index",)),          # hoistable
            Hook("after_addr"),
            LogBackup("loc", obj="item"),
            Fence(),
            Store("loc", "new_val", obj="item"),
            Writeback("loc", obj="item"),
            Fence(),
        ])


class TestBlockingWritebackDetection:
    def test_writeback_without_fence_not_blocking(self):
        body = [Writeback("a", obj="x")]
        template = Template("t", args=("a",), body=body)
        plan = make_plan(template)
        assert plan.total_directives() == 0


class TestAddressInjection:
    def test_hoistable_address_goes_to_entry_hook(self):
        plan = make_plan(simple_update_template())
        directives = plan.at("entry")
        kinds = {(d.kind, d.obj) for d in directives}
        assert ("addr", "item") in kinds
        addr_directive = next(d for d in directives if d.kind == "addr")
        assert addr_directive.hoisted

    def test_memory_dependent_address_not_hoisted(self):
        template = Template(
            name="tree_update",
            args=("key", "val"),
            body=[
                Hook("entry"),
                AddrGen("node", inputs=("key",), memory_dependent=True),
                Hook("after_lookup"),
                LogBackup("node", obj="node"),
                Fence(),
                Store("node", "val", obj="node"),
                Writeback("node", obj="node"),
                Fence(),
            ])
        plan = make_plan(template)
        assert not any(d.kind == "addr" for d in plan.at("entry"))
        after = plan.at("after_lookup")
        assert any(d.kind == "addr" and not d.hoisted for d in after)

    def test_transitive_memory_dependence_poisons_chain(self):
        template = Template(
            name="chained",
            args=("key", "val"),
            body=[
                Hook("entry"),
                AddrGen("bucket", inputs=("key",), memory_dependent=True),
                AddrGen("slot", inputs=("bucket",)),  # pure but tainted
                Hook("after_chain"),
                Store("slot", "val", obj="slot"),
                Writeback("slot", obj="slot"),
                Fence(),
            ])
        plan = make_plan(template)
        assert not any(d.kind == "addr" for d in plan.at("entry"))
        assert any(d.kind == "addr" for d in plan.at("after_chain"))


class TestDataInjection:
    def test_data_from_args_goes_to_entry(self):
        plan = make_plan(simple_update_template())
        assert any(d.kind == "data" and d.obj == "item"
                   for d in plan.at("entry"))

    def test_data_from_late_value_waits_for_it(self):
        template = Template(
            name="derived_data",
            args=("index",),
            body=[
                Hook("entry"),
                AddrGen("loc", inputs=("index",)),
                Value("computed"),
                Hook("after_compute"),
                Store("loc", "computed", obj="item"),
                Writeback("loc", obj="item"),
                Fence(),
            ])
        plan = make_plan(template)
        assert not any(d.kind == "data" for d in plan.at("entry"))
        assert any(d.kind == "data" for d in plan.at("after_compute"))

    def test_writeback_without_store_skipped_for_data(self):
        template = Template(
            name="log_only",
            args=("index",),
            body=[
                Hook("entry"),
                AddrGen("loc", inputs=("index",)),
                Writeback("loc", obj="log"),
                Fence(),
            ])
        plan = make_plan(template)
        assert ("log", "no defining store") in plan.skipped


class TestLimitations:
    def test_writeback_inside_loop_is_skipped(self):
        """§4.5.2: the pass cannot instrument loop bodies."""
        template = Template(
            name="loopy",
            args=("base", "val"),
            body=[
                Hook("entry"),
                Loop(body=[
                    AddrGen("slot", inputs=("base",)),
                    Store("slot", "val", obj="element"),
                    Writeback("slot", obj="element"),
                    Fence(),
                ]),
            ])
        plan = make_plan(template)
        assert plan.total_directives() == 0
        assert ("element", "inside loop") in plan.skipped

    def test_conditional_writeback_instrumented_in_branch_only(self):
        """§4.5.1: conservative injection under the same conditional."""
        template = Template(
            name="condy",
            args=("index", "val"),
            body=[
                Hook("entry"),
                AddrGen("loc", inputs=("index",)),
                Cond(
                    then=[
                        Hook("then_hook"),
                        Store("loc", "val", obj="item"),
                        Writeback("loc", obj="item"),
                    ],
                    otherwise=[]),
                Fence(),
            ])
        plan = make_plan(template)
        # Directives must sit inside the taken branch, not at entry.
        assert plan.at("entry") == []
        branch = plan.at("then_hook")
        assert {d.kind for d in branch} == {"addr", "data"}

    def test_undefined_address_variable_rejected(self):
        template = Template(
            name="broken", args=(),
            body=[Writeback("ghost", obj="x"), Fence()])
        with pytest.raises(InstrumentationError):
            make_plan(template)

    def test_duplicate_hooks_rejected(self):
        template = Template(
            name="dup-hooks", args=(),
            body=[Hook("h"), Hook("h")])
        with pytest.raises(InstrumentationError):
            make_plan(template)


class TestPlanObject:
    def test_empty_plan_has_no_directives(self):
        plan = InstrumentationPlan.empty()
        assert plan.at("anything") == []
        assert plan.total_directives() == 0

    def test_describe_mentions_directives_and_skips(self):
        plan = make_plan(simple_update_template())
        text = plan.describe()
        assert "PRE_ADDR" in text and "PRE_DATA" in text

    def test_paper_example_gets_both_kinds(self):
        """The Fig. 8a shape: PRE_DATA early, PRE_ADDR after lookup."""
        plan = make_plan(simple_update_template())
        kinds = {d.kind for ds in plan.directives.values() for d in ds}
        assert kinds == {"addr", "data"}
        assert plan.skipped == []
