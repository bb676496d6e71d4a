"""Dependence analysis and directive injection (paper §4.5.1).

``AutoInstrumenter.instrument(template)`` returns an
:class:`InstrumentationPlan`: for every blocking writeback the pass
could handle, the plan holds ``PRE_ADDR`` / ``PRE_DATA`` directives
attached to the earliest legal hook point.  Writebacks the pass must
give up on (inside loops, or with memory-dependent address generation
that leaves no early window) are recorded in ``plan.skipped`` with the
reason — these are the §4.5.2 limitations that cost the automated
pass its performance on Queue and RB-Tree.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.compiler.ir import (
    AddrGen,
    Cond,
    Fence,
    Hook,
    Loop,
    Stmt,
    Store,
    Template,
    Value,
    Writeback,
)


@dataclass(frozen=True)
class Directive:
    """One injected pre-execution call."""

    kind: str      # "addr" | "data" | "both" | "both_val" | *_buf | "start"
    obj: str       # object label the workload resolves at runtime
    hoisted: bool = False
    #: Directives sharing a group share one pre_obj — required for the
    #: deferred interface, where buffered requests coalesce and are
    #: released under a single PRE_ID.
    group: Optional[str] = None


@dataclass
class InstrumentationPlan:
    """hook name -> directives to issue when execution passes it."""

    template: str
    directives: Dict[str, List[Directive]] = field(default_factory=dict)
    skipped: List[Tuple[str, str]] = field(default_factory=list)

    def at(self, hook: str) -> List[Directive]:
        return self.directives.get(hook, [])

    def add(self, hook: str, directive: Directive) -> None:
        self.directives.setdefault(hook, []).append(directive)

    def total_directives(self) -> int:
        return sum(len(v) for v in self.directives.values())

    @classmethod
    def empty(cls, template: str = "baseline") -> "InstrumentationPlan":
        """The uninstrumented program (the serialized baseline runs
        this)."""
        return cls(template=template)

    def describe(self) -> str:
        lines = [f"plan for {self.template}:"]
        for hook, directives in sorted(self.directives.items()):
            for d in directives:
                hoist = " (hoisted)" if d.hoisted else ""
                lines.append(f"  @{hook}: PRE_{d.kind.upper()} "
                             f"{d.obj}{hoist}")
        for obj, reason in self.skipped:
            lines.append(f"  skipped {obj}: {reason}")
        return "\n".join(lines)


class _Flat:
    """Linearised statement with its structural path."""

    __slots__ = ("stmt", "order", "path")

    def __init__(self, stmt: Stmt, order: int, path: Tuple):
        self.stmt = stmt
        self.order = order
        self.path = path


def _flatten(body, path=()):
    out: List[_Flat] = []

    def walk(stmts, current_path):
        for stmt in stmts:
            out.append(_Flat(stmt, len(out), current_path))
            if isinstance(stmt, Loop):
                walk(stmt.body, current_path + ("loop",))
            elif isinstance(stmt, Cond):
                walk(stmt.then, current_path + ("then",))
                walk(stmt.otherwise, current_path + ("else",))

    walk(body, path)
    return out


class AutoInstrumenter:
    """The static pass."""

    def instrument(self, template: Template) -> InstrumentationPlan:
        template.validate()
        flat = _flatten(template.body)
        plan = InstrumentationPlan(template=template.name)

        addr_defs = {f.stmt.name: f for f in flat
                     if isinstance(f.stmt, AddrGen)}
        value_defs = {f.stmt.name: f for f in flat
                      if isinstance(f.stmt, Value)}
        hooks = [f for f in flat if isinstance(f.stmt, Hook)]
        stores = [f for f in flat if isinstance(f.stmt, Store)]

        for wb_flat in self._blocking_writebacks(flat):
            wb: Writeback = wb_flat.stmt
            if "loop" in wb_flat.path:
                # §4.5.2 limitation 2: no runtime information about
                # loop iterations.
                plan.skipped.append((wb.obj, "inside loop"))
                continue
            self._inject_addr(template, plan, wb, wb_flat,
                              addr_defs, hooks)
            self._inject_data(template, plan, wb, wb_flat,
                              stores, value_defs, hooks)
        return plan

    # -- step 1 ------------------------------------------------------------
    @staticmethod
    def _blocking_writebacks(flat: List[_Flat]) -> List[_Flat]:
        found = []
        for f in flat:
            if not isinstance(f.stmt, Writeback):
                continue
            # Blocking iff a fence follows at the same or an outer
            # nesting level before the function ends.
            for later in flat[f.order + 1:]:
                if isinstance(later.stmt, Fence) and \
                        len(later.path) <= len(f.path):
                    found.append(f)
                    break
        return found

    # -- step 2+3 for the address ---------------------------------------------
    def _inject_addr(self, template, plan, wb, wb_flat,
                     addr_defs, hooks) -> None:
        chain_ok, memory_dep, latest_def = self._addr_chain(
            template, wb.addr_var, addr_defs)
        if not chain_ok:
            plan.skipped.append((wb.obj, "address chain unresolvable"))
            return
        if memory_dep:
            # Cannot hoist: earliest point is right after the defining
            # address generation.
            earliest_order = latest_def.order if latest_def else -1
            hoisted = False
        else:
            earliest_order = -1  # hoistable to function entry
            hoisted = latest_def is not None
        hook = self._earliest_hook(hooks, earliest_order, wb_flat)
        if hook is None:
            plan.skipped.append((wb.obj, "no legal hook for PRE_ADDR"))
            return
        plan.add(hook.stmt.name, Directive("addr", wb.obj,
                                           hoisted=hoisted))

    def _addr_chain(self, template, var, addr_defs):
        """Walk the address-generation chain of ``var``.

        Returns ``(resolvable, memory_dependent, latest_def)`` where
        ``latest_def`` is the flattened statement after which the
        address is known.
        """
        if var in template.args:
            return True, False, None
        definition = addr_defs.get(var)
        if definition is None:
            return False, False, None
        memory_dep = definition.stmt.memory_dependent
        latest = definition
        for dep in definition.stmt.inputs:
            ok, dep_memory, dep_latest = self._addr_chain(
                template, dep, addr_defs)
            if not ok:
                return False, False, None
            memory_dep = memory_dep or dep_memory
            if dep_latest is not None and (
                    latest is None or dep_latest.order > latest.order):
                latest = dep_latest
        return True, memory_dep, latest

    # -- step 2+3 for the data ---------------------------------------------------
    def _inject_data(self, template, plan, wb, wb_flat,
                     stores, value_defs, hooks) -> None:
        # The defining store: the last store to this object before the
        # writeback.
        defining = None
        for store_flat in stores:
            if store_flat.stmt.obj == wb.obj and \
                    store_flat.order < wb_flat.order:
                defining = store_flat
        if defining is None:
            plan.skipped.append((wb.obj, "no defining store"))
            return
        value_var = defining.stmt.value_var
        if value_var in template.args:
            earliest_order = -1
        else:
            value_def = value_defs.get(value_var)
            if value_def is None:
                plan.skipped.append(
                    (wb.obj, f"data {value_var!r} unresolvable"))
                return
            if "loop" in value_def.path:
                plan.skipped.append(
                    (wb.obj, "data produced inside loop"))
                return
            earliest_order = value_def.order
        hook = self._earliest_hook(hooks, earliest_order, wb_flat)
        if hook is None:
            plan.skipped.append((wb.obj, "no legal hook for PRE_DATA"))
            return
        plan.add(hook.stmt.name, Directive("data", wb.obj))

    # -- hook selection ------------------------------------------------------------
    @staticmethod
    def _earliest_hook(hooks, earliest_order: int,
                       wb_flat: _Flat) -> Optional[_Flat]:
        """The first hook after ``earliest_order`` in the *same*
        structural context as the writeback — the pass conservatively
        stays inside the writeback's conditional branch so it never
        issues a pre-execution for a write that will not happen
        (§4.5.1, step 3)."""
        for hook in hooks:
            if hook.order <= earliest_order:
                continue
            if hook.order >= wb_flat.order:
                return None
            if hook.path == wb_flat.path:
                return hook
        return None
