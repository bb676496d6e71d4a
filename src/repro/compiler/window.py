"""Static pre-execution-window estimation (paper §6).

"A static tool can estimate the number of instructions in this window
to determine whether the BMO latency can be perfectly overlapped."

``estimate_windows`` walks a transaction template with an
instrumentation plan and, for every directive, estimates the time
between its hook and the writeback it serves — using nominal costs per
IR statement — then compares that window against the latency of the
sub-operations the directive pre-executes.  Directives whose window
cannot cover their work are flagged, matching the runtime
``short-window`` findings of :mod:`repro.janus.misuse`.
"""

from dataclasses import dataclass
from typing import Dict, List

from repro.bmo.base import ExternalInput
from repro.compiler.instrument import InstrumentationPlan
from repro.compiler.ir import (
    AddrGen,
    Cond,
    Fence,
    Hook,
    LogBackup,
    Loop,
    Store,
    Template,
    Value,
    Writeback,
)

#: Nominal per-statement costs (ns) used by the static estimate.
#: These are deliberately round numbers — the tool predicts *whether*
#: a window suffices, not exact latency.
STATEMENT_COST_NS: Dict[type, float] = {
    AddrGen: 20.0,      # address computation / table walk step
    Value: 5.0,
    Store: 5.0,
    LogBackup: 150.0,   # read old value + build + persist log record
    Writeback: 15.0,    # cache -> memory controller
    Fence: 400.0,       # wait for outstanding persists (BMO-laden)
    Hook: 0.0,
    Loop: 0.0,          # bodies counted per the estimator's unrolling
    Cond: 0.0,
}

#: Assumed loop trip count when estimating across a loop body.
NOMINAL_TRIP_COUNT = 4


@dataclass
class WindowEstimate:
    """Verdict for one directive."""

    hook: str
    kind: str
    obj: str
    window_ns: float
    required_ns: float

    @property
    def sufficient(self) -> bool:
        return self.window_ns >= self.required_ns

    def render(self) -> str:
        verdict = "ok" if self.sufficient else "INSUFFICIENT"
        return (f"@{self.hook:<18} PRE_{self.kind.upper():<5} "
                f"{self.obj:<12} window~{self.window_ns:7.0f} ns "
                f"needs~{self.required_ns:6.0f} ns  [{verdict}]")


def _linear_costs(body, out: List) -> None:
    """Flatten the template into (stmt, cost) preserving order; loop
    bodies are unrolled ``NOMINAL_TRIP_COUNT`` times for costing."""
    for stmt in body:
        if isinstance(stmt, Loop):
            for _ in range(NOMINAL_TRIP_COUNT):
                _linear_costs(stmt.body, out)
        elif isinstance(stmt, Cond):
            # Cost the longer branch (conservative for the window of
            # statements *after* the cond; hooks inside branches are
            # positioned at their first unrolling).
            then_out: List = []
            else_out: List = []
            _linear_costs(stmt.then, then_out)
            _linear_costs(stmt.otherwise, else_out)
            out.extend(then_out if
                       sum(c for _s, c in then_out)
                       >= sum(c for _s, c in else_out) else else_out)
        else:
            out.append((stmt, STATEMENT_COST_NS.get(type(stmt), 0.0)))


def _required_latency(pipeline_graph, kind: str) -> float:
    """Critical-path latency of the sub-ops a directive pre-executes."""
    if kind in ("addr", "addr_buf"):
        inputs = frozenset({ExternalInput.ADDR})
    elif kind in ("data", "data_buf"):
        inputs = frozenset({ExternalInput.DATA})
    else:
        inputs = frozenset({ExternalInput.ADDR, ExternalInput.DATA})
    names = pipeline_graph.runnable_with(inputs)
    if not names:
        return 0.0
    schedule = pipeline_graph.parallel_schedule(units=1 << 10)
    return max(schedule.end_of(name) for name in names)


def estimate_windows(template: Template, plan: InstrumentationPlan,
                     pipeline_graph) -> List[WindowEstimate]:
    """Estimate every directive's window against its required work."""
    template.validate()
    flat: List = []
    _linear_costs(template.body, flat)

    hook_positions: Dict[str, int] = {}
    for index, (stmt, _cost) in enumerate(flat):
        if isinstance(stmt, Hook) and stmt.name not in hook_positions:
            hook_positions[stmt.name] = index
    writeback_positions: Dict[str, List[int]] = {}
    for index, (stmt, _cost) in enumerate(flat):
        if isinstance(stmt, Writeback):
            writeback_positions.setdefault(stmt.obj, []).append(index)

    estimates: List[WindowEstimate] = []
    for hook, directives in plan.directives.items():
        if hook not in hook_positions:
            continue
        start = hook_positions[hook]
        for directive in directives:
            if directive.kind == "start":
                continue
            positions = writeback_positions.get(directive.obj)
            if not positions:
                continue
            target = next((p for p in positions if p > start),
                          positions[-1])
            window = sum(cost for _stmt, cost in flat[start:target])
            required = _required_latency(pipeline_graph,
                                         directive.kind)
            estimates.append(WindowEstimate(
                hook=hook, kind=directive.kind, obj=directive.obj,
                window_ns=window, required_ns=required))
    return estimates


def render_report(template: Template, plan: InstrumentationPlan,
                  pipeline_graph) -> str:
    """Human-readable window report for one instrumented template."""
    estimates = estimate_windows(template, plan, pipeline_graph)
    lines = [f"pre-execution window estimate for {template.name!r} "
             f"({plan.template}):"]
    if not estimates:
        lines.append("  (no directives to estimate)")
    for estimate in estimates:
        lines.append("  " + estimate.render())
    short = [e for e in estimates if not e.sufficient]
    lines.append(f"  {len(estimates) - len(short)}/{len(estimates)} "
                 "windows sufficient")
    return "\n".join(lines)
