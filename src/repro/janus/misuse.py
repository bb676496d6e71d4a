"""Interface-misuse detection (paper §6, "Tools for misuse detection").

The paper lists three misuse patterns that cannot break correctness —
the hardware guards that — but silently waste performance:

1. **modified pre-execution objects** — the address/data given to a
   ``PRE_*`` call changed before the actual write, invalidating the
   buffered results (detected here from the IRB's data-mismatch and
   metadata-invalidation counters);
2. **useless pre-execution** — requests whose results were never
   consumed by a write (dropped on full queues, aged out of the IRB,
   or left behind at thread exit);
3. **insufficient pre-execution window** — the write arrived before
   its pre-execution completed, so part of the BMO latency stayed on
   the critical path (detected from the engine's in-flight-wait
   statistics).

``diagnose`` turns a finished Janus-mode system into a
:class:`MisuseReport` of findings, each with the § 4.4 guideline it
violates and a suggested remedy.
"""

from dataclasses import dataclass, field
from typing import List


@dataclass
class Finding:
    """One detected misuse pattern."""

    kind: str          # "stale-input" | "useless" | "short-window"
    count: int
    detail: str
    guideline: str
    severity: str      # "info" | "warn"

    def render(self) -> str:
        return (f"[{self.severity}] {self.kind} x{self.count}: "
                f"{self.detail}\n         guideline: {self.guideline}")


@dataclass
class MisuseReport:
    """All findings from one run, plus headline efficiency numbers."""

    findings: List[Finding] = field(default_factory=list)
    requests: int = 0
    consumed: int = 0
    #: Ops that merged into an existing IRB entry (a PRE_ADDR pairing
    #: with its PRE_DATA): their work was used via the merged entry.
    merged: int = 0

    @property
    def clean(self) -> bool:
        return not any(f.severity == "warn" for f in self.findings)

    @property
    def waste_ratio(self) -> float:
        """Fraction of issued line-ops whose results went unused."""
        if self.requests == 0:
            return 0.0
        used = self.consumed + self.merged
        return max(0.0, 1.0 - used / self.requests)

    def render(self) -> str:
        lines = [
            "Janus interface misuse report",
            f"  line-ops issued: {self.requests}, consumed by writes: "
            f"{self.consumed} (waste {self.waste_ratio * 100:.0f}%)",
        ]
        if not self.findings:
            lines.append("  no misuse detected")
        for finding in self.findings:
            lines.append("  " + finding.render())
        return "\n".join(lines)


def diagnose(system, waste_threshold: float = 0.25,
             shortfall_threshold_ns: float = 50.0) -> MisuseReport:
    """Analyze a finished Janus-mode :class:`NvmSystem` run."""
    engine = system.janus
    if engine is None:
        return MisuseReport()
    stats = engine.stats
    irb_stats = engine.irb.stats

    def counter(bag, name):
        return bag.counters[name].value if name in bag.counters else 0

    report = MisuseReport(
        requests=counter(stats, "ops_admitted"),
        consumed=counter(irb_stats, "consumed"),
        merged=counter(irb_stats, "merged"),
    )

    # 1. stale inputs (paper misuse 1: modifications on the object).
    mismatches = counter(stats, "data_mismatches")
    if mismatches:
        report.findings.append(Finding(
            kind="stale-input", count=mismatches,
            detail="writes arrived with different data than was "
                   "pre-executed; data-dependent sub-operations were "
                   "recomputed on the critical path",
            guideline="do not update the location (or its cache line) "
                      "between the PRE_* call and the actual write "
                      "(§4.4 guideline 1)",
            severity="warn"))
    invalidated = sum(
        c.value for name, c in irb_stats.counters.items()
        if name.startswith("invalidated_"))
    if invalidated:
        report.findings.append(Finding(
            kind="stale-input", count=invalidated,
            detail="IRB entries invalidated by metadata changes "
                   "(e.g. a deduplicated source value was overwritten)",
            guideline="pre-execute closer to the write when the data "
                      "is hot, or accept the loss — correctness is "
                      "unaffected (§4.3.1)",
            severity="info"))

    # 2. useless pre-execution (paper misuse 2).
    dropped = (counter(stats, "ops_dropped_full")
               + counter(irb_stats, "dropped_full")
               + engine.request_queue.dropped)
    if dropped:
        report.findings.append(Finding(
            kind="useless", count=dropped,
            detail="pre-execution requests dropped on full "
                   "queues/buffers before producing usable results",
            guideline="issue fewer or later requests, or provision "
                      "more IRB/queue entries (§4.6, Fig. 14)",
            severity="warn" if dropped > report.requests * 0.1
            else "info"))
    expired = counter(irb_stats, "expired")
    leftover = len(engine.irb)
    if expired or leftover:
        report.findings.append(Finding(
            kind="useless", count=expired + leftover,
            detail="pre-executed results aged out or were never "
                   "matched by a write",
            guideline="every PRE_* call should pair with a subsequent "
                      "blocking writeback of the same object (§6, "
                      "misuse 2)",
            severity="warn" if (expired + leftover) > 0.1 *
            max(1, report.requests) else "info"))
    if report.waste_ratio > waste_threshold:
        report.findings.append(Finding(
            kind="useless", count=report.requests - report.consumed,
            detail=f"{report.waste_ratio * 100:.0f}% of issued "
                   "line-ops never served a write",
            guideline="audit instrumentation placement (§4.4)",
            severity="warn"))

    # 3. insufficient window (paper misuse 3).
    waits = counter(stats, "inflight_waits")
    if waits:
        shortfall = stats.histograms["window_shortfall_ns"]
        severity = "warn" if shortfall.mean > shortfall_threshold_ns \
            else "info"
        report.findings.append(Finding(
            kind="short-window", count=waits,
            detail=f"writes waited a mean {shortfall.mean:.0f} ns "
                   f"(max {shortfall.max:.0f} ns) for their own "
                   "pre-execution to finish",
            guideline="place the pre-execution call farther from the "
                      "write — after the last update of the location "
                      "(§4.4 guideline 3)",
            severity=severity))
    return report
