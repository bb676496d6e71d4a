"""Per-write latency tracing.

Attach a :class:`WriteTracer` to a system before running programs and
every critical-path writeback is recorded with its phase breakdown:

* ``transfer`` — cache hierarchy -> memory controller (~15 ns);
* ``bmo``      — backend-memory-operation time on the critical path
  (zero when a fully pre-executed IRB entry served the write);
* ``persist``  — write-queue acceptance (and metadata atomicity waits).

The tracer answers the question the paper's Fig. 1 poses — *where does
the write's critical latency go?* — for live runs, and exports CSV for
offline analysis.

Since the unified observability layer (:mod:`repro.obs`), this class
is a thin *consumer* of the system-wide span tracer: ``attach``
registers a sink on ``system.tracer`` and reconstructs
:class:`WriteRecord` entries from the memory controller's ``write``
spans.  The public API (``records``, ``phase_means``, ``to_csv``,
...) is unchanged; for timelines and sub-operation spans, export the
span tracer itself via :func:`repro.obs.export_chrome_trace`.
"""

import csv
import io
from dataclasses import dataclass
from typing import Dict, List, Optional


@dataclass
class WriteRecord:
    """One traced writeback."""

    thread_id: int
    line_addr: int
    start_ns: float
    mc_arrival_ns: float
    bmo_done_ns: float
    persisted_ns: float
    critical: bool

    @property
    def transfer_ns(self) -> float:
        return self.mc_arrival_ns - self.start_ns

    @property
    def bmo_ns(self) -> float:
        return self.bmo_done_ns - self.mc_arrival_ns

    @property
    def persist_ns(self) -> float:
        return self.persisted_ns - self.bmo_done_ns

    @property
    def total_ns(self) -> float:
        return self.persisted_ns - self.start_ns


class WriteTracer:
    """Collects :class:`WriteRecord` entries from a memory controller.

    Usage::

        system, workloads = build("queue", "janus")
        tracer = WriteTracer.attach(system)
        system.run_programs([w.run() for w in workloads])
        print(tracer.summary())
    """

    def __init__(self) -> None:
        self.records: List[WriteRecord] = []

    @classmethod
    def attach(cls, system) -> "WriteTracer":
        """Subscribe to ``system``'s span tracer (enabling it)."""
        tracer = cls()
        system.tracer.add_sink(tracer.on_event)
        return tracer

    def add(self, record: WriteRecord) -> None:
        self.records.append(record)

    def on_event(self, event: dict) -> None:
        """Span-tracer sink: fold ``write`` spans into records."""
        if event.get("ph") != "X" or event.get("cat") != "write":
            return
        args = event.get("args", {})
        self.add(WriteRecord(
            thread_id=args["thread_id"],
            line_addr=args["line_addr"],
            start_ns=event["ts"],
            mc_arrival_ns=args["mc_arrival_ns"],
            bmo_done_ns=args["bmo_done_ns"],
            persisted_ns=args["persisted_ns"],
            critical=args["critical"]))

    def __len__(self) -> int:
        return len(self.records)

    # -- analysis -----------------------------------------------------------
    def phase_means(self) -> Dict[str, float]:
        if not self.records:
            return {"transfer": 0.0, "bmo": 0.0, "persist": 0.0,
                    "total": 0.0}
        n = len(self.records)
        return {
            "transfer": sum(r.transfer_ns for r in self.records) / n,
            "bmo": sum(r.bmo_ns for r in self.records) / n,
            "persist": sum(r.persist_ns for r in self.records) / n,
            "total": sum(r.total_ns for r in self.records) / n,
        }

    def zero_bmo_fraction(self) -> float:
        """Writes whose BMO time was (near-)zero — the fully
        pre-executed ones."""
        if not self.records:
            return 0.0
        return sum(1 for r in self.records if r.bmo_ns < 1.0) \
            / len(self.records)

    def summary(self) -> str:
        means = self.phase_means()
        return (
            f"{len(self.records)} writes traced | mean critical path "
            f"{means['total']:.1f} ns = transfer {means['transfer']:.1f}"
            f" + BMO {means['bmo']:.1f} + persist {means['persist']:.1f}"
            f" | {self.zero_bmo_fraction() * 100:.0f}% zero-BMO")

    # -- export ---------------------------------------------------------------
    def to_csv(self, path: Optional[str] = None) -> str:
        """Write records as CSV; returns the CSV text."""
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["thread", "line_addr", "start_ns",
                         "transfer_ns", "bmo_ns", "persist_ns",
                         "total_ns", "critical"])
        for r in self.records:
            writer.writerow([r.thread_id, f"{r.line_addr:#x}",
                             f"{r.start_ns:.2f}",
                             f"{r.transfer_ns:.2f}",
                             f"{r.bmo_ns:.2f}",
                             f"{r.persist_ns:.2f}",
                             f"{r.total_ns:.2f}",
                             int(r.critical)])
        text = buffer.getvalue()
        if path is not None:
            with open(path, "w") as handle:
                handle.write(text)
        return text
