#!/usr/bin/env python3
"""Where does a write's critical-path latency go?

Traces identical B-Tree runs under each design point and reads every
writeback's ``write`` span, whose args carry the memory-controller
arrival, BMO-done and persist times.  Prints the Fig. 1-style phase
breakdown (cache transfer / BMOs / persist), plus a CSV sample for
offline analysis.

Run:  python examples/write_path_analysis.py
"""

from repro.common.config import default_config
from repro.core import NvmSystem
from repro.harness.report import Table
from repro.obs.tracer import Tracer
from repro.workloads import WorkloadParams, make_workload

CSV_HEADER = ("thread,line_addr,start_ns,transfer_ns,bmo_ns,persist_ns,"
              "total_ns,critical")


def traced_run(mode, variant):
    """The ``write`` spans of one B-Tree run, in emission order."""
    tracer = Tracer()
    system = NvmSystem(default_config(mode=mode), tracer=tracer)
    workload = make_workload(
        "btree", system, system.cores[0],
        WorkloadParams(n_items=16, value_size=64, n_transactions=20),
        variant=variant)
    system.run_programs([workload.run()])
    return tracer.spans(cat="write")


def phases(span):
    """``(transfer, bmo, persist, total)`` ns of one write span."""
    args = span["args"]
    return (args["mc_arrival_ns"] - span["ts"],
            args["bmo_done_ns"] - args["mc_arrival_ns"],
            args["persisted_ns"] - args["bmo_done_ns"],
            span["dur"])


def main():
    table = Table(
        "critical-path phase breakdown per write (mean ns)",
        ["design", "transfer", "BMO", "persist", "total",
         "zero-BMO writes"])
    traced = {}
    for mode, variant in (("serialized", "baseline"),
                          ("parallel", "baseline"),
                          ("janus", "manual"),
                          ("ideal", "baseline")):
        spans = traced[mode] = traced_run(mode, variant)
        rows = [phases(span) for span in spans]
        means = [sum(column) / len(rows) for column in zip(*rows)]
        # Fully pre-executed writes spend ~0 ns in BMOs at the MC.
        zero_bmo = sum(1 for row in rows if row[1] < 1.0) / len(rows)
        table.add_row(mode, *means, f"{zero_bmo * 100:.0f}%")
    print(table.render())
    print()
    print("sample of the janus trace (CSV):")
    print("  " + CSV_HEADER)
    janus = traced["janus"]
    for span in janus[:5]:
        args = span["args"]
        cells = [args["thread_id"], f"{args['line_addr']:#x}",
                 f"{span['ts']:.2f}"]
        cells += [f"{ns:.2f}" for ns in phases(span)]
        cells.append(int(args["critical"]))
        print("  " + ",".join(str(cell) for cell in cells))
    print(f"  ... {len(janus)} rows total")


if __name__ == "__main__":
    main()
