#!/usr/bin/env python3
"""OLTP-style evaluation: TATP and TPC-C kernels across all four
design points (serialized / parallelized / Janus / ideal), printing a
per-workload speedup table like the paper's Fig. 9/10.  The last
column is Fig. 10's share: fully pre-executed writes over all
writebacks of the manual Janus run.

Run:  python examples/database_transactions.py
"""

from repro.harness.report import Table
from repro.harness.runner import run_point, speedup_over
from repro.workloads import WorkloadParams


def main():
    params = WorkloadParams(n_items=32, value_size=64,
                            n_transactions=40)
    table = Table(
        "OLTP kernels: speedup over the serialized design",
        ["workload", "parallel", "janus(manual)", "janus(auto)",
         "ideal", "fully pre-exec / writebacks"])
    for name in ("tatp", "tpcc"):
        serialized = run_point(name, mode="serialized", params=params)
        rows = {}
        for mode, variant in (("parallel", None),
                              ("janus", "manual"),
                              ("janus", "auto"),
                              ("ideal", None)):
            result = run_point(name, mode=mode, variant=variant,
                               params=params)
            rows[(mode, variant)] = result
        janus_manual = rows[("janus", "manual")]
        stats = janus_manual.stats
        fully = stats["janus.fully_pre_executed"] / stats["mc.writebacks"]
        table.add_row(
            name,
            speedup_over(serialized, rows[("parallel", None)]),
            speedup_over(serialized, janus_manual),
            speedup_over(serialized, rows[("janus", "auto")]),
            speedup_over(serialized, rows[("ideal", None)]),
            f"{fully * 100:.0f}%",
        )
        throughput = (janus_manual.transactions
                      / (janus_manual.elapsed_ns / 1e9))
        print(f"{name}: janus throughput "
              f"{throughput / 1e6:.2f} M txn/s "
              f"({janus_manual.ns_per_transaction:.0f} ns/txn)")
    print()
    print(table.render())


if __name__ == "__main__":
    main()
