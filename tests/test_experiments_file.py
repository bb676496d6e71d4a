"""The paper's trends, read from the committed figure file.

``results/experiments_full.txt`` is what ``repro figure`` renders at
``--scale 1.0`` (CI regenerates it and ``cmp``s the bytes), so these
checks cover the full-scale numbers without simulating anything.  Each
trend is checked on every workload row, plus the ``avg`` row where the
paper states it as an average.
"""

from pathlib import Path
from typing import Dict, List

import pytest

FIGURE_FILE = Path(__file__).resolve().parent.parent / "results" / \
    "experiments_full.txt"


def parse_tables(text: str) -> Dict[str, List[Dict[str, str]]]:
    """Every rendered table as ``caption prefix -> rows``.

    A table is a caption line, a ``|``-separated header and a ``-+-``
    rule, followed by rows up to the next blank line; each row maps
    the header's column names to its cells.  The key is the caption up
    to its first colon (``"Fig. 9"``, ``"BMO composition"``).
    """
    lines = text.splitlines()
    tables = {}
    for i in range(len(lines) - 2):
        rule = lines[i + 2]
        if not rule or set(rule) - set("-+"):
            continue
        header = [cell.strip() for cell in lines[i + 1].split("|")]
        rows = []
        for line in lines[i + 3:]:
            if not line.strip():
                break
            rows.append(dict(zip(header, (cell.strip()
                                          for cell in line.split("|")))))
        tables[lines[i].split(":")[0]] = rows
    return tables


def num(cell: str) -> float:
    """A numeric cell: ``1.97``, ``83`` or ``38.1%`` (as 38.1)."""
    return float(cell.rstrip("%"))


@pytest.fixture(scope="module")
def tables():
    return parse_tables(FIGURE_FILE.read_text())


def by_workload(rows, column):
    """``{workload: [column value per row]}`` in file order."""
    out: Dict[str, List[float]] = {}
    for row in rows:
        out.setdefault(row["workload"], []).append(num(row[column]))
    return out


def test_parser_reads_every_sweep(tables):
    assert {"Table 1", "Fig. 9", "Fig. 10", "Fig. 11", "Fig. 12",
            "Fig. 13", "Fig. 14", "BMO composition",
            "Scheduling modes"} <= set(tables)
    # 7 workloads and the average, at 4 core counts each.
    assert len(tables["Fig. 9"]) == 8 * 4


def test_fig9_pre_execution_beats_parallelization_and_declines(tables):
    rows = tables["Fig. 9"]
    for row in rows:
        assert num(row["pre-execution"]) > num(row["parallelization"]) \
            > 1.0, row
    janus = by_workload(rows, "pre-execution")  # cores 1, 2, 4, 8
    for workload, series in janus.items():
        assert series[-1] < series[0], (workload, series)
    # Single-core average in the paper's neighbourhood (2.35x).
    assert 1.5 < janus["avg"][0] < 3.5


def test_fig10_janus_recovers_part_of_the_ideal_gap(tables):
    rows = tables["Fig. 10"]
    for row in rows:
        serialized, janus = num(row["serialized"]), num(row["janus"])
        assert serialized > 3.0, row
        assert 1.0 < janus < serialized, row
        assert 0.0 < num(row["fully pre-executed"]) < 100.0, row
    avg = rows[-1]
    assert avg["workload"] == "avg"
    # Roughly half of the writes' BMOs fully pre-execute (paper 45%).
    assert 25.0 < num(avg["fully pre-executed"]) < 75.0


def test_fig11_automated_pass_trails_manual(tables):
    rows = tables["Fig. 11"]
    for row in rows:
        assert num(row["auto"]) <= num(row["manual"]), row
    avg = rows[-1]
    assert avg["workload"] == "avg"
    # Average gap in the paper's neighbourhood (13.3%).
    assert num(avg["auto/manual"]) > 0.7
    # The loop-limited RB-Tree loses the most from automation.
    rbtree = next(row for row in rows if row["workload"] == "rbtree")
    assert num(rbtree["auto/manual"]) < 0.9


def test_fig12_md5_flat_and_crc32_speeds_up(tables):
    rows = tables["Fig. 12"]
    md5 = by_workload([r for r in rows if r["algorithm"] == "md5"],
                      "speedup")
    assert len(md5) == 7
    for workload, series in md5.items():
        # The 321 ns fingerprint dominates the chain at any ratio.
        assert max(series) - min(series) < 0.25 * max(series), \
            (workload, series)
    for row in rows:
        if row["algorithm"] == "crc32":
            assert num(row["speedup"]) > 1.0, row


def test_fig13_pre_execution_peaks_then_declines(tables):
    rows = tables["Fig. 13"]
    janus = by_workload(rows, "pre-execution")  # sizes ascending
    parallel = by_workload(rows, "parallelization")
    assert len(janus) == 5
    for workload, series in janus.items():
        # The buffers fill: the largest size is below the peak.
        assert max(series) > series[-1], (workload, series)
        assert max(series) > max(parallel[workload]), workload


def test_fig14_more_resources_help(tables):
    rows = tables["Fig. 14"]
    speedups = {(row["workload"], row["resources"]): num(row["speedup"])
                for row in rows}
    workloads = {workload for workload, _ in speedups}
    assert len(workloads) == 5
    for workload in workloads:
        default = speedups[(workload, "1x")]
        best = max(speedups[(workload, label)]
                   for label in ("2x", "4x", "unlimited"))
        assert best >= default * 0.98, workload
        assert speedups[(workload, "unlimited")] > default, workload


def test_composition_tax_grows_and_janus_recovers_it(tables):
    rows = tables["BMO composition"]
    taxes = [num(row["ns/txn serialized"]) for row in rows]
    serial_bmo = [num(row["serial BMO (ns)"]) for row in rows]
    assert taxes == sorted(set(taxes)), taxes
    assert serial_bmo == sorted(set(serial_bmo)), serial_bmo
    for row in rows:
        assert num(row["janus speedup"]) > 1.0, row
