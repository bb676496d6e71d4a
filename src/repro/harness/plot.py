"""ASCII bar charts for figure data.

The paper's evaluation figures are grouped bar charts; the drivers in
:mod:`repro.harness.experiments` return the underlying numbers, and
this module renders them the way the paper draws them — one group per
workload, one bar per series — so a terminal run reads like the
figure.
"""

from typing import Dict, Optional, Sequence


def bar_chart(title: str,
              groups: Dict[str, Dict[str, float]],
              unit: str = "x",
              width: int = 44,
              baseline: Optional[float] = 1.0) -> str:
    """Render grouped horizontal bars.

    ``groups`` maps group label -> {series label -> value}.  A
    ``baseline`` (default 1.0 — the serialized reference in every
    speedup figure) is marked with ``|`` on each bar's scale.
    """
    lines = [title]
    all_values = [v for series in groups.values()
                  for v in series.values()]
    if not all_values:
        lines.append("  (no data)")
        return "\n".join(lines)
    peak = max(all_values + ([baseline] if baseline else []))
    label_width = max((len(s) for series in groups.values()
                       for s in series), default=4)

    def bar(value: float) -> str:
        filled = int(round(width * value / peak)) if peak else 0
        cells = ["#"] * filled + [" "] * (width - filled)
        if baseline and 0 < baseline <= peak:
            mark = min(width - 1, int(round(width * baseline / peak)))
            if cells[mark] == " ":
                cells[mark] = "|"
        return "".join(cells)

    for group, series in groups.items():
        lines.append(f"{group}:")
        for label, value in series.items():
            lines.append(f"  {label:<{label_width}} "
                         f"[{bar(value)}] {value:.2f}{unit}")
    return "\n".join(lines)


def fig9_chart(data: Dict[str, Dict[int, Sequence[float]]]) -> str:
    """Fig. 9 as bars: per workload, parallelization vs pre-execution
    at each core count."""
    groups: Dict[str, Dict[str, float]] = {}
    for workload, per_cores in data.items():
        series: Dict[str, float] = {}
        for cores, (parallel, janus) in sorted(per_cores.items()):
            series[f"{cores}-core parallel"] = parallel
            series[f"{cores}-core janus"] = janus
        groups[workload] = series
    return bar_chart("Fig. 9 (bars): speedup over serialized", groups)


def fig11_chart(data: Dict[str, Dict[str, float]]) -> str:
    """Fig. 11 as bars: manual vs auto vs profile-guided."""
    groups = {workload: dict(series)
              for workload, series in data.items()}
    return bar_chart(
        "Fig. 11 (bars): instrumentation variants", groups)
