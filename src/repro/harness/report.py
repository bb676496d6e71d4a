"""Plain-text tables and series for the figure reproductions,
plus the path helpers every harness writer goes through.

Output paths (``results/figures/...``, trace/stats JSON, charts) are
created with ``parents=True`` — a missing ``results/`` directory is
not an error, so the harness works from any working directory, not
just a repo checkout.

The crashtest, soak and fuzz reports, profile reports and the
``repro run --digest`` artifact are all written by
:func:`write_json`, in the one canonical form of :func:`render_json`.
"""

import json
import os
from datetime import date
from pathlib import Path
from typing import Dict, List, Sequence, Union

from repro.common.errors import ReproError

#: Where the campaign commands write their dated reports by default.
RESULTS_DIR = "results"


class ReportOverwriteError(ReproError):
    """Refusal to clobber a file that is not a previous render of the
    same report (``repro figure --out`` without ``--force``)."""


def ensure_parent(path: Union[str, Path]) -> str:
    """Create ``path``'s parent directories (``parents=True``);
    returns ``path`` as a string for chaining into ``open()``."""
    p = Path(path)
    if str(p.parent) not in ("", "."):
        p.parent.mkdir(parents=True, exist_ok=True)
    return str(p)


def write_text(text: str, path: Union[str, Path]) -> str:
    """Write rendered figure/report text to ``path``, creating any
    missing parent directories; guarantees a trailing newline."""
    target = ensure_parent(path)
    with open(target, "w") as handle:
        handle.write(text if text.endswith("\n") else text + "\n")
    return target


def write_report_text(text: str, path: Union[str, Path],
                      force: bool = False) -> str:
    """:func:`write_text` that refuses to silently overwrite a file it
    did not produce.

    A re-render of the same report is recognized by its first line
    (the caption) and overwritten freely; any other existing file —
    someone's notes, a different figure, a data file that happens to
    share the name — raises :class:`ReportOverwriteError` unless
    ``force``.
    """
    p = Path(path)
    if p.exists() and not force:
        if p.is_dir():
            raise ReportOverwriteError(f"{path} is a directory")
        try:
            with open(p, errors="replace") as handle:
                existing_first = handle.readline().rstrip("\n")
        except OSError as error:
            raise ReportOverwriteError(
                f"cannot inspect existing file {path}: {error}")
        new_first = text.split("\n", 1)[0]
        if existing_first != new_first:
            raise ReportOverwriteError(
                f"{path} exists and does not look like a previous "
                f"render of this report (first line "
                f"{existing_first[:40]!r} != {new_first[:40]!r}); "
                f"pass --force to overwrite")
    return write_text(text, path)


def render_json(payload) -> str:
    """Canonical serialisation: sorted keys, two-space indent, one
    trailing newline — identical payloads give identical bytes."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_json(payload, path: Union[str, Path]) -> str:
    """Write :func:`render_json` of ``payload`` to ``path``, creating
    any missing parent directories; returns the path."""
    return write_text(render_json(payload), path)


def dated_path(directory: str, stem: str) -> str:
    """``directory/<stem>_<today>`` with ``stem``'s extension kept:
    ``dated_path("results", "SOAK.json")`` is
    ``results/SOAK_<ISO date>.json``.  The date lives only in the
    name, never in the body, so report bytes stay reproducible."""
    root, ext = os.path.splitext(stem)
    return os.path.join(directory,
                        f"{root}_{date.today().isoformat()}{ext}")


class Table:
    """A fixed-column ASCII table with a caption."""

    def __init__(self, caption: str, columns: Sequence[str]):
        self.caption = caption
        self.columns = list(columns)
        self.rows: List[List[str]] = []

    def add_row(self, *cells) -> None:
        if len(cells) != len(self.columns):
            raise ValueError(
                f"row has {len(cells)} cells, expected "
                f"{len(self.columns)}")
        self.rows.append([_fmt(c) for c in cells])

    def render(self) -> str:
        widths = [len(col) for col in self.columns]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = [self.caption]
        header = " | ".join(col.ljust(widths[i])
                            for i, col in enumerate(self.columns))
        lines.append(header)
        lines.append("-+-".join("-" * w for w in widths))
        for row in self.rows:
            lines.append(" | ".join(cell.ljust(widths[i])
                                    for i, cell in enumerate(row)))
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


def _fmt(cell) -> str:
    if isinstance(cell, float):
        return f"{cell:.2f}"
    return str(cell)


def format_series(name: str, points: Dict, unit: str = "x") -> str:
    """One figure series as ``name: k1=v1 k2=v2 ...``."""
    parts = [f"{key}={value:.2f}{unit}" if isinstance(value, float)
             else f"{key}={value}{unit}"
             for key, value in points.items()]
    return f"{name}: " + "  ".join(parts)


def arithmetic_mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0
