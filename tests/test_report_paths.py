"""Regression: figure/trace output paths must not require an existing
``results/`` tree (``mkdir(parents=True)`` everywhere a harness file
is written — ``repro figure --out`` and ``repro run --trace/--stats``
route through these helpers)."""

import os
from datetime import date

from repro.harness.report import dated_path, ensure_parent, write_text


class TestEnsureParent:
    def test_creates_nested_parents(self, tmp_path):
        target = tmp_path / "results" / "figures" / "deep" / "fig9.txt"
        returned = ensure_parent(target)
        assert returned == str(target)
        assert target.parent.is_dir()
        assert not target.exists()  # only the directories

    def test_existing_parent_is_fine(self, tmp_path):
        target = tmp_path / "out.txt"
        assert ensure_parent(target) == str(target)
        assert ensure_parent(target) == str(target)  # idempotent

    def test_bare_filename_needs_no_mkdir(self):
        assert ensure_parent("plain.txt") == "plain.txt"


class TestWriteText:
    def test_writes_into_missing_directory(self, tmp_path):
        target = tmp_path / "a" / "b" / "c" / "report.txt"
        write_text("fig body", target)
        assert target.read_text() == "fig body\n"

    def test_trailing_newline_not_duplicated(self, tmp_path):
        target = tmp_path / "n" / "report.txt"
        write_text("line\n", target)
        assert target.read_text() == "line\n"


class TestDatedPath:
    def test_date_goes_before_the_extension(self):
        # Report files (CRASHTEST_<date>.json) and the fuzz repro
        # directory (FUZZ_<date>) share one naming rule.
        today = date.today().isoformat()
        assert dated_path("results", "SOAK.json") \
            == os.path.join("results", f"SOAK_{today}.json")
        assert dated_path("results", "FUZZ") \
            == os.path.join("results", f"FUZZ_{today}")
