"""``tools/check_docs.py``: green on the real docs, red on fixtures.

The checker is CI's ``docs-check`` step; these tests pin both
directions — the repository's own documentation must be clean, and a
deliberately broken fixture tree must fail with one problem per
defect (the negative test the acceptance criteria ask for).
"""

import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import check_docs  # noqa: E402  (tools/ is not a package)

SUBCOMMANDS = check_docs.cli_subcommands()


def _write(root: Path, rel: str, text: str) -> Path:
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path


class TestRealRepoDocs:
    def test_repo_docs_are_clean(self):
        problems = check_docs.check_docs(subcommands=SUBCOMMANDS)
        assert problems == []

    def test_doc_set_covers_readme_and_docs_dir(self):
        files = {p.name for p in check_docs.default_doc_files()}
        assert {"README.md", "EXPERIMENTS.md", "DESIGN.md",
                "architecture.md"} <= files

    def test_cli_subcommands_read_from_argparse(self):
        assert {"run", "figure", "crashtest"} <= set(SUBCOMMANDS)
        assert "--shards" in SUBCOMMANDS["run"]
        assert "--jobs" in SUBCOMMANDS["crashtest"]
        assert "--jobs" not in SUBCOMMANDS["run"]


class TestNegativeFixtures:
    def test_broken_relative_link_fails(self, tmp_path):
        doc = _write(tmp_path, "README.md", "[gone](docs/nope.md)\n")
        problems = check_docs.check_links(doc, tmp_path)
        assert len(problems) == 1
        assert "broken link" in problems[0]

    def test_valid_relative_link_passes(self, tmp_path):
        _write(tmp_path, "docs/real.md", "hi\n")
        doc = _write(tmp_path, "README.md",
                     "[ok](docs/real.md) [anchor](#x) "
                     "[web](https://example.org)\n")
        assert check_docs.check_links(doc, tmp_path) == []

    def test_missing_src_path_fails(self, tmp_path):
        doc = _write(tmp_path, "README.md",
                     "see `src/repro/ghost/missing.py`\n")
        problems = check_docs.check_src_paths(doc, tmp_path)
        assert len(problems) == 1
        assert "does not exist" in problems[0]

    def test_placeholder_src_path_skipped(self, tmp_path):
        doc = _write(tmp_path, "README.md",
                     "`src/repro/<pkg>/...` and `src/repro/*.py`\n")
        assert check_docs.check_src_paths(doc, tmp_path) == []

    def test_unknown_subcommand_fails(self, tmp_path):
        doc = _write(tmp_path, "README.md",
                     "run `repro frobnicate --now`\n")
        problems = check_docs.check_subcommands(doc, tmp_path,
                                                SUBCOMMANDS)
        assert len(problems) == 1
        assert "repro frobnicate" in problems[0]

    def test_fenced_block_subcommands_checked(self, tmp_path):
        doc = _write(tmp_path, "README.md",
                     "```bash\npython -m repro nosuchcmd\n```\n")
        problems = check_docs.check_subcommands(doc, tmp_path,
                                                SUBCOMMANDS)
        assert len(problems) == 1

    def test_module_reference_is_not_a_subcommand(self, tmp_path):
        # `repro.harness` is a dotted module path, not `repro <sub>`.
        doc = _write(tmp_path, "README.md",
                     "`repro.harness.parallel` drives `repro figures`\n")
        assert check_docs.check_subcommands(doc, tmp_path,
                                            SUBCOMMANDS) == []

    def test_unknown_flag_fails(self, tmp_path):
        # The workload is positional: `--workload` is no option.
        doc = _write(tmp_path, "README.md",
                     "`repro run --workload hash_table --shards 4`\n")
        problems = check_docs.check_flags(doc, tmp_path, SUBCOMMANDS)
        assert len(problems) == 1
        assert "`repro run` has no option --workload" in problems[0]

    def test_fenced_flags_join_continuations_and_drop_comments(
            self, tmp_path):
        doc = _write(tmp_path, "README.md",
                     "```bash\n"
                     "python -m repro run queue --mode janus \\\n"
                     "    --bogus 1   # --also-bogus\n"
                     "```\n")
        problems = check_docs.check_flags(doc, tmp_path, SUBCOMMANDS)
        assert len(problems) == 1
        assert "no option --bogus" in problems[0]

    def test_flags_belong_to_their_own_command(self, tmp_path):
        doc = _write(tmp_path, "README.md",
                     "`repro run queue --check && repro crashtest "
                     "--quick --jobs 2`\n"
                     "`repro profile queue --top 5 | head --lines 3`\n")
        assert check_docs.check_flags(doc, tmp_path, SUBCOMMANDS) == []
        doc = _write(tmp_path, "README.md",
                     "`repro crashtest --quick; repro run queue "
                     "--jobs 2`\n")
        problems = check_docs.check_flags(doc, tmp_path, SUBCOMMANDS)
        assert len(problems) == 1
        assert "`repro run` has no option --jobs" in problems[0]

    def test_main_exit_codes(self, tmp_path, capsys):
        _write(tmp_path, "README.md", "[bad](missing.md)\n")
        assert check_docs.main([str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert "broken link" in captured.err
        _write(tmp_path, "missing.md", "now present\n")
        assert check_docs.main([str(tmp_path)]) == 0


class TestCheckDocsAggregation:
    def test_all_defect_kinds_reported_together(self, tmp_path):
        _write(tmp_path, "README.md",
               "[gone](nope.md)\n`src/repro/ghost.py`\n"
               "`repro frobnicate`\n`repro run queue --nope`\n")
        problems = check_docs.check_docs(
            files=check_docs.default_doc_files(tmp_path),
            root=tmp_path, subcommands=SUBCOMMANDS)
        assert len(problems) == 4
