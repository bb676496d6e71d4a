#!/usr/bin/env python3
"""Docs link/reference checker (the CI ``docs-check`` step).

Verifies, for ``README.md``, ``EXPERIMENTS.md``, ``DESIGN.md`` and
every ``docs/*.md``:

1. **Relative links** — every ``[text](target)`` whose target is not
   an absolute URL or a pure ``#anchor`` must resolve to a file or
   directory, relative to the file containing the link;
2. **Code paths** — every back-ticked ``src/repro/...`` path must
   exist in the repository (tokens carrying globs/ellipses are
   placeholders and are skipped);
3. **CLI subcommands** — every ``repro <subcommand>`` named inside
   back-ticked code (inline or fenced) must be a real subcommand of
   the argparse tree in :mod:`repro.cli`;
4. **CLI flags** — every ``--flag`` after ``repro <subcommand>`` in
   such code (``\\`` continuations joined, ``#`` comments dropped)
   must be an option of that subcommand's parser.

Pure standard library; exits 0 when clean, 1 with one line per
problem otherwise.  The check functions take explicit paths so the
test suite can point them at fixture trees (including deliberately
broken ones — the negative test in ``tests/test_check_docs.py``).
"""

import re
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent

#: ``[text](target)`` — target captured up to the closing paren.
_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
#: Back-ticked inline code spans.
_INLINE_CODE_RE = re.compile(r"`([^`\n]+)`")
#: ``src/repro/...`` path tokens inside a code span.  Placeholder
#: characters (``* < >``) are part of the token so that e.g.
#: ``src/repro/<pkg>/...`` is recognised as a placeholder rather
#: than truncated to a real-looking ``src/repro`` prefix.
_SRC_PATH_RE = re.compile(r"(src/repro/[\w./\-*<>]*)")
#: ``repro <sub>`` (optionally ``python -m repro <sub>``) inside code.
_SUBCOMMAND_RE = re.compile(r"(?:^|[^.\w])repro\s+([a-z][a-z0-9_-]*)")
#: Fenced code blocks (``` ... ```).
_FENCE_RE = re.compile(r"```[^\n]*\n(.*?)```", re.DOTALL)
#: ``--flag`` tokens; a flag's ``=value`` is not part of the token.
_FLAG_RE = re.compile(r"(?<![\w-])(--[a-z][a-z0-9-]*)")
#: Shell separators that end one command on a line.
_SHELL_SEP_RE = re.compile(r"[|;&]")


def default_doc_files(root: Path = REPO_ROOT) -> List[Path]:
    docs = [root / "README.md", root / "EXPERIMENTS.md",
            root / "DESIGN.md"]
    docs.extend(sorted((root / "docs").glob("*.md")))
    return [d for d in docs if d.exists()]


def cli_subcommands() -> Dict[str, Set[str]]:
    """Each real subcommand and its option strings, read from the
    argparse tree."""
    import argparse

    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro import cli

    parser = cli._build_parser()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return {name: {option for sub_action in sub._actions
                           for option in sub_action.option_strings}
                    for name, sub in action.choices.items()}
    raise RuntimeError("repro.cli parser has no subcommands")


def _code_spans(text: str) -> Iterable[str]:
    """Every back-ticked region: inline spans and fenced blocks."""
    without_fences = _FENCE_RE.sub("", text)
    for match in _INLINE_CODE_RE.finditer(without_fences):
        yield match.group(1)
    for match in _FENCE_RE.finditer(text):
        yield match.group(1)


def _is_placeholder(token: str) -> bool:
    return any(ch in token for ch in ("*", "<", ">", "…")) \
        or "..." in token


def check_links(doc: Path, root: Path) -> List[str]:
    """Relative markdown links must resolve from the doc's directory."""
    problems = []
    text = doc.read_text()
    for match in _LINK_RE.finditer(text):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        path_part = target.split("#", 1)[0]
        if not path_part:
            continue
        resolved = (doc.parent / path_part) if not \
            path_part.startswith("/") else root / path_part.lstrip("/")
        if not resolved.exists():
            problems.append(
                f"{doc.relative_to(root)}: broken link "
                f"({target}) -> {path_part}")
    return problems


def check_src_paths(doc: Path, root: Path) -> List[str]:
    """Back-ticked ``src/repro/...`` paths must exist on disk."""
    problems = []
    for span in _code_spans(doc.read_text()):
        for match in _SRC_PATH_RE.finditer(span):
            token = match.group(1).rstrip("/.")
            if _is_placeholder(match.group(1)):
                continue
            if not (root / token).exists():
                problems.append(
                    f"{doc.relative_to(root)}: code path "
                    f"`{token}` does not exist")
    return problems


def check_subcommands(doc: Path, root: Path,
                      subcommands: Dict[str, Set[str]]) -> List[str]:
    """``repro <sub>`` inside code spans must be real subcommands."""
    problems = []
    for span in _code_spans(doc.read_text()):
        for match in _SUBCOMMAND_RE.finditer(span):
            name = match.group(1)
            if name in subcommands or _is_placeholder(name):
                continue
            problems.append(
                f"{doc.relative_to(root)}: `repro {name}` is not a "
                f"CLI subcommand (has: {', '.join(sorted(subcommands))})")
    return problems


def _commands(span: str) -> Iterable[Tuple[str, str]]:
    """``(subcommand, argument text)`` for every ``repro <sub>``
    command in a code span."""
    text = span.replace("\\\n", " ")
    for line in text.splitlines():
        line = line.split("#", 1)[0]
        matches = list(_SUBCOMMAND_RE.finditer(line))
        for match, following in zip(matches, matches[1:] + [None]):
            args = line[match.end():following.start() if following
                        else len(line)]
            yield match.group(1), _SHELL_SEP_RE.split(args, 1)[0]


def check_flags(doc: Path, root: Path,
                subcommands: Dict[str, Set[str]]) -> List[str]:
    """``--flag`` after ``repro <sub>`` must be an option of ``sub``."""
    problems = []
    for span in _code_spans(doc.read_text()):
        for name, args in _commands(span):
            if name not in subcommands:
                continue  # check_subcommands reports it
            for flag in _FLAG_RE.findall(args):
                if flag not in subcommands[name]:
                    problems.append(
                        f"{doc.relative_to(root)}: `repro {name}` has "
                        f"no option {flag}")
    return problems


def check_docs(files: Optional[List[Path]] = None,
               root: Path = REPO_ROOT,
               subcommands: Optional[Dict[str, Set[str]]] = None
               ) -> List[str]:
    """All checks over ``files``; returns a flat problem list."""
    files = files if files is not None else default_doc_files(root)
    subcommands = subcommands if subcommands is not None \
        else cli_subcommands()
    problems: List[str] = []
    for doc in files:
        problems.extend(check_links(doc, root))
        problems.extend(check_src_paths(doc, root))
        problems.extend(check_subcommands(doc, root, subcommands))
        problems.extend(check_flags(doc, root, subcommands))
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    root = Path(argv[0]).resolve() if argv else REPO_ROOT
    files = default_doc_files(root)
    problems = check_docs(files, root=root)
    for problem in problems:
        print(problem, file=sys.stderr)
    print(f"check_docs: {len(files)} files, "
          f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
